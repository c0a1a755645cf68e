// Package player models the DASH client's playback buffer: startup,
// real-time draining across queued segments, stall (rebuffer)
// accounting, and the buffer-threshold download pacing of the paper's
// setup (downloads pause once beta = 30 s of content is buffered).
package player

import "errors"

// DefaultBufferThresholdSec is the paper's buffer threshold beta.
const DefaultBufferThresholdSec = 30.0

// Queued is one buffered segment awaiting playback.
type Queued struct {
	// DurationSec is the segment's remaining playback time.
	DurationSec float64
	// BitrateMbps is the segment's encoded bitrate (used to attribute
	// decode power while it plays).
	BitrateMbps float64
}

// Played reports a contiguous stretch of playback at one bitrate,
// passed to DrainInto's emit so the caller can integrate decode power.
type Played struct {
	// DurationSec is how long this stretch played.
	DurationSec float64
	// BitrateMbps is the bitrate that was decoding.
	BitrateMbps float64
}

// Player is the client buffer. The zero value is not usable; construct
// with New.
//
// The queue is a compacting ring: consumed segments advance a head
// index instead of re-slicing the front off (which would pin the
// consumed prefix's backing array for the whole session), and the
// live tail is periodically copied back to the array start so the
// backing capacity stays bounded by the deepest simultaneous queue,
// not by the number of segments ever enqueued.
//
// tailSec is the left-to-right sum of the durations behind the head
// (queue[head+1:]). Only the head drains between pushes and pops, so
// the sum changes only there, and CompareBuffer can answer from
// head + tailSec without walking the queue.
type Player struct {
	thresholdSec float64
	queue        []Queued
	head         int
	tailSec      float64
	started      bool

	playedSec  float64
	stallSec   float64
	startupSec float64
}

// ErrBadThreshold is returned for non-positive buffer thresholds.
var ErrBadThreshold = errors.New("player: buffer threshold must be positive")

// New returns a player that pauses downloads once the buffer exceeds
// thresholdSec.
func New(thresholdSec float64) (*Player, error) {
	if thresholdSec <= 0 {
		return nil, ErrBadThreshold
	}
	return &Player{thresholdSec: thresholdSec}, nil
}

// BufferSec returns the buffered playback time: the queued durations
// summed left to right, head first.
func (p *Player) BufferSec() float64 {
	var sum float64
	for _, q := range p.queue[p.head:] {
		sum += q.DurationSec
	}
	return sum
}

// CompareBuffer compares BufferSec() with levelSec exactly: it returns
// −1 when BufferSec() < levelSec, +1 when BufferSec() > levelSec, and 0
// otherwise (equal, or either is NaN).
//
// It answers from the estimate e = head + tailSec in O(1). BufferSec()
// and e sum the same n non-negative durations in different orders, so
// each is within γ(n−1)·S of the exact sum S, and they differ by at
// most about 2(n−1)·2⁻⁵³·e. The bound used, n·2⁻⁵¹·e plus the
// smallest normal float64 (covering underflow), is at least twice
// that; only a level within it of e pays for the full sum.
func (p *Player) CompareBuffer(levelSec float64) int {
	if n := len(p.queue) - p.head; n > 0 {
		est := p.queue[p.head].DurationSec + p.tailSec
		bound := est*float64(n)*0x1p-51 + 0x1p-1022
		if d := est - levelSec; d > bound {
			return 1
		} else if d < -bound {
			return -1
		}
	}
	switch buf := p.BufferSec(); {
	case buf < levelSec:
		return -1
	case buf > levelSec:
		return 1
	}
	return 0
}

// ShouldDownload reports whether the next segment download should
// start now (buffer below the threshold).
func (p *Player) ShouldDownload() bool { return p.CompareBuffer(p.thresholdSec) < 0 }

// OnSegment enqueues a downloaded segment and starts playback if this
// is the first one. Non-positive durations are ignored.
func (p *Player) OnSegment(durationSec, bitrateMbps float64) {
	if durationSec <= 0 {
		return
	}
	if p.head < len(p.queue) {
		p.tailSec += durationSec // extends the left-to-right sum by one term
	}
	p.queue = append(p.queue, Queued{DurationSec: durationSec, BitrateMbps: bitrateMbps})
	p.started = true
}

// DrainInto advances playback by dt wall-clock seconds. Each maximal
// contiguous stretch of playback at one bitrate is passed to emit
// (which may be nil) in playback order, for decode-power attribution;
// the stall time within dt is returned. Time before the first segment
// arrives counts as startup, not stall.
func (p *Player) DrainInto(dt float64, emit func(Played)) (stallSec float64) {
	if dt <= 0 {
		return 0
	}
	if !p.started {
		p.startupSec += dt
		return 0
	}
	if dt > 1e-12 && p.head < len(p.queue) && p.queue[p.head].DurationSec >= dt {
		// The head covers the whole step: the loop below would make
		// one pass consuming dt, pop an emptied head, then emit. Same
		// arithmetic, without the loop. The bitrate is read before
		// pop, whose compaction can overwrite the head slot.
		q := &p.queue[p.head]
		br := q.BitrateMbps
		q.DurationSec -= dt
		p.playedSec += dt
		if q.DurationSec <= 1e-12 {
			p.pop()
		}
		if emit != nil {
			emit(Played{DurationSec: dt, BitrateMbps: br})
		}
		return 0
	}
	remaining := dt
	var cur Played
	haveCur := false
	for remaining > 1e-12 && p.head < len(p.queue) {
		q := &p.queue[p.head]
		consume := q.DurationSec
		if consume > remaining {
			consume = remaining
		}
		q.DurationSec -= consume
		remaining -= consume
		p.playedSec += consume
		if haveCur && cur.BitrateMbps == q.BitrateMbps {
			cur.DurationSec += consume
		} else {
			if haveCur && emit != nil {
				emit(cur)
			}
			cur = Played{DurationSec: consume, BitrateMbps: q.BitrateMbps}
			haveCur = true
		}
		if q.DurationSec <= 1e-12 {
			p.pop()
		}
	}
	if haveCur && emit != nil {
		emit(cur)
	}
	if remaining > 1e-12 {
		p.stallSec += remaining
		stallSec = remaining
	}
	return stallSec
}

// pop consumes the head segment, compacting the ring so the backing
// array never grows past roughly twice the deepest live queue, and
// recomputes tailSec for the new head.
func (p *Player) pop() {
	p.head++
	p.tailSec = 0
	if p.head == len(p.queue) {
		p.queue = p.queue[:0]
		p.head = 0
		return
	}
	if p.head >= 16 && p.head*2 >= len(p.queue) {
		n := copy(p.queue, p.queue[p.head:])
		p.queue = p.queue[:n]
		p.head = 0
	}
	for _, q := range p.queue[p.head+1:] {
		p.tailSec += q.DurationSec
	}
}

// FinishRemainingInto plays out whatever is buffered, leaving the
// buffer empty; the stretches are passed to emit (which may be nil) in
// playback order. Used after the last download.
func (p *Player) FinishRemainingInto(emit func(Played)) {
	p.DrainInto(p.BufferSec()+1e-9, emit)
	// The epsilon overshoot must not register as a stall.
	if p.stallSec > 0 && p.stallSec < 1e-6 {
		p.stallSec = 0
	}
}

// PlayedSec returns total playback time so far.
func (p *Player) PlayedSec() float64 { return p.playedSec }

// StallSec returns total mid-stream stall time so far.
func (p *Player) StallSec() float64 { return p.stallSec }

// StartupSec returns time spent waiting for the first segment.
func (p *Player) StartupSec() float64 { return p.startupSec }
