package player

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// drain is DrainInto collecting the stretches, nil when there are none.
func drain(p *Player, dt float64) (played []Played, stallSec float64) {
	stallSec = p.DrainInto(dt, func(st Played) { played = append(played, st) })
	return played, stallSec
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0); !errors.Is(err, ErrBadThreshold) {
		t.Errorf("err = %v, want ErrBadThreshold", err)
	}
	if _, err := New(-5); !errors.Is(err, ErrBadThreshold) {
		t.Errorf("err = %v, want ErrBadThreshold", err)
	}
	p, err := New(DefaultBufferThresholdSec)
	if err != nil {
		t.Fatal(err)
	}
	if p.thresholdSec != 30 {
		t.Errorf("thresholdSec = %v, want 30", p.thresholdSec)
	}
}

func TestStartupAccounting(t *testing.T) {
	p, _ := New(30)
	played, stall := drain(p, 3)
	if played != nil || stall != 0 {
		t.Errorf("pre-start drain = %v, %v; want nil, 0", played, stall)
	}
	if p.StartupSec() != 3 {
		t.Errorf("StartupSec = %v, want 3", p.StartupSec())
	}
	p.OnSegment(2, 1.5)
	// The first segment starts playback: the next drain plays.
	played, stall = drain(p, 1)
	if len(played) != 1 || stall != 0 || p.PlayedSec() != 1 || p.StartupSec() != 3 {
		t.Errorf("post-start drain = %v, %v (played %v, startup %v); want one 1 s stretch",
			played, stall, p.PlayedSec(), p.StartupSec())
	}
	// Startup time does not count as stall.
	if p.StallSec() != 0 {
		t.Errorf("StallSec = %v, want 0", p.StallSec())
	}
}

func TestDrainAcrossSegments(t *testing.T) {
	p, _ := New(30)
	p.OnSegment(2, 1.5)
	p.OnSegment(2, 3.0)
	played, stall := drain(p, 3)
	if stall != 0 {
		t.Errorf("stall = %v, want 0", stall)
	}
	if len(played) != 2 {
		t.Fatalf("played stretches = %d, want 2", len(played))
	}
	if played[0].BitrateMbps != 1.5 || !almostEqual(played[0].DurationSec, 2, 1e-9) {
		t.Errorf("stretch 0 = %+v, want 2 s @ 1.5", played[0])
	}
	if played[1].BitrateMbps != 3.0 || !almostEqual(played[1].DurationSec, 1, 1e-9) {
		t.Errorf("stretch 1 = %+v, want 1 s @ 3.0", played[1])
	}
	if !almostEqual(p.BufferSec(), 1, 1e-9) {
		t.Errorf("BufferSec = %v, want 1", p.BufferSec())
	}
}

func TestDrainMergesEqualBitrates(t *testing.T) {
	p, _ := New(30)
	p.OnSegment(2, 1.5)
	p.OnSegment(2, 1.5)
	played, _ := drain(p, 4)
	if len(played) != 1 {
		t.Fatalf("played stretches = %d, want 1 (merged)", len(played))
	}
	if !almostEqual(played[0].DurationSec, 4, 1e-9) {
		t.Errorf("merged duration = %v, want 4", played[0].DurationSec)
	}
}

func TestStallWhenBufferEmpties(t *testing.T) {
	p, _ := New(30)
	p.OnSegment(2, 1.5)
	stall := p.DrainInto(5, nil)
	if !almostEqual(stall, 3, 1e-9) {
		t.Errorf("stall = %v, want 3", stall)
	}
	if !almostEqual(p.StallSec(), 3, 1e-9) {
		t.Errorf("StallSec = %v, want 3", p.StallSec())
	}
	if !almostEqual(p.PlayedSec(), 2, 1e-9) {
		t.Errorf("PlayedSec = %v, want 2", p.PlayedSec())
	}
}

func TestShouldDownloadThreshold(t *testing.T) {
	p, _ := New(4)
	if !p.ShouldDownload() {
		t.Error("empty buffer should download")
	}
	p.OnSegment(2, 1)
	if !p.ShouldDownload() {
		t.Error("buffer below threshold should download")
	}
	p.OnSegment(2, 1)
	if p.ShouldDownload() {
		t.Error("buffer at threshold should pause downloads")
	}
	p.DrainInto(1, nil)
	if !p.ShouldDownload() {
		t.Error("buffer drained below threshold should resume")
	}
}

func TestOnSegmentIgnoresNonPositive(t *testing.T) {
	p, _ := New(30)
	p.OnSegment(0, 1)
	p.OnSegment(-2, 1)
	// Nothing was enqueued, so playback has not started either: a drain
	// still counts as startup.
	p.DrainInto(1, nil)
	if p.BufferSec() != 0 || p.StartupSec() != 1 || p.PlayedSec() != 0 {
		t.Error("non-positive segments were enqueued")
	}
}

func TestDrainNonPositive(t *testing.T) {
	p, _ := New(30)
	p.OnSegment(2, 1)
	played, stall := drain(p, 0)
	if played != nil || stall != 0 {
		t.Error("DrainInto(0) did something")
	}
	played, stall = drain(p, -1)
	if played != nil || stall != 0 {
		t.Error("DrainInto(-1) did something")
	}
	// A step of at most 1e-12 s consumes nothing and stalls nothing.
	played, stall = drain(p, 1e-13)
	if played != nil || stall != 0 || p.PlayedSec() != 0 {
		t.Error("DrainInto(1e-13) did something")
	}
}

func TestFinishRemaining(t *testing.T) {
	p, _ := New(30)
	p.OnSegment(2, 1.5)
	p.OnSegment(2, 3.0)
	p.DrainInto(1, nil)
	var total float64
	p.FinishRemainingInto(func(st Played) { total += st.DurationSec })
	if !almostEqual(total, 3, 1e-6) {
		t.Errorf("FinishRemainingInto played %v s, want 3", total)
	}
	if p.BufferSec() > 1e-9 {
		t.Errorf("buffer not empty: %v", p.BufferSec())
	}
	if p.StallSec() != 0 {
		t.Errorf("FinishRemainingInto registered stall: %v", p.StallSec())
	}
}

// Conservation: enqueued duration = played + buffered, and stall only
// accrues when the buffer is empty.
func TestConservationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	f := func(opsRaw uint8) bool {
		p, err := New(30)
		if err != nil {
			return false
		}
		ops := int(opsRaw%40) + 1
		var enqueued float64
		for i := 0; i < ops; i++ {
			if rng.Float64() < 0.5 {
				d := rng.Float64()*3 + 0.1
				enqueued += d
				p.OnSegment(d, 1.5)
			} else {
				p.DrainInto(rng.Float64()*4, nil)
			}
		}
		return almostEqual(enqueued, p.PlayedSec()+p.BufferSec(), 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQueueCapacityBounded guards the ring-buffer fix: a steady-state
// session (enqueue one segment, drain one segment, thousands of times)
// must not grow the queue's backing array with the number of segments
// ever enqueued. The old p.queue = p.queue[1:] implementation retained
// every consumed entry's slot and failed this test.
func TestQueueCapacityBounded(t *testing.T) {
	p, err := New(30)
	if err != nil {
		t.Fatal(err)
	}
	const (
		segments = 20_000
		depth    = 8 // live queue depth held during the run
	)
	for i := 0; i < depth; i++ {
		p.OnSegment(2, 1.5)
	}
	for i := 0; i < segments; i++ {
		p.OnSegment(2, float64(i%3)+1)
		if stall := p.DrainInto(2, nil); stall != 0 {
			t.Fatalf("unexpected stall at segment %d", i)
		}
	}
	if got := cap(p.queue); got > 4*depth+16 {
		t.Errorf("queue capacity grew to %d for a depth-%d session; want bounded", got, depth)
	}
	if want := float64(depth * 2); math.Abs(p.BufferSec()-want) > 1e-6 {
		t.Errorf("BufferSec = %v, want %v", p.BufferSec(), want)
	}
}

// drainLoop is DrainInto before its one-segment fast path: the plain
// loop over queued segments, kept as the oracle the fast path must
// match bit for bit.
func drainLoop(p *Player, dt float64, emit func(Played)) (stallSec float64) {
	if dt <= 0 {
		return 0
	}
	if !p.started {
		p.startupSec += dt
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

// sign is the sign of a − b; exact, since a float64 difference is zero
// only for equal operands.
func sign(a, b float64) int {
	switch d := a - b; {
	case d < 0:
		return -1
	case d > 0:
		return 1
	}
	return 0
}

// TestDrainIntoMatchesLoopOracle drives DrainInto and the drainLoop
// oracle through the same random push and drain sequences: fill phases
// deeper than 32 segments (so pop compacts, including at exactly twice
// the head index), and steps of 1e-13 s, exactly the head's remaining
// duration, one ulp either side of it, 0.1 s pacing steps and
// stalls. After every op the stretches, the stall and every counter
// must be equal, and CompareBuffer must be the exact sign of
// BufferSec() − x at the sum, its ulp neighbours, the O(1) estimate
// and the threshold.
func TestDrainIntoMatchesLoopOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	bitrates := []float64{0.5, 1.5, 3}
	for trial := 0; trial < 40; trial++ {
		a, _ := New(DefaultBufferThresholdSec)
		b, _ := New(DefaultBufferThresholdSec)
		var gotA, gotB []Played
		emitA := func(st Played) { gotA = append(gotA, st) }
		emitB := func(st Played) { gotB = append(gotB, st) }
		fill, drains := 0, 0
		for op := 0; op < 600; op++ {
			if fill == 0 && drains == 0 {
				// A fill phase of 33–64 pushes, so the depth passes 32
				// with either parity, then a drain phase with the odd
				// push mixed in.
				fill, drains = 33+rng.Intn(32), 20+rng.Intn(100)
			}
			desc := ""
			if fill > 0 || rng.Intn(10) == 0 {
				if fill > 0 {
					fill--
				}
				d := 2.0
				switch rng.Intn(4) {
				case 0:
					d = 0.1 + rng.Float64()*3
				case 1:
					d = rng.Float64() * 1e-11 // may be below the 1e-12 floor
				}
				br := bitrates[rng.Intn(len(bitrates))]
				a.OnSegment(d, br)
				b.OnSegment(d, br)
				desc = fmt.Sprintf("OnSegment(%v, %v)", d, br)
			} else {
				drains--
				dt := 0.1
				if a.head < len(a.queue) {
					h := a.queue[a.head].DurationSec
					switch rng.Intn(6) {
					case 0:
						dt = h
					case 1:
						dt = math.Nextafter(h, 0)
					case 2:
						dt = math.Nextafter(h, math.Inf(1))
					}
				}
				switch rng.Intn(8) {
				case 0:
					dt = 1e-13
				case 1:
					dt = rng.Float64() * 5
				}
				gotA, gotB = gotA[:0], gotB[:0]
				stallA := a.DrainInto(dt, emitA)
				stallB := drainLoop(b, dt, emitB)
				desc = fmt.Sprintf("DrainInto(%v)", dt)
				if stallA != stallB || len(gotA) != len(gotB) {
					t.Fatalf("trial %d op %d %s: stall %v, stretches %v; oracle %v, %v",
						trial, op, desc, stallA, gotA, stallB, gotB)
				}
				for i := range gotA {
					if gotA[i] != gotB[i] {
						t.Fatalf("trial %d op %d %s: stretch %d = %v, oracle %v", trial, op, desc, i, gotA[i], gotB[i])
					}
				}
			}
			if a.BufferSec() != b.BufferSec() || a.PlayedSec() != b.PlayedSec() ||
				a.StallSec() != b.StallSec() || a.StartupSec() != b.StartupSec() {
				t.Fatalf("trial %d op %d %s: buffer/played/stall/startup %v/%v/%v/%v, oracle %v/%v/%v/%v",
					trial, op, desc, a.BufferSec(), a.PlayedSec(), a.StallSec(), a.StartupSec(),
					b.BufferSec(), b.PlayedSec(), b.StallSec(), b.StartupSec())
			}
			var tail float64
			if a.head < len(a.queue) {
				for _, q := range a.queue[a.head+1:] {
					tail += q.DurationSec
				}
			}
			if a.tailSec != tail {
				t.Fatalf("trial %d op %d %s: tailSec %v, recomputed %v", trial, op, desc, a.tailSec, tail)
			}
			buf := a.BufferSec()
			levels := []float64{buf, math.Nextafter(buf, 0), math.Nextafter(buf, math.Inf(1)), a.thresholdSec}
			if a.head < len(a.queue) {
				est := a.queue[a.head].DurationSec + a.tailSec
				levels = append(levels, est, math.Nextafter(est, 0), math.Nextafter(est, math.Inf(1)))
			}
			for _, x := range levels {
				if got, want := a.CompareBuffer(x), sign(buf, x); got != want {
					t.Fatalf("trial %d op %d %s: CompareBuffer(%v) = %d, want %d (BufferSec %v)",
						trial, op, desc, x, got, want, buf)
				}
			}
			if got, want := a.ShouldDownload(), buf < a.thresholdSec; got != want {
				t.Fatalf("trial %d op %d %s: ShouldDownload = %v with BufferSec %v", trial, op, desc, got, buf)
			}
		}
	}
}

// TestPlayStepsMatchesDrainInto checks PlaySteps against one DrainInto
// step at a time under the same tests: before each step the buffer
// compares above the level, playback is short of stopAt and the head
// covers the step, which must then emit one stretch of dt at the run's
// bitrate and stall for 0 s; the run ends after a step that empties
// the head. Both players must end bit-equal. Levels sit at the buffer,
// its ulp neighbours and whole steps below it, where the O(1) estimate
// must defer to the full sum.
func TestPlayStepsMatchesDrainInto(t *testing.T) {
	r := rand.New(rand.NewSource(28))
	durs := []float64{0.05, 0.1, 0.3, 1, 2, 2, 2.0000001, 3.7}
	dts := []float64{0.1, 0.1, 0.05, 0.3, 1e-13}
	for trial := 0; trial < 3000; trial++ {
		a, _ := New(30)
		for i := r.Intn(12); i > 0; i-- {
			d, br := durs[r.Intn(len(durs))], float64(1+r.Intn(3))
			a.OnSegment(d, br)
		}
		a.DrainInto(3*r.Float64(), nil)
		b := *a
		b.queue = append([]Queued(nil), a.queue...)

		dt := dts[r.Intn(len(dts))]
		buf := a.BufferSec()
		level := []float64{math.Inf(-1), buf - dt*float64(r.Intn(30)), math.Nextafter(buf, 0), buf, math.NaN(), -1}[r.Intn(6)]
		stopAt := []float64{math.Inf(1), a.playedSec + dt*float64(r.Intn(30)), a.playedSec}[r.Intn(3)]
		limit := 1 + r.Intn(40)

		n, br := a.PlaySteps(dt, level, stopAt, limit)
		k := 0
		for k < limit && !(b.playedSec >= stopAt) && b.CompareBuffer(level) > 0 &&
			dt > 1e-12 && b.head < len(b.queue) && b.queue[b.head].DurationSec >= dt {
			last := b.queue[b.head].DurationSec-dt <= 1e-12
			var got []Played
			if stall := b.DrainInto(dt, func(st Played) { got = append(got, st) }); stall != 0 ||
				len(got) != 1 || got[0] != (Played{DurationSec: dt, BitrateMbps: br}) {
				t.Fatalf("trial %d step %d: DrainInto emitted %v with stall %v, want one stretch of %v at %v", trial, k, got, stall, dt, br)
			}
			k++
			if last {
				break
			}
		}
		if n != k || fmt.Sprintf("%v", *a) != fmt.Sprintf("%v", b) {
			t.Fatalf("trial %d: PlaySteps(%v, %v, %v, %d) = %d steps, DrainInto took %d\n%v\n%v",
				trial, dt, level, stopAt, limit, n, k, *a, b)
		}
	}
}

// CompareBuffer's NaN and empty-queue answers follow the comparison
// operators: 0 for an unordered level, and the empty buffer is 0 s.
func TestCompareBufferEdges(t *testing.T) {
	p, _ := New(30)
	if p.CompareBuffer(0) != 0 || p.CompareBuffer(1) != -1 || p.CompareBuffer(-1) != 1 {
		t.Error("empty buffer does not compare as 0 s")
	}
	p.OnSegment(2, 1)
	if got := p.CompareBuffer(math.NaN()); got != 0 {
		t.Errorf("CompareBuffer(NaN) = %d, want 0", got)
	}
	if p.CompareBuffer(math.Inf(1)) != -1 || p.CompareBuffer(math.Inf(-1)) != 1 {
		t.Error("infinite levels misordered")
	}
}

// BenchmarkPacingStep is one single step of the pacing loop while the
// buffer sits above the threshold, as sim.Run's reference stepper takes
// every step: a 0.1 s drain of a 16-deep queue of 2 s segments, then
// the threshold comparison. A segment is pushed whenever the queue
// falls below 16.
func BenchmarkPacingStep(b *testing.B) {
	p, err := New(DefaultBufferThresholdSec)
	if err != nil {
		b.Fatal(err)
	}
	const depth = 16
	for i := 0; i < depth; i++ {
		p.OnSegment(2, float64(i%3)+1)
	}
	var playedSec float64
	emit := func(st Played) { playedSec += st.DurationSec }
	above := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.DrainInto(0.1, emit)
		if p.CompareBuffer(DefaultBufferThresholdSec) >= 0 {
			above++
		}
		if len(p.queue)-p.head < depth {
			p.OnSegment(2, float64(i%3)+1)
		}
	}
	benchSink = playedSec + float64(above)
}

// BenchmarkPacingRunStep is BenchmarkPacingStep's step taken the way
// sim.Run takes it, inside a PlaySteps run: the runs go up to the end
// of each head segment, testing the buffer against a level below it.
func BenchmarkPacingRunStep(b *testing.B) {
	p, err := New(DefaultBufferThresholdSec)
	if err != nil {
		b.Fatal(err)
	}
	const depth = 16
	for i := 0; i < depth; i++ {
		p.OnSegment(2, float64(i%3)+1)
	}
	var playedSec float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; {
		n, br := p.PlaySteps(0.1, 1, math.Inf(1), b.N-i)
		if n == 0 { // a step across two segments
			p.DrainInto(0.1, nil)
			n = 1
		}
		playedSec += float64(n) * br
		i += n
		if len(p.queue)-p.head < depth {
			p.OnSegment(2, float64(i%3)+1)
		}
	}
	benchSink = playedSec
}

var benchSink float64
