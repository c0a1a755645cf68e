// Package sim is the trace-driven streaming simulator of Section V: it
// couples a DASH manifest, a radio link, a playback buffer, an ABR
// algorithm, and the power and QoE models into one timeline, producing
// per-segment logs and session metrics (energy breakdown, mean QoE,
// rebuffering, switches). It is the engine behind every Fig. 5-7
// experiment.
package sim

import (
	"errors"
	"fmt"
	"math"

	"ecavs/internal/abr"
	"ecavs/internal/dash"
	"ecavs/internal/netsim"
	"ecavs/internal/power"
	"ecavs/internal/qoe"
)

// SessionParams are the optional knobs of one session, beside the
// manifest, link, algorithm and models Config names: early abandonment,
// vibration scaling, outages, metrics-only replay and the compiled QoE
// table. Config embeds them, so callers write flat
// selectors (cfg.AbandonAtSec = 90).
type SessionParams struct {
	// AbandonAtSec, when positive, ends the session once playback
	// reaches that point (the viewer quits early — the behaviour that
	// makes deep prefetching waste energy, cf. Hu & Cao, INFOCOM 2015).
	// Content downloaded but never played is reported in
	// Metrics.WastedMB.
	AbandonAtSec float64
	// VibrationScale multiplies the session's vibration signal
	// (Monte-Carlo viewer-context draws). Zero means 1 (unscaled). A nil
	// VibrationAt stays a still phone at any scale.
	VibrationScale float64
	// Outage, when non-nil, overlays a seeded up/down outage process on
	// the link (netsim.WithOutages): tunnels and dead zones on top of
	// whatever channel or trace the session replays. Outage counts and
	// down time are reported in Metrics.OutageCount / OutageSec.
	Outage *netsim.OutageConfig
	// MetricsOnly skips the per-segment SegmentLog accumulation:
	// Metrics.Segments stays nil while every scalar field is computed
	// exactly as in the full-log mode. Campaign runs simulating many
	// thousands of sessions use it to keep the per-session hot path
	// allocation-free; the default (full logs) is what cmd/experiments
	// and the figure pipelines consume.
	MetricsOnly bool
	// RungQoE, when non-nil, is a per-rung QoE table compiled from the
	// QoE model over the manifest ladder's bitrates
	// (qoe.Model.CompileRungs); the realized per-segment QoE is then
	// read from the table instead of re-evaluating the Eq. 1 curve
	// functions. The table path is bit-identical to the direct one, so
	// results do not change — only the per-segment math.Pow calls
	// disappear. Callers that replay many sessions over one ladder
	// (campaign, eval) compile once and share the table; nil keeps the
	// direct path and its allocation profile.
	RungQoE *qoe.RungTable
}

// Config describes one streaming session.
type Config struct {
	// SessionParams carries the optional knobs; its fields read and
	// write as if declared here.
	SessionParams

	// Manifest is the video being streamed.
	Manifest *dash.Manifest
	// Link is the radio link: a synthetic channel, or a trace replay
	// (trace.Compiled.Link).
	Link netsim.Link
	// VibrationAt reports the Eq. 5 vibration level at a session time;
	// nil means a perfectly still phone. A trace replay reads the
	// trace's accelerometer stream (trace.Compiled.Vibration).
	VibrationAt func(tSec float64) float64
	// Algorithm selects the bitrate per segment. NewSession resets it,
	// so every session starts from a clean per-session state.
	Algorithm abr.Algorithm
	// Power is the energy model.
	Power power.Model
	// QoE is the quality model.
	QoE qoe.Model
	// BufferThresholdSec is the download-pacing threshold beta
	// (default player.DefaultBufferThresholdSec).
	BufferThresholdSec float64
	// ResumeThresholdSec adds hysteresis to download pacing: once the
	// buffer fills past BufferThresholdSec, downloads stay paused until
	// it drains below this level. Zero means no hysteresis (resume as
	// soon as the buffer dips under the threshold). Must not exceed
	// BufferThresholdSec.
	ResumeThresholdSec float64
	// RRC, when non-nil, enables the LTE radio-state machine: transfer
	// promotions, tail energy after each burst, and idle paging power
	// are accounted in Metrics.RadioCtlJ.
	RRC *power.RRCConfig
	// TCPRampSec, when positive, applies a slow-start-style ramp to
	// each segment download: the rate climbs linearly to the link rate
	// over this many seconds, penalising very short segments.
	TCPRampSec float64
}

// SegmentLog records one task's decision and outcome: a full-log
// session's Segments are its decision trace.
type SegmentLog struct {
	// Index is the segment number.
	Index int
	// Rung and BitrateMbps identify the selected representation.
	Rung        int
	BitrateMbps float64
	// SizeMB is the downloaded payload.
	SizeMB float64
	// StartSec is the session time the download began.
	StartSec float64
	// DownloadSec is the download duration.
	DownloadSec float64
	// ThroughputMbps is the measured download rate.
	ThroughputMbps float64
	// MeanSignalDBm is the transfer-weighted signal strength.
	MeanSignalDBm float64
	// BufferSec, SignalDBm and Vibration are the buffer level, signal
	// strength and vibration level the decision saw.
	BufferSec float64
	SignalDBm float64
	Vibration float64
	// StallSec is the rebuffering attributed to this segment.
	StallSec float64
	// QoE is the segment's Eq. 1 quality.
	QoE float64
}

// Metrics summarises one session.
type Metrics struct {
	// Algorithm is the policy's display name.
	Algorithm string
	// Segments holds the per-task logs.
	Segments []SegmentLog
	// PlaybackJ, DownloadJ, RebufferJ, StartupJ, RadioCtlJ decompose
	// the session energy; TotalJ is their sum. RadioCtlJ covers RRC
	// promotion, tail, and idle paging energy (zero unless Config.RRC
	// is set).
	PlaybackJ, DownloadJ, RebufferJ, StartupJ, RadioCtlJ float64
	// MeanQoE is the average per-segment Eq. 1 quality.
	MeanQoE float64
	// MeanBitrateMbps is the duration-weighted mean selected bitrate.
	MeanBitrateMbps float64
	// DownloadedMB is the total payload fetched.
	DownloadedMB float64
	// WastedMB is payload downloaded but never played (early quit).
	WastedMB float64
	// Abandoned reports whether the viewer quit before the end.
	Abandoned bool
	// RebufferSec is total mid-stream stalling; StartupSec is the
	// initial join delay.
	RebufferSec, StartupSec float64
	// Switches counts bitrate changes between consecutive segments.
	Switches int
	// DurationSec is the session wall-clock length.
	DurationSec float64
	// OutageCount and OutageSec report the injected outage process
	// (zero unless Config.Outage is set).
	OutageCount int
	OutageSec   float64
}

// TotalJ returns the session's total energy.
func (m *Metrics) TotalJ() float64 {
	return m.PlaybackJ + m.DownloadJ + m.RebufferJ + m.StartupJ + m.RadioCtlJ
}

// ExtraJ returns the energy above the given base (Section V-B's
// base/extra split). Negative differences clamp to zero.
func (m *Metrics) ExtraJ(baseJ float64) float64 {
	if d := m.TotalJ() - baseJ; d > 0 {
		return d
	}
	return 0
}

// Config validation errors.
var (
	ErrNilManifest  = errors.New("sim: nil manifest")
	ErrNilLink      = errors.New("sim: nil link")
	ErrNilAlgorithm = errors.New("sim: nil algorithm")
	ErrBadRung      = errors.New("sim: algorithm selected an invalid rung")
)

// stepSec is the integration step of the session timeline, while a
// segment downloads and while the full buffer idles the radio: 100 ms
// is well below both the 2 s segment duration and the channel
// coherence time.
const stepSec = 0.1

// maxStallSec bounds how long a download waits on a dead link before
// giving up.
const maxStallSec = 120

// runSteps caps the steps of one run, and so the steps a link's Hold
// counts ahead.
const runSteps = 256

// Run simulates one full streaming session: it drives a Session over
// cfg.Link in 0.1 s virtual-time steps, pacing downloads at the buffer
// threshold and metering radio power at the link's signal while a
// segment transfers. Steps go in runs between events (the link's next
// change, the end of the head segment, a transfer's final partial
// step, the buffer reaching the resume level, the quit point); each
// run repeats its steps' float additions in step order, so a run and
// its steps taken one at a time give the same bits.
func Run(cfg Config) (*Metrics, error) {
	s, err := NewSession(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Link == nil {
		return nil, ErrNilLink
	}
	r := runner{
		s:         s,
		threshold: s.cfg.BufferThresholdSec,
		resume:    cfg.ResumeThresholdSec,
		stopAt:    math.Inf(1),
		rampSec:   cfg.TCPRampSec,
	}
	if r.resume <= 0 {
		r.resume = r.threshold
	}
	if r.resume > r.threshold {
		return nil, errors.New("sim: resume threshold exceeds buffer threshold")
	}
	if cfg.AbandonAtSec > 0 {
		r.stopAt = cfg.AbandonAtSec
	}
	if cfg.RRC != nil {
		r.rrc, err = power.NewRRCTracker(*cfg.RRC)
		if err != nil {
			return nil, fmt.Errorf("sim: rrc: %w", err)
		}
	}
	vibAt := cfg.VibrationAt
	if vibAt == nil {
		vibAt = func(float64) float64 { return 0 }
	} else if scale := cfg.VibrationScale; scale > 0 && scale != 1 {
		base := vibAt
		vibAt = func(t float64) float64 { return scale * base(t) }
	}
	r.link = cfg.Link
	var outage *netsim.OutageLink
	if cfg.Outage != nil {
		outage, err = netsim.WithOutages(r.link, *cfg.Outage)
		if err != nil {
			return nil, fmt.Errorf("sim: outage: %w", err)
		}
		r.link = outage
	}
	link := r.link
	startTime := link.Now()

	var d Decision
	for i := 0; i < cfg.Manifest.SegmentCount() && !s.Abandoned(); i++ {
		r.pace()
		if s.Abandoned() {
			break
		}

		at := link.Now() - startTime
		if err := s.Decide(&d, i, at, s.BufferSec(), link.SignalDBm(), vibAt(at)); err != nil {
			return nil, err
		}
		if r.rrc != nil {
			// Promotion latency delays the transfer; playback continues.
			if latency := r.rrc.StartTransfer(); latency > 0 {
				s.Play(latency)
				link.Advance(latency)
			}
		}
		sizeMB := d.SegmentSizesMB[d.Rung]
		res, err := r.transfer(sizeMB)
		if err != nil {
			return nil, fmt.Errorf("sim: segment %d download: %w", i, err)
		}
		if r.rrc != nil {
			r.rrc.EndTransfer()
		}
		s.Deliver(&d, d.Rung, sizeMB, res)
	}

	m := s.Finish(r.idle)
	if r.rrc != nil {
		m.RadioCtlJ = r.rrc.TotalJ()
	}
	if outage != nil {
		m.OutageCount, m.OutageSec = outage.Outages()
	}
	m.DurationSec = link.Now() - startTime
	return m, nil
}

// runner is Run's clock and transport: the link, the RRC tracker and
// the pacing levels around one Session.
type runner struct {
	s    *Session
	link netsim.Link
	rrc  *power.RRCTracker // nil: no RRC

	threshold, resume float64 // pacing levels; resume == threshold without hysteresis
	stopAt            float64 // AbandonAtSec, or +Inf for a viewer who stays
	rampSec           float64
}

// idle moves the link and RRC clocks dt seconds with the radio off.
func (r *runner) idle(dt float64) {
	r.link.Advance(dt)
	if r.rrc != nil {
		r.rrc.AdvanceIdle(dt)
	}
}

// pace idles the radio (playback continues) while the buffer is above
// the threshold; with hysteresis it stays paused until the buffer
// drains to the resume level. The buffer is compared, never summed:
// CompareBuffer is exact and O(1) almost always, and without
// hysteresis one comparison answers both tests. The idle steps go in
// runs that end at the head segment's end, at the resume level and at
// the quit point; a step that crosses segments or stalls is taken
// alone.
func (r *runner) pace() {
	s := r.s
	paused := false
	for !s.Abandoned() {
		c := s.pl.CompareBuffer(r.threshold)
		if c >= 0 {
			paused = true
		}
		if paused && r.resume != r.threshold {
			c = s.pl.CompareBuffer(r.resume)
		}
		if !paused || c <= 0 {
			return
		}
		// Paused, so each further step needs the buffer above the
		// resume level (the threshold, without hysteresis).
		n, br := s.pl.PlaySteps(stepSec, r.resume, r.stopAt, runSteps)
		if n == 0 {
			s.Play(stepSec)
			r.idle(stepSec)
			continue
		}
		// Play's playback meter for the n steps, the step's energy
		// computed once; they stall for 0 s, so nothing else moves.
		playJ, playbackJ := s.cfg.Power.PlaybackPowerW(br)*stepSec, s.m.PlaybackJ
		for range n {
			playbackJ += playJ
		}
		s.m.PlaybackJ = playbackJ
		r.link.AdvanceSteps(n, stepSec)
		if r.rrc != nil {
			for range n {
				r.rrc.AdvanceIdle(stepSec)
			}
		}
	}
}

// transfer downloads sizeMB over the link, advancing it as time passes
// and metering every step with the radio on at the step's signal. A
// step on a dead link moves nothing but is metered all the same: the
// radio stays on and playback drains. A positive rampSec applies a
// TCP-slow-start-style ramp: the achievable rate scales linearly from
// zero to the link rate over the first rampSec seconds of the
// transfer, so short transfers (small segments) never reach full
// speed, the classic reason longer DASH segments use a link more
// efficiently.
//
// Whole steps at one rate and signal go in runs, up to the link's next
// change, the end of the head segment or the final partial step; ramp
// steps, dead steps, the partial step and a step that crosses segments,
// starts playback or stalls are taken alone.
func (r *runner) transfer(sizeMB float64) (netsim.Result, error) {
	if sizeMB <= 0 {
		return netsim.Result{}, nil
	}
	s := r.s
	var (
		elapsed   float64
		sigWeight float64
		stalled   float64
		remaining = sizeMB
	)
	for remaining > 1e-12 {
		n, th, sig := r.link.Hold(stepSec, runSteps)
		if r.rampSec > 0 && elapsed < r.rampSec {
			// Slow start: average rate over the next step, linearised.
			frac := (elapsed + stepSec/2) / r.rampSec
			if frac > 1 {
				frac = 1
			}
			th *= frac
			n = 0 // a ramp step is taken alone
		}
		if th <= 0 {
			stalled += stepSec
			if stalled > maxStallSec {
				return netsim.Result{}, netsim.ErrStalledLink
			}
			s.Transfer(stepSec, sig)
			r.link.Advance(stepSec)
			elapsed += stepSec
			continue
		}
		stalled = 0
		moved := th * stepSec
		// The whole steps the hold allows, each with more than 1e-12 MB
		// left before it and moving no more than is left.
		k := 0
		for rest := remaining; k < n && rest > 1e-12 && !(moved > rest); rest -= moved {
			k++
		}
		k, br := s.pl.PlaySteps(stepSec, math.Inf(-1), math.Inf(1), k)
		if k == 0 {
			dt := stepSec
			if moved > remaining {
				moved = remaining
				dt = remaining / th
			}
			s.Transfer(dt, sig)
			sigWeight += sig * moved
			remaining -= moved
			r.link.Advance(dt)
			elapsed += dt
			continue
		}
		// The k steps' arithmetic, each accumulator's terms added in
		// step order: Transfer's radio and playback meters, with the
		// step's energy computed once, and the transfer's own sums.
		// A step the head covers stalls for 0 s, so it moves neither
		// RebufferJ nor the segment's stall.
		radioJ := s.cfg.Power.RadioPowerW(sig) * stepSec
		playJ := s.cfg.Power.PlaybackPowerW(br) * stepSec
		sigMoved := sig * moved
		downloadJ, playbackJ := s.m.DownloadJ, s.m.PlaybackJ
		for range k {
			downloadJ += radioJ
			playbackJ += playJ
			sigWeight += sigMoved
			remaining -= moved
			elapsed += stepSec
		}
		s.m.DownloadJ, s.m.PlaybackJ = downloadJ, playbackJ
		r.link.AdvanceSteps(k, stepSec)
	}
	if elapsed <= 0 {
		elapsed = 1e-9
	}
	return netsim.Result{
		DurationSec:        elapsed,
		MeanSignalDBm:      sigWeight / sizeMB,
		MeanThroughputMBps: sizeMB / elapsed,
	}, nil
}
