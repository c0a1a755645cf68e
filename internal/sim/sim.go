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

	"ecavs/internal/abr"
	"ecavs/internal/dash"
	"ecavs/internal/netsim"
	"ecavs/internal/player"
	"ecavs/internal/power"
	"ecavs/internal/qoe"
)

// SessionParams are the session knobs shared verbatim by every way of
// launching a session — the synthetic-link Config, the trace-replay
// TraceSession, and the public facade's options. They are embedded, so
// callers keep writing flat selectors (cfg.AbandonAtSec = 90) while
// the definition, documentation, and defaults live in exactly one
// place.
type SessionParams struct {
	// AbandonAtSec, when positive, ends the session once playback
	// reaches that point (the viewer quits early — the behaviour that
	// makes deep prefetching waste energy, cf. Hu & Cao, INFOCOM 2015).
	// Content downloaded but never played is reported in
	// Metrics.WastedMB.
	AbandonAtSec float64
	// VibrationScale multiplies the session's vibration signal
	// (Monte-Carlo viewer-context draws). Zero means 1 (unscaled). In a
	// TraceSession, ForceVibration takes precedence.
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
	// Recorder, when non-nil, receives one DecisionEvent per segment —
	// the sampled decision trace behind the telemetry layer's NDJSON
	// output. Nil (the default) keeps the hot path untouched: the only
	// cost is one pointer comparison per segment, preserving the
	// 18-alloc session pin and bit-identical campaign determinism.
	Recorder *DecisionRecorder
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
	// SessionParams carries the knobs shared with TraceSession and the
	// facade; its fields read and write as if declared here.
	SessionParams

	// Manifest is the video being streamed.
	Manifest *dash.Manifest
	// Link is the radio link (synthetic channel or trace replay).
	Link netsim.Link
	// VibrationAt reports the Eq. 5 vibration level at a session time;
	// nil means a perfectly still phone.
	VibrationAt func(tSec float64) float64
	// Algorithm selects the bitrate per segment.
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

// SegmentLog records one task's outcome.
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
	// Vibration is the vibration level at decision time.
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
	// SessionQoE is the recency- and oscillation-aware session score
	// (qoe.SessionModel with defaults).
	SessionQoE float64
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

// idleStepSec is the integration step while the buffer is full and the
// radio idles.
const idleStepSec = 0.1

// Run simulates one full streaming session.
func Run(cfg Config) (*Metrics, error) {
	if cfg.Manifest == nil {
		return nil, ErrNilManifest
	}
	if cfg.Link == nil {
		return nil, ErrNilLink
	}
	if cfg.Algorithm == nil {
		return nil, ErrNilAlgorithm
	}
	if err := cfg.Power.Validate(); err != nil {
		return nil, fmt.Errorf("sim: power model: %w", err)
	}
	if err := cfg.QoE.Validate(); err != nil {
		return nil, fmt.Errorf("sim: qoe model: %w", err)
	}
	threshold := cfg.BufferThresholdSec
	if threshold <= 0 {
		threshold = player.DefaultBufferThresholdSec
	}
	resume := cfg.ResumeThresholdSec
	if resume <= 0 {
		resume = threshold
	}
	if resume > threshold {
		return nil, errors.New("sim: resume threshold exceeds buffer threshold")
	}
	var rrc *power.RRCTracker
	if cfg.RRC != nil {
		var err error
		rrc, err = power.NewRRCTracker(*cfg.RRC)
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
	link := cfg.Link
	var outage *netsim.OutageLink
	if cfg.Outage != nil {
		var err error
		outage, err = netsim.WithOutages(link, *cfg.Outage)
		if err != nil {
			return nil, fmt.Errorf("sim: outage: %w", err)
		}
		link = outage
	}

	pl, err := player.New(threshold)
	if err != nil {
		return nil, err
	}
	ladder := cfg.Manifest.Ladder()
	if cfg.RungQoE != nil {
		if cfg.RungQoE.Model() != cfg.QoE {
			return nil, errors.New("sim: rung table compiled from a different QoE model")
		}
		if cfg.RungQoE.Len() != len(ladder) {
			return nil, fmt.Errorf("sim: rung table has %d rungs for a %d-rung ladder", cfg.RungQoE.Len(), len(ladder))
		}
		for j := range ladder {
			if cfg.RungQoE.Bitrate(j) != ladder[j].BitrateMbps {
				return nil, fmt.Errorf("sim: rung table bitrate %d mismatches the ladder", j)
			}
		}
	}
	n := cfg.Manifest.SegmentCount()
	m := &Metrics{Algorithm: cfg.Algorithm.Name()}
	if !cfg.MetricsOnly {
		m.Segments = make([]SegmentLog, 0, n)
	}
	startTime := link.Now()
	prevRung := -1

	// Per-session scratch, sized once so the per-segment loop stays
	// allocation-free: the fetched payload per segment (abandonment
	// waste attribution) and the per-segment QoE scores for the session
	// model. The rung-size vector handed to the algorithm is the
	// manifest's internal row (read-only contract), so no per-session
	// copy is needed. The scalar accumulators replace the post-loop
	// passes over Metrics.Segments; they add the same terms in the same
	// order, so the results are bit-identical to the log-driven
	// computation.
	var (
		segSizes = make([]float64, 0, n)
		scores   = make([]qoe.SegmentScore, 0, n)

		qoeSum, brWeighted, durSum float64
	)

	// drain plays dt seconds of buffered video, integrating decode and
	// stall power.
	onPlayed := func(st player.Played) {
		m.PlaybackJ += cfg.Power.PlaybackPowerW(st.BitrateMbps) * st.DurationSec
	}
	drain := func(dt float64) (stallSec float64) {
		stall := pl.DrainInto(dt, onPlayed)
		if stall > 0 {
			m.RebufferJ += cfg.Power.RebufferPowerW * stall
		}
		return stall
	}

	// onStep integrates radio power over one download step; segStall
	// accumulates the stall attributed to the in-flight segment. Both
	// live outside the loop so the closure is built once per session.
	var segStall float64
	onStep := func(step netsim.DownloadStep) {
		m.DownloadJ += cfg.Power.RadioPowerW(step.SignalDBm) * step.Dt
		segStall += drain(step.Dt)
	}

	abandoned := func() bool {
		return cfg.AbandonAtSec > 0 && pl.PlayedSec() >= cfg.AbandonAtSec
	}
	paused := false
	for i := 0; i < n && !abandoned(); i++ {
		// Pace downloads: idle (radio silent, playback continues)
		// while the buffer is above the threshold; with hysteresis,
		// stay paused until it drains to the resume level. The
		// buffer is compared, never summed: CompareBuffer is exact
		// and O(1) almost always, and without hysteresis one
		// comparison answers both tests.
		for !abandoned() {
			c := pl.CompareBuffer(threshold)
			if c >= 0 {
				paused = true
			}
			if paused && resume != threshold {
				c = pl.CompareBuffer(resume)
			}
			if !paused || c <= 0 {
				paused = false
				break
			}
			drain(idleStepSec)
			link.Advance(idleStepSec)
			if rrc != nil {
				rrc.AdvanceIdle(idleStepSec)
			}
		}
		if abandoned() {
			break
		}

		now := link.Now()
		dur, err := cfg.Manifest.SegmentDuration(i)
		if err != nil {
			return nil, err
		}
		sizes, err := cfg.Manifest.SegmentSizes(i)
		if err != nil {
			return nil, err
		}
		vib := vibAt(now - startTime)
		ctx := abr.Context{
			SegmentIndex:       i,
			Ladder:             ladder,
			SegmentSizesMB:     sizes,
			SegmentDurationSec: dur,
			PrevRung:           prevRung,
			BufferSec:          pl.BufferSec(),
			BufferThresholdSec: threshold,
			SignalDBm:          link.SignalDBm(),
			VibrationLevel:     vib,
		}
		rung, err := cfg.Algorithm.ChooseRung(ctx)
		if err != nil {
			return nil, fmt.Errorf("sim: segment %d: %w", i, err)
		}
		if rung < 0 || rung >= len(ladder) {
			return nil, fmt.Errorf("%w: %d of %d at segment %d", ErrBadRung, rung, len(ladder), i)
		}

		segStall = 0
		if rrc != nil {
			// Promotion latency delays the transfer; playback continues.
			if latency := rrc.StartTransfer(); latency > 0 {
				segStall += drain(latency)
				link.Advance(latency)
			}
		}
		res, err := netsim.DownloadRamped(link, sizes[rung], cfg.TCPRampSec, onStep)
		if err != nil {
			return nil, fmt.Errorf("sim: segment %d download: %w", i, err)
		}
		if rrc != nil {
			rrc.EndTransfer()
		}
		pl.OnSegment(dur, ladder[rung].BitrateMbps)

		thMbps := res.MeanThroughputMBps * 8
		cfg.Algorithm.ObserveDownload(thMbps)

		var segQoE float64
		if cfg.RungQoE != nil {
			segQoE = cfg.RungQoE.SegmentQoE(rung, prevRung, vib, segStall)
		} else {
			prevBitrate := 0.0
			if prevRung >= 0 {
				prevBitrate = ladder[prevRung].BitrateMbps
			}
			segQoE = cfg.QoE.SegmentQoE(qoe.Segment{
				BitrateMbps:     ladder[rung].BitrateMbps,
				PrevBitrateMbps: prevBitrate,
				Vibration:       vib,
				RebufferSec:     segStall,
			})
		}
		if cfg.Recorder != nil {
			cfg.Recorder.Record(DecisionEvent{
				Segment:     i,
				Rung:        rung,
				BitrateMbps: ladder[rung].BitrateMbps,
				BufferSec:   ctx.BufferSec,
				SignalDBm:   ctx.SignalDBm,
				Vibration:   vib,
				PowerW:      cfg.Power.PlaybackPowerW(ladder[rung].BitrateMbps) + cfg.Power.RadioPowerW(ctx.SignalDBm),
				QoE:         segQoE,
			})
		}
		if !cfg.MetricsOnly {
			m.Segments = append(m.Segments, SegmentLog{
				Index:          i,
				Rung:           rung,
				BitrateMbps:    ladder[rung].BitrateMbps,
				SizeMB:         sizes[rung],
				StartSec:       now - startTime,
				DownloadSec:    res.DurationSec,
				ThroughputMbps: thMbps,
				MeanSignalDBm:  res.MeanSignalDBm,
				Vibration:      vib,
				StallSec:       segStall,
				QoE:            segQoE,
			})
		}
		segSizes = append(segSizes, sizes[rung])
		scores = append(scores, qoe.SegmentScore{StartSec: now - startTime, QoE: segQoE})
		qoeSum += segQoE
		brWeighted += ladder[rung].BitrateMbps * dur
		durSum += dur
		m.DownloadedMB += sizes[rung]
		if prevRung >= 0 && rung != prevRung {
			m.Switches++
		}
		prevRung = rung
	}

	if abandoned() {
		// The viewer quit: whatever sits in the buffer was downloaded
		// for nothing. Attribute the trailing bufferSec seconds of
		// downloaded content (FIFO buffer => the most recent segments)
		// as wasted payload. Segments are fetched in order, so segment
		// k's payload is segSizes[k].
		m.Abandoned = true
		remaining := pl.BufferSec()
		for i := len(segSizes) - 1; i >= 0 && remaining > 1e-9; i-- {
			dur, err := cfg.Manifest.SegmentDuration(i)
			if err != nil {
				return nil, err
			}
			if dur <= 0 {
				continue
			}
			take := dur
			if take > remaining {
				take = remaining
			}
			m.WastedMB += segSizes[i] * take / dur
			remaining -= take
		}
	} else {
		// Play out the remaining buffer.
		pl.FinishRemainingInto(func(st player.Played) {
			m.PlaybackJ += cfg.Power.PlaybackPowerW(st.BitrateMbps) * st.DurationSec
			link.Advance(st.DurationSec)
			if rrc != nil {
				rrc.AdvanceIdle(st.DurationSec)
			}
		})
	}
	if rrc != nil {
		m.RadioCtlJ = rrc.TotalJ()
	}
	if outage != nil {
		m.OutageCount, m.OutageSec = outage.Outages()
	}

	m.StartupSec = pl.StartupSec()
	m.StartupJ = cfg.Power.RebufferPowerW * m.StartupSec
	m.RebufferSec = pl.StallSec()
	m.DurationSec = link.Now() - startTime

	if len(scores) > 0 {
		m.MeanQoE = qoeSum / float64(len(scores))
		sessionQoE, err := qoe.DefaultSession().Score(scores, m.StartupSec)
		if err != nil {
			return nil, err
		}
		m.SessionQoE = sessionQoE
	}
	if durSum > 0 {
		m.MeanBitrateMbps = brWeighted / durSum
	}
	return m, nil
}
