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
	"ecavs/internal/power"
	"ecavs/internal/qoe"
)

// SessionParams are the optional knobs of one session, beside the
// manifest, link, algorithm and models Config names: early abandonment,
// vibration scaling, outages, metrics-only replay, decision recording
// and the compiled QoE table. Config embeds them, so callers write flat
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

// Run simulates one full streaming session: it drives a Session over
// cfg.Link in 0.1 s virtual-time steps, pacing downloads at the buffer
// threshold and metering radio power at the link's signal while a
// segment transfers.
func Run(cfg Config) (*Metrics, error) {
	s, err := NewSession(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Link == nil {
		return nil, ErrNilLink
	}
	threshold := s.cfg.BufferThresholdSec
	resume := cfg.ResumeThresholdSec
	if resume <= 0 {
		resume = threshold
	}
	if resume > threshold {
		return nil, errors.New("sim: resume threshold exceeds buffer threshold")
	}
	var rrc *power.RRCTracker
	if cfg.RRC != nil {
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
		outage, err = netsim.WithOutages(link, *cfg.Outage)
		if err != nil {
			return nil, fmt.Errorf("sim: outage: %w", err)
		}
		link = outage
	}
	startTime := link.Now()

	// The closures are built once per session: onStep meters a download
	// step with the radio on; idle moves the clocks while it is off.
	onStep := func(step netsim.DownloadStep) {
		s.Transfer(step.Dt, step.SignalDBm)
	}
	idle := func(dt float64) {
		link.Advance(dt)
		if rrc != nil {
			rrc.AdvanceIdle(dt)
		}
	}
	paused := false
	for i := 0; i < cfg.Manifest.SegmentCount() && !s.Abandoned(); i++ {
		// Pace downloads: idle (radio silent, playback continues)
		// while the buffer is above the threshold; with hysteresis,
		// stay paused until it drains to the resume level. The
		// buffer is compared, never summed: CompareBuffer is exact
		// and O(1) almost always, and without hysteresis one
		// comparison answers both tests.
		for !s.Abandoned() {
			c := s.pl.CompareBuffer(threshold)
			if c >= 0 {
				paused = true
			}
			if paused && resume != threshold {
				c = s.pl.CompareBuffer(resume)
			}
			if !paused || c <= 0 {
				paused = false
				break
			}
			s.Play(idleStepSec)
			idle(idleStepSec)
		}
		if s.Abandoned() {
			break
		}

		at := link.Now() - startTime
		d, err := s.Decide(i, at, s.BufferSec(), link.SignalDBm(), vibAt(at))
		if err != nil {
			return nil, err
		}
		if rrc != nil {
			// Promotion latency delays the transfer; playback continues.
			if latency := rrc.StartTransfer(); latency > 0 {
				s.Play(latency)
				link.Advance(latency)
			}
		}
		sizeMB := d.SegmentSizesMB[d.Rung]
		res, err := netsim.DownloadRamped(link, sizeMB, cfg.TCPRampSec, onStep)
		if err != nil {
			return nil, fmt.Errorf("sim: segment %d download: %w", i, err)
		}
		if rrc != nil {
			rrc.EndTransfer()
		}
		s.Deliver(d, d.Rung, sizeMB, res)
	}

	m := s.Finish(idle)
	if rrc != nil {
		m.RadioCtlJ = rrc.TotalJ()
	}
	if outage != nil {
		m.OutageCount, m.OutageSec = outage.Outages()
	}
	m.DurationSec = link.Now() - startTime
	return m, nil
}
