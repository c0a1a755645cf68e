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

// Session is one streaming session's state: the decide → download →
// play timeline of Section V, which Run, multisim and the HTTP client
// each drive with their own clock and transport. It owns the player,
// each decision's abr.Context, the Eq. 6 power and Eq. 1 QoE meters,
// the segment log and decision recorder, the abandonment waste and the
// final Metrics. Its driver says how long playback ran, with the radio
// idle (Play) or on (Transfer), and what each download delivered
// (Deliver). Decisions may run ahead of deliveries, which come in
// segment order.
type Session struct {
	m   Metrics
	cfg Config        // validated, threshold resolved; only its session part is read
	pl  player.Player // by value: one heap object per session

	// issuedSeg and issuedRung are the newest issued segment and the
	// PrevRung decisions see: chosen while in flight, delivered once
	// in. prevRung is the last delivered rung (switches, Eq. 1).
	// segStall, the stall since the last decision or delivery, goes
	// to the next delivery.
	issuedSeg, issuedRung, prevRung int
	segStall                        float64

	// Scratch sized once, so the per-segment path stays allocation-free:
	// delivered payloads (abandonment waste) and QoE scores (session
	// model). The sums add the same terms in the same order as passes
	// over Metrics.Segments would.
	segSizes                   []float64
	scores                     []qoe.SegmentScore
	qoeSum, brWeighted, durSum float64
}

// Decision is one issued segment: the context its rung was chosen in.
type Decision struct {
	abr.Context
	// Rung is the chosen rung; AtSec the session time of the decision.
	Rung  int
	AtSec float64
}

// NewSession validates and keeps the session's part of cfg: Manifest,
// Algorithm, Power, QoE, BufferThresholdSec, and the SessionParams but
// VibrationScale and Outage. The rest of cfg belongs to the driver. It
// resets the algorithm, so every driver starts each session from a
// clean algorithm state without resetting it itself.
func NewSession(cfg Config) (*Session, error) {
	if cfg.Manifest == nil {
		return nil, ErrNilManifest
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
	pl, err := player.New(threshold)
	if err != nil {
		return nil, err
	}
	ladder := cfg.Manifest.Ladder()
	if rt := cfg.RungQoE; rt != nil {
		if rt.Model() != cfg.QoE {
			return nil, errors.New("sim: rung table compiled from a different QoE model")
		}
		if rt.Len() != len(ladder) {
			return nil, fmt.Errorf("sim: rung table has %d rungs for a %d-rung ladder", rt.Len(), len(ladder))
		}
		for j := range ladder {
			if rt.Bitrate(j) != ladder[j].BitrateMbps {
				return nil, fmt.Errorf("sim: rung table bitrate %d mismatches the ladder", j)
			}
		}
	}
	cfg.BufferThresholdSec = threshold
	n := min(cfg.Manifest.SegmentCount(), 1<<12) // bounded: a count read off an MPD reserves no memory
	s := &Session{
		m:          Metrics{Algorithm: cfg.Algorithm.Name()},
		cfg:        cfg,
		pl:         *pl,
		issuedSeg:  -1,
		issuedRung: -1,
		prevRung:   -1,
		segSizes:   make([]float64, 0, n),
		scores:     make([]qoe.SegmentScore, 0, n),
	}
	if !cfg.MetricsOnly {
		s.m.Segments = make([]SegmentLog, 0, n)
	}
	cfg.Algorithm.Reset()
	return s, nil
}

// NewEvalSession returns a metrics-only session over man metered with
// the evaluation models ecavs.Stream uses, power.EvalModel and
// qoe.Default: the session of a multisim client and of an HTTP client.
func NewEvalSession(man *dash.Manifest, alg abr.Algorithm, thresholdSec float64) (*Session, error) {
	return NewSession(Config{
		SessionParams:      SessionParams{MetricsOnly: true},
		Manifest:           man,
		Algorithm:          alg,
		Power:              power.EvalModel(),
		QoE:                qoe.Default(),
		BufferThresholdSec: thresholdSec,
	})
}

// BufferSec returns the buffered playback time.
func (s *Session) BufferSec() float64 { return s.pl.BufferSec() }

// ShouldDownload reports whether the buffer is below the threshold.
func (s *Session) ShouldDownload() bool { return s.pl.ShouldDownload() }

// ElapsedSec returns the playback timeline: startup, playback, stalls.
func (s *Session) ElapsedSec() float64 {
	return s.pl.StartupSec() + s.pl.PlayedSec() + s.pl.StallSec()
}

// Abandoned reports whether playback has reached AbandonAtSec.
func (s *Session) Abandoned() bool {
	return s.cfg.AbandonAtSec > 0 && s.pl.PlayedSec() >= s.cfg.AbandonAtSec
}

// Decide asks the algorithm for segment seg's rung, given what the
// driver's clock and sensors read: the session time, the buffer the
// decision sees (the player's, or a projection), signal and vibration.
func (s *Session) Decide(seg int, atSec, bufferSec, signalDBm, vibration float64) (Decision, error) {
	dur, err := s.cfg.Manifest.SegmentDuration(seg)
	if err != nil {
		return Decision{}, err
	}
	sizes, _ := s.cfg.Manifest.SegmentSizes(seg) // same bounds as SegmentDuration
	ladder := s.cfg.Manifest.Ladder()
	d := Decision{AtSec: atSec, Context: abr.Context{
		SegmentIndex:       seg,
		Ladder:             ladder,
		SegmentSizesMB:     sizes,
		SegmentDurationSec: dur,
		PrevRung:           s.issuedRung,
		BufferSec:          bufferSec,
		BufferThresholdSec: s.cfg.BufferThresholdSec,
		SignalDBm:          signalDBm,
		VibrationLevel:     vibration,
	}}
	rung, err := s.cfg.Algorithm.ChooseRung(d.Context)
	if err != nil {
		return Decision{}, fmt.Errorf("sim: segment %d: %w", seg, err)
	}
	if rung < 0 || rung >= len(ladder) {
		return Decision{}, fmt.Errorf("%w: %d of %d at segment %d", ErrBadRung, rung, len(ladder), seg)
	}
	d.Rung = rung
	s.issuedSeg, s.issuedRung, s.segStall = seg, rung, 0
	return d, nil
}

// Play advances playback by dt seconds with the radio idle, metering
// decode and stall power; it returns the stall within dt. Time before
// the first delivery is startup, not stall.
func (s *Session) Play(dt float64) (stallSec float64) {
	stall := s.pl.DrainInto(dt, func(st player.Played) {
		s.m.PlaybackJ += s.cfg.Power.PlaybackPowerW(st.BitrateMbps) * st.DurationSec
	})
	if stall > 0 {
		s.m.RebufferJ += s.cfg.Power.RebufferPowerW * stall
	}
	s.segStall += stall
	return stall
}

// Transfer is Play with the radio on at signalDBm: the Eq. 6 radio term
// is metered over dt too.
func (s *Session) Transfer(dt, signalDBm float64) (stallSec float64) {
	s.m.DownloadJ += s.cfg.Power.RadioPowerW(signalDBm) * dt
	return s.Play(dt)
}

// Deliver queues decision d's segment, fetched at rung with sizeMB of
// payload as dl reports, for playback; the algorithm observes the
// throughput, and the segment's QoE, log and decision event are kept.
func (s *Session) Deliver(d Decision, rung int, sizeMB float64, dl netsim.Result) {
	br := d.Ladder[rung].BitrateMbps
	thMbps := dl.MeanThroughputMBps * 8
	s.pl.OnSegment(d.SegmentDurationSec, br)
	s.cfg.Algorithm.ObserveDownload(thMbps)

	var segQoE float64
	if rt := s.cfg.RungQoE; rt != nil {
		segQoE = rt.SegmentQoE(rung, s.prevRung, d.VibrationLevel, s.segStall)
	} else {
		prevBitrate := 0.0
		if s.prevRung >= 0 {
			prevBitrate = d.Ladder[s.prevRung].BitrateMbps
		}
		segQoE = s.cfg.QoE.SegmentQoE(qoe.Segment{
			BitrateMbps:     br,
			PrevBitrateMbps: prevBitrate,
			Vibration:       d.VibrationLevel,
			RebufferSec:     s.segStall,
		})
	}
	if s.cfg.Recorder != nil {
		s.cfg.Recorder.Record(DecisionEvent{
			Segment:     d.SegmentIndex,
			Rung:        rung,
			BitrateMbps: br,
			BufferSec:   d.BufferSec,
			SignalDBm:   d.SignalDBm,
			Vibration:   d.VibrationLevel,
			PowerW:      s.cfg.Power.PlaybackPowerW(br) + s.cfg.Power.RadioPowerW(d.SignalDBm),
			QoE:         segQoE,
		})
	}
	if !s.cfg.MetricsOnly {
		s.m.Segments = append(s.m.Segments, SegmentLog{
			Index:          d.SegmentIndex,
			Rung:           rung,
			BitrateMbps:    br,
			SizeMB:         sizeMB,
			StartSec:       d.AtSec,
			DownloadSec:    dl.DurationSec,
			ThroughputMbps: thMbps,
			MeanSignalDBm:  dl.MeanSignalDBm,
			Vibration:      d.VibrationLevel,
			StallSec:       s.segStall,
			QoE:            segQoE,
		})
	}
	s.segSizes = append(s.segSizes, sizeMB)
	s.scores = append(s.scores, qoe.SegmentScore{StartSec: d.AtSec, QoE: segQoE})
	s.qoeSum += segQoE
	s.brWeighted += br * d.SegmentDurationSec
	s.durSum += d.SegmentDurationSec
	s.m.DownloadedMB += sizeMB
	if s.prevRung >= 0 && rung != s.prevRung {
		s.m.Switches++
	}
	s.prevRung = rung
	if d.SegmentIndex == s.issuedSeg {
		s.issuedRung = rung
	}
	s.segStall = 0
}

// Finish returns the session's Metrics. An abandoned session counts its
// buffer as waste; any other plays it out with the radio idle, passing
// each stretch to advance (if non-nil) to move the driver's clock.
// DurationSec is ElapsedSec; a driver with a clock overwrites it.
func (s *Session) Finish(advance func(dt float64)) *Metrics {
	m := &s.m
	if s.Abandoned() {
		// The viewer quit: the buffered content, the tails of the
		// newest segments (FIFO), was downloaded for nothing. Segments
		// are delivered in order, so segment k's payload is segSizes[k].
		m.Abandoned = true
		remaining := s.pl.BufferSec()
		for i := len(s.segSizes) - 1; i >= 0 && remaining > 1e-9; i-- {
			dur, _ := s.cfg.Manifest.SegmentDuration(i) // i was delivered
			if dur <= 0 {
				continue
			}
			take := min(dur, remaining)
			m.WastedMB += s.segSizes[i] * take / dur
			remaining -= take
		}
	} else {
		s.pl.FinishRemainingInto(func(st player.Played) {
			m.PlaybackJ += s.cfg.Power.PlaybackPowerW(st.BitrateMbps) * st.DurationSec
			if advance != nil {
				advance(st.DurationSec)
			}
		})
	}

	m.StartupSec = s.pl.StartupSec()
	m.StartupJ = s.cfg.Power.RebufferPowerW * m.StartupSec
	m.RebufferSec = s.pl.StallSec()
	m.DurationSec = s.ElapsedSec()
	if len(s.scores) > 0 {
		m.MeanQoE = s.qoeSum / float64(len(s.scores))
		// Cannot fail: the default model is valid and scores non-empty.
		m.SessionQoE, _ = qoe.DefaultSession().Score(s.scores, m.StartupSec)
	}
	if s.durSum > 0 {
		m.MeanBitrateMbps = s.brWeighted / s.durSum
	}
	return m
}
