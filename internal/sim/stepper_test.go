package sim

import (
	"errors"
	"fmt"

	"ecavs/internal/netsim"
	"ecavs/internal/power"
)

// runStepper is the reference stepper, Run's oracle: the same session
// timeline taken one 0.1 s step at a time. Each step reads the link's
// rate and signal, meters through Session.Transfer or Session.Play and
// advances the link by one Advance call, so it uses none of the run
// methods (Link.Hold, Link.AdvanceSteps, player.Player.PlaySteps). Run
// must return the same Metrics, bit for bit, and the same errors.
func runStepper(cfg Config) (*Metrics, error) {
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

	idle := func(dt float64) {
		link.Advance(dt)
		if rrc != nil {
			rrc.AdvanceIdle(dt)
		}
	}
	paused := false
	var d Decision
	for i := 0; i < cfg.Manifest.SegmentCount() && !s.Abandoned(); i++ {
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
			s.Play(stepSec)
			idle(stepSec)
		}
		if s.Abandoned() {
			break
		}

		at := link.Now() - startTime
		if err := s.Decide(&d, i, at, s.BufferSec(), link.SignalDBm(), vibAt(at)); err != nil {
			return nil, err
		}
		if rrc != nil {
			if latency := rrc.StartTransfer(); latency > 0 {
				s.Play(latency)
				link.Advance(latency)
			}
		}
		sizeMB := d.SegmentSizesMB[d.Rung]
		res, err := stepTransfer(s, link, sizeMB, cfg.TCPRampSec)
		if err != nil {
			return nil, fmt.Errorf("sim: segment %d download: %w", i, err)
		}
		if rrc != nil {
			rrc.EndTransfer()
		}
		s.Deliver(&d, d.Rung, sizeMB, res)
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

// stepTransfer is the reference transfer, one step at a time: every
// step, a dead one included, meters the radio at the step's signal and
// drains playback before the link advances.
func stepTransfer(s *Session, link netsim.Link, sizeMB, rampSec float64) (netsim.Result, error) {
	if sizeMB <= 0 {
		return netsim.Result{}, nil
	}
	var (
		elapsed   float64
		sigWeight float64
		stalled   float64
		remaining = sizeMB
	)
	for remaining > 1e-12 {
		th := link.ThroughputMBps()
		if rampSec > 0 && elapsed < rampSec {
			frac := (elapsed + stepSec/2) / rampSec
			if frac > 1 {
				frac = 1
			}
			th *= frac
		}
		if th <= 0 {
			stalled += stepSec
			if stalled > maxStallSec {
				return netsim.Result{}, netsim.ErrStalledLink
			}
			s.Transfer(stepSec, link.SignalDBm())
			link.Advance(stepSec)
			elapsed += stepSec
			continue
		}
		stalled = 0
		dt := stepSec
		moved := th * dt
		if moved > remaining {
			moved = remaining
			dt = remaining / th
		}
		sig := link.SignalDBm()
		s.Transfer(dt, sig)
		sigWeight += sig * moved
		remaining -= moved
		link.Advance(dt)
		elapsed += dt
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
