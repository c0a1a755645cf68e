package netsim

import (
	"errors"
	"math"

	"ecavs/internal/rng"
)

// OutageConfig parameterises a seeded up/down outage overlay: an
// independent two-state process (exponential sojourns, like the
// Gilbert–Elliott channel's) layered over any Link, so tunnels and
// dead zones can be injected into an OU channel, a trace replay, or
// even a Gilbert–Elliott link itself.
type OutageConfig struct {
	// MeanUpSec is the mean time between outages.
	MeanUpSec float64
	// MeanDownSec is the mean outage length.
	MeanDownSec float64
	// DownRateFrac multiplies the underlying throughput during an
	// outage, in [0, 1). A small positive residual (deep fade rather
	// than a perfectly dead radio) keeps long outages clear of the
	// simulator's dead-link guard.
	DownRateFrac float64
	// SignalDropDB is subtracted from the underlying signal while down.
	SignalDropDB float64
	// Seed makes the outage schedule reproducible.
	Seed int64
}

// DefaultOutage returns a vehicular-flavoured outage process: a deep
// fade averaging 8 s roughly once a minute, 15 dB down, with a 5%
// residual rate.
func DefaultOutage() OutageConfig {
	return OutageConfig{
		MeanUpSec:    60,
		MeanDownSec:  8,
		DownRateFrac: 0.05,
		SignalDropDB: 15,
	}
}

// Validate reports whether the configuration is usable.
func (c OutageConfig) Validate() error {
	if c.MeanUpSec <= 0 || c.MeanDownSec <= 0 {
		return errors.New("netsim: outage sojourn means must be positive")
	}
	if c.DownRateFrac < 0 || c.DownRateFrac >= 1 {
		return errors.New("netsim: DownRateFrac outside [0, 1)")
	}
	if c.SignalDropDB < 0 {
		return errors.New("netsim: negative SignalDropDB")
	}
	return nil
}

// OutageLink overlays a seeded outage process on an underlying link.
// The schedule advances with the link clock, so a session's outages
// are a pure function of (underlying link, OutageConfig) — campaign
// runs stay deterministic.
type OutageLink struct {
	under Link
	cfg   OutageConfig
	draws rng.Stream // sojourn draws

	down      bool
	left      float64 // time remaining in the current state
	downCount int
	downSec   float64
}

var _ Link = (*OutageLink)(nil)

// WithOutages wraps a link with an outage overlay.
func WithOutages(l Link, cfg OutageConfig) (*OutageLink, error) {
	if l == nil {
		return nil, errors.New("netsim: nil link")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	o := &OutageLink{under: l, cfg: cfg, draws: rng.New(uint64(cfg.Seed))}
	o.left = o.sojourn(false)
	return o, nil
}

// sojourn draws an exponential state-holding time from the link's
// internal/rng stream (inverse-CDF; no math/rand state to share or
// race on).
func (o *OutageLink) sojourn(down bool) float64 {
	mean := o.cfg.MeanUpSec
	if down {
		mean = o.cfg.MeanDownSec
	}
	// The draw is uniform in [0, 1); flip to (0, 1] so the log never
	// sees zero.
	return -mean * math.Log(1-o.draws.Float64())
}

// Now implements Link.
func (o *OutageLink) Now() float64 { return o.under.Now() }

// Outages reports the outage count and total down time so far.
func (o *OutageLink) Outages() (count int, downSec float64) {
	return o.downCount, o.downSec
}

// SignalDBm implements Link.
func (o *OutageLink) SignalDBm() float64 {
	s := o.under.SignalDBm()
	if o.down {
		s -= o.cfg.SignalDropDB
	}
	return s
}

// ThroughputMBps implements Link.
func (o *OutageLink) ThroughputMBps() float64 {
	th := o.under.ThroughputMBps()
	if o.down {
		th *= o.cfg.DownRateFrac
	}
	return th
}

// Advance implements Link: the underlying link and the outage state
// machine both walk forward dt seconds.
func (o *OutageLink) Advance(dt float64) {
	if dt <= 0 {
		return
	}
	o.under.Advance(dt)
	o.walk(dt)
}

// walk moves the outage state machine forward dt > 0 seconds.
func (o *OutageLink) walk(dt float64) {
	for dt > 0 {
		if dt < o.left {
			o.left -= dt
			if o.down {
				o.downSec += dt
			}
			return
		}
		dt -= o.left
		if o.down {
			o.downSec += o.left
		}
		o.down = !o.down
		if o.down {
			o.downCount++
		}
		o.left = o.sojourn(o.down)
	}
}

// Hold implements Link: the underlying link's hold, cut where a step
// would reach the end of the current outage state.
func (o *OutageLink) Hold(dt float64, limit int) (n int, th, sig float64) {
	n, th, sig = o.under.Hold(dt, limit)
	if o.down {
		th *= o.cfg.DownRateFrac
		sig -= o.cfg.SignalDropDB
	}
	if dt > 0 {
		k := 1
		for left := o.left; k < n && dt < left; left -= dt {
			k++
		}
		n = k
	}
	return n, th, sig
}

// AdvanceSteps implements Link: the underlying link and the outage
// state machine each take their n steps. They share no state, so the
// order between them moves no bit.
func (o *OutageLink) AdvanceSteps(n int, dt float64) {
	if dt <= 0 {
		return
	}
	o.under.AdvanceSteps(n, dt)
	for ; n > 0; n-- {
		o.walk(dt)
	}
}
