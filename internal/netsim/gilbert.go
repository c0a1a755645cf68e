package netsim

import (
	"errors"
	"math/rand"
)

// GilbertElliott is the classic two-state burst channel: the link
// alternates between a Good state (full nominal rate, strong signal)
// and a Bad state (deeply degraded rate, weak signal), with exponential
// sojourn times. It complements the OU channel: where OU produces
// smooth drifts, Gilbert-Elliott produces the abrupt outage bursts of
// tunnels, elevators, and cell-edge handovers.
type GilbertElliott struct {
	cfg  GilbertElliottConfig
	rng  *rand.Rand
	now  float64
	bad  bool
	left float64 // time remaining in the current state
}

var _ Link = (*GilbertElliott)(nil)

// GilbertElliottConfig parameterises the two states.
type GilbertElliottConfig struct {
	// GoodRateMBps and BadRateMBps are the per-state link rates.
	GoodRateMBps, BadRateMBps float64
	// GoodSignalDBm and BadSignalDBm are the per-state signal readings.
	GoodSignalDBm, BadSignalDBm float64
	// MeanGoodSec and MeanBadSec are the mean sojourn times.
	MeanGoodSec, MeanBadSec float64
}

// DefaultGilbertElliott returns an urban-LTE-flavoured configuration:
// long good stretches at 25 Mbps with ~8 s outage bursts near 1 Mbps.
func DefaultGilbertElliott() GilbertElliottConfig {
	return GilbertElliottConfig{
		GoodRateMBps:  25.0 / 8,
		BadRateMBps:   1.0 / 8,
		GoodSignalDBm: -92,
		BadSignalDBm:  -114,
		MeanGoodSec:   45,
		MeanBadSec:    8,
	}
}

// Validate reports whether the configuration is usable.
func (c GilbertElliottConfig) Validate() error {
	if c.GoodRateMBps <= 0 || c.BadRateMBps < 0 {
		return errors.New("netsim: rates must be positive (bad may be zero)")
	}
	if c.BadRateMBps >= c.GoodRateMBps {
		return errors.New("netsim: bad-state rate must be below good-state rate")
	}
	if c.MeanGoodSec <= 0 || c.MeanBadSec <= 0 {
		return errors.New("netsim: sojourn times must be positive")
	}
	return nil
}

// NewGilbertElliott returns a seeded channel starting in the good
// state.
func NewGilbertElliott(cfg GilbertElliottConfig, seed int64) (*GilbertElliott, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &GilbertElliott{cfg: cfg, rng: rand.New(rand.NewSource(seed))}
	g.left = g.sojourn(false)
	return g, nil
}

// sojourn draws an exponential state-holding time.
func (g *GilbertElliott) sojourn(bad bool) float64 {
	mean := g.cfg.MeanGoodSec
	if bad {
		mean = g.cfg.MeanBadSec
	}
	return g.rng.ExpFloat64() * mean
}

// Now implements Link.
func (g *GilbertElliott) Now() float64 { return g.now }

// SignalDBm implements Link.
func (g *GilbertElliott) SignalDBm() float64 {
	if g.bad {
		return g.cfg.BadSignalDBm
	}
	return g.cfg.GoodSignalDBm
}

// ThroughputMBps implements Link.
func (g *GilbertElliott) ThroughputMBps() float64 {
	if g.bad {
		return g.cfg.BadRateMBps
	}
	return g.cfg.GoodRateMBps
}

// Advance implements Link: it walks the state machine through dt
// seconds, flipping states as sojourn times expire.
func (g *GilbertElliott) Advance(dt float64) {
	for dt > 0 {
		if dt < g.left {
			g.left -= dt
			g.now += dt
			return
		}
		dt -= g.left
		g.now += g.left
		g.bad = !g.bad
		g.left = g.sojourn(g.bad)
	}
}

// Hold implements Link: the state holds while each step ends before
// its sojourn does.
func (g *GilbertElliott) Hold(dt float64, limit int) (n int, th, sig float64) {
	n = 1
	if !(dt > 0) {
		n = max(1, limit)
	} else {
		for left := g.left; n < limit && dt < left; left -= dt {
			n++
		}
	}
	return n, g.ThroughputMBps(), g.SignalDBm()
}

// AdvanceSteps implements Link.
func (g *GilbertElliott) AdvanceSteps(n int, dt float64) {
	for ; n > 0; n-- {
		g.Advance(dt)
	}
}
