package netsim

import (
	"errors"
	"math"
	"math/rand"
)

// SignalConfig parameterises the mean-reverting (Ornstein-Uhlenbeck)
// signal-strength process of one viewing context.
type SignalConfig struct {
	// MeanDBm is the long-run signal strength; a schedule can override
	// it over time via MeanAt.
	MeanDBm float64
	// MeanAt optionally returns a time-varying mean (cell handovers,
	// vehicle motion). When nil, MeanDBm is used throughout.
	MeanAt func(tSec float64) float64
	// ReversionRate is the OU pull strength towards the mean (1/s).
	ReversionRate float64
	// VolatilityDB is the diffusion magnitude (dB/sqrt(s)).
	VolatilityDB float64
	// FloorDBm / CeilDBm clamp the process to the physical range.
	FloorDBm, CeilDBm float64
}

func (c SignalConfig) withDefaults() SignalConfig {
	if c.ReversionRate <= 0 {
		c.ReversionRate = 0.2
	}
	if c.VolatilityDB < 0 {
		c.VolatilityDB = 0
	}
	if c.FloorDBm == 0 {
		c.FloorDBm = -120
	}
	if c.CeilDBm == 0 {
		c.CeilDBm = -80
	}
	return c
}

// Predefined context channels calibrated so a quiet-room session sees a
// strong, steady link and a moving-vehicle session sees a weak,
// volatile one (Section II: the vehicle context is where energy per
// byte is high).
var (
	// RoomSignal models home/cafe Wi-Fi-grade LTE coverage.
	RoomSignal = SignalConfig{MeanDBm: -88, ReversionRate: 0.3, VolatilityDB: 1.2}
	// VehicleSignal models a moving bus/train crossing cells.
	VehicleSignal = SignalConfig{MeanDBm: -106, ReversionRate: 0.15, VolatilityDB: 3.5}
)

// Channel is a synthetic Link: an OU signal process composed with a
// rate map (signal -> nominal throughput) and lognormal AR(1) fading.
//
// Construct with NewChannel; the zero value is unusable.
type Channel struct {
	cfg     SignalConfig
	rateMap func(dBm float64) float64
	rng     *rand.Rand

	now    float64
	signal float64

	fadeLog   float64 // log of the fading factor
	fadeRho   float64
	fadeSigma float64
	fadeNorm  float64 // normalisation so E[fade] = 1
}

var _ Link = (*Channel)(nil)

// ErrNilRateMap is returned when no rate map is provided.
var ErrNilRateMap = errors.New("netsim: rate map must not be nil")

// FadingConfig tunes the multiplicative throughput fading.
type FadingConfig struct {
	// Rho is the per-step autocorrelation in [0, 1) (default 0.9).
	Rho float64
	// SigmaLog is the stationary std-dev of the log fading factor
	// (default 0.35).
	SigmaLog float64
}

func (f FadingConfig) withDefaults() FadingConfig {
	if f.Rho <= 0 || f.Rho >= 1 {
		f.Rho = 0.9
	}
	if f.SigmaLog <= 0 {
		f.SigmaLog = 0.35
	}
	return f
}

// NewChannel returns a synthetic channel. rateMap converts a signal
// strength to the nominal link rate in MB/s (typically
// power.Model.NominalThroughputMBps, which keeps the Fig. 1a
// energy-per-MB relationship exact in expectation).
func NewChannel(cfg SignalConfig, fading FadingConfig, rateMap func(dBm float64) float64, seed int64) (*Channel, error) {
	if rateMap == nil {
		return nil, ErrNilRateMap
	}
	cfg = cfg.withDefaults()
	fading = fading.withDefaults()
	rng := rand.New(rand.NewSource(seed))
	ch := &Channel{
		cfg:       cfg,
		rateMap:   rateMap,
		rng:       rng,
		signal:    cfg.MeanDBm,
		fadeRho:   fading.Rho,
		fadeSigma: fading.SigmaLog,
		fadeNorm:  math.Exp(fading.SigmaLog * fading.SigmaLog / 2),
	}
	ch.fadeLog = rng.NormFloat64() * fading.SigmaLog
	return ch, nil
}

// Now implements Link.
func (c *Channel) Now() float64 { return c.now }

// SignalDBm implements Link.
func (c *Channel) SignalDBm() float64 { return c.signal }

// ThroughputMBps implements Link.
func (c *Channel) ThroughputMBps() float64 {
	fade := math.Exp(c.fadeLog) / c.fadeNorm
	th := c.rateMap(c.signal) * fade
	if th < 0 {
		return 0
	}
	return th
}

// Advance implements Link: it steps the OU signal process and the
// fading chain forward by dt seconds.
func (c *Channel) Advance(dt float64) {
	if dt <= 0 {
		return
	}
	// Step in sub-intervals so large dt keeps OU statistics sane.
	const maxStep = 0.5
	for dt > 0 {
		h := dt
		if h > maxStep {
			h = maxStep
		}
		mean := c.cfg.MeanDBm
		if c.cfg.MeanAt != nil {
			mean = c.cfg.MeanAt(c.now)
		}
		c.signal += c.cfg.ReversionRate*(mean-c.signal)*h +
			c.cfg.VolatilityDB*math.Sqrt(h)*c.rng.NormFloat64()
		if c.signal < c.cfg.FloorDBm {
			c.signal = c.cfg.FloorDBm
		}
		if c.signal > c.cfg.CeilDBm {
			c.signal = c.cfg.CeilDBm
		}
		// AR(1) on log fading, scaled to the step length.
		rho := math.Pow(c.fadeRho, h/0.1)
		c.fadeLog = rho*c.fadeLog + c.fadeSigma*math.Sqrt(1-rho*rho)*c.rng.NormFloat64()

		c.now += h
		dt -= h
	}
}

// TracePoint is one sample of a recorded (or generated) network trace.
type TracePoint struct {
	// TimeSec is the sample time from trace start.
	TimeSec float64
	// SignalDBm is the recorded signal strength.
	SignalDBm float64
	// ThroughputMBps is the recorded achievable rate.
	ThroughputMBps float64
}

// TraceLink replays a recorded trace as a Link, holding each sample
// until the next one (zero-order hold) and clamping at the final
// sample after the trace ends.
//
// Construct with ReplayTraceLink; the zero value is unusable.
type TraceLink struct {
	points []TracePoint
	now    float64
	idx    int
}

var _ Link = (*TraceLink)(nil)

// ErrEmptyTrace is returned when a trace has no points.
var ErrEmptyTrace = errors.New("netsim: empty trace")

// ReplayTraceLink returns a Link replaying points without copying or
// re-validating them. The caller must guarantee the slice is
// time-ordered, non-empty, and never mutated for the link's lifetime —
// the contract trace.Compiled provides (trace.Validate rejects
// out-of-order points), where one validated point slice backs a fresh
// TraceLink per session and a per-session copy would dominate the
// session allocation profile.
func ReplayTraceLink(points []TracePoint) (*TraceLink, error) {
	if len(points) == 0 {
		return nil, ErrEmptyTrace
	}
	return &TraceLink{points: points}, nil
}

// Now implements Link.
func (t *TraceLink) Now() float64 { return t.now }

// current returns the active trace point.
func (t *TraceLink) current() TracePoint {
	for t.idx+1 < len(t.points) && t.points[t.idx+1].TimeSec <= t.now {
		t.idx++
	}
	return t.points[t.idx]
}

// SignalDBm implements Link.
func (t *TraceLink) SignalDBm() float64 { return t.current().SignalDBm }

// ThroughputMBps implements Link.
func (t *TraceLink) ThroughputMBps() float64 { return t.current().ThroughputMBps }

// Advance implements Link.
func (t *TraceLink) Advance(dt float64) {
	if dt > 0 {
		t.now += dt
	}
}
