package httpdash

import (
	"sync"
	"time"

	"ecavs/internal/telemetry"
)

// BreakerState is a circuit breaker's position.
type BreakerState int32

const (
	// BreakerClosed passes traffic and watches the failure rate.
	BreakerClosed BreakerState = iota
	// BreakerOpen fails fast: no request reaches the host until the
	// cool-down elapses.
	BreakerOpen
	// BreakerHalfOpen lets a bounded number of probes through; their
	// outcomes decide between closing and re-opening.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// BreakerConfig parameterises a circuit breaker. The zero value is not
// valid; DefaultBreakerConfig is the tuned starting point.
type BreakerConfig struct {
	// Window is how many recent attempt outcomes the failure rate is
	// computed over (a ring buffer; default 20).
	Window int
	// MinSamples is the fewest outcomes in the window before the
	// breaker may trip — a single failed first request must not open
	// the circuit (default 10).
	MinSamples int
	// FailureThreshold trips the breaker when the windowed failure rate
	// reaches it (default 0.5).
	FailureThreshold float64
	// OpenFor is the cool-down after tripping; while it runs every
	// attempt fails fast without touching the network (default 2s).
	OpenFor time.Duration
	// HalfOpenProbes bounds concurrently in-flight probes once the
	// cool-down elapses (default 1).
	HalfOpenProbes int
	// CloseAfter is how many consecutive probe successes close the
	// breaker again (default 2). Any probe failure re-opens it.
	CloseAfter int
	// Clock overrides time.Now for deterministic tests (nil = wall
	// clock). The breaker never sleeps — it only compares timestamps —
	// so a scripted clock steps the whole state machine synchronously.
	Clock func() time.Time
}

// DefaultBreakerConfig is the client's standard breaker tuning: trip
// at a 50% failure rate over the last 20 attempts (once 10 have been
// seen), cool down for 2 s, then close after 2 clean probes.
func DefaultBreakerConfig() BreakerConfig {
	return BreakerConfig{
		Window:           20,
		MinSamples:       10,
		FailureThreshold: 0.5,
		OpenFor:          2 * time.Second,
		HalfOpenProbes:   1,
		CloseAfter:       2,
	}
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	d := DefaultBreakerConfig()
	if c.Window <= 0 {
		c.Window = d.Window
	}
	if c.MinSamples <= 0 {
		c.MinSamples = d.MinSamples
	}
	if c.MinSamples > c.Window {
		c.MinSamples = c.Window
	}
	if c.FailureThreshold <= 0 || c.FailureThreshold > 1 {
		c.FailureThreshold = d.FailureThreshold
	}
	if c.OpenFor <= 0 {
		c.OpenFor = d.OpenFor
	}
	if c.HalfOpenProbes <= 0 {
		c.HalfOpenProbes = d.HalfOpenProbes
	}
	if c.CloseAfter <= 0 {
		c.CloseAfter = d.CloseAfter
	}
	return c
}

// Breaker is a per-host circuit breaker: closed it watches a windowed
// failure rate over attempt outcomes, open it fails fast until the
// cool-down elapses, half-open it admits a few probes whose outcomes
// decide recovery. It is safe for concurrent use (prefetch pipelines
// and shared fleets drive one breaker from many goroutines) and may be
// shared across clients targeting the same host via WithSharedBreaker.
//
// Construct with NewBreaker; the zero value is unusable.
type Breaker struct {
	cfg BreakerConfig
	now func() time.Time

	mu             sync.Mutex
	state          BreakerState
	window         []bool // ring of outcomes (true = failure)
	size, head     int
	failures       int
	openUntil      time.Time
	probesInFlight int
	probeSuccesses int
	opens          int64

	// Optional telemetry mirrors (nil = no-op).
	telState *telemetry.Gauge
	telOpens *telemetry.Counter
}

// NewBreaker builds a breaker; zero config fields take their defaults.
func NewBreaker(cfg BreakerConfig) *Breaker {
	cfg = cfg.withDefaults()
	now := cfg.Clock
	if now == nil {
		now = time.Now
	}
	return &Breaker{
		cfg:    cfg,
		now:    now,
		window: make([]bool, cfg.Window),
	}
}

// State reports the breaker's current position (open flips to
// half-open lazily, on the first Allow after the cool-down).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Opens counts closed/half-open → open transitions.
func (b *Breaker) Opens() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.opens
}

// Allow asks to send one request. ok=false fails fast; retryAfter then
// says how long until the breaker is worth probing again (feed it to
// the backoff computation). ok=true obliges the caller to report the
// attempt's outcome with exactly one Record (or drop, if the outcome
// says nothing about the host). A nil breaker allows every attempt.
func (b *Breaker) Allow() (ok bool, retryAfter time.Duration) {
	if b == nil {
		return true, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true, 0
	case BreakerOpen:
		if wait := b.openUntil.Sub(b.now()); wait > 0 {
			return false, wait
		}
		b.setState(BreakerHalfOpen)
		b.probesInFlight = 0
		b.probeSuccesses = 0
		fallthrough
	default: // BreakerHalfOpen
		if b.probesInFlight >= b.cfg.HalfOpenProbes {
			// Probes are out; further attempts wait for their verdict.
			return false, b.cfg.OpenFor / 2
		}
		b.probesInFlight++
		return true, 0
	}
}

// Record reports an allowed attempt's outcome: success is any response
// that proves the host alive (including 4xx), failure is a transport
// error, timeout, truncation, or 5xx. It is a no-op on a nil breaker.
func (b *Breaker) Record(success bool) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerHalfOpen:
		b.probesInFlight--
		if !success {
			b.trip()
			return
		}
		b.probeSuccesses++
		if b.probeSuccesses >= b.cfg.CloseAfter {
			b.reset()
		}
	case BreakerClosed:
		b.push(!success)
		if b.size >= b.cfg.MinSamples &&
			float64(b.failures) >= b.cfg.FailureThreshold*float64(b.size) {
			b.trip()
		}
	default: // BreakerOpen: a straggler from before the trip; nothing to learn.
	}
}

// drop releases an allowed attempt without an outcome (the session was
// cancelled mid-flight — the host's health is unknown), so a half-open
// probe slot is not leaked.
func (b *Breaker) drop() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerHalfOpen && b.probesInFlight > 0 {
		b.probesInFlight--
	}
}

// trip opens the breaker and starts the cool-down. Callers hold mu.
func (b *Breaker) trip() {
	b.setState(BreakerOpen)
	b.openUntil = b.now().Add(b.cfg.OpenFor)
	b.opens++
	b.telOpens.Inc()
	b.clearWindow()
}

// reset closes the breaker with a clean window. Callers hold mu.
func (b *Breaker) reset() {
	b.setState(BreakerClosed)
	b.clearWindow()
}

func (b *Breaker) clearWindow() {
	b.size, b.head, b.failures = 0, 0, 0
}

// push appends one outcome to the ring. Callers hold mu.
func (b *Breaker) push(failure bool) {
	if b.size == len(b.window) {
		if b.window[b.head] {
			b.failures--
		}
	} else {
		b.size++
	}
	b.window[b.head] = failure
	b.head = (b.head + 1) % len(b.window)
	if failure {
		b.failures++
	}
}

// setState records a transition and mirrors it to telemetry. Callers
// hold mu.
func (b *Breaker) setState(s BreakerState) {
	b.state = s
	b.telState.Set(float64(s))
}
