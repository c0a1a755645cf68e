// Package faults is the deterministic failure-injection substrate for
// the real-HTTP streaming path: a seeded Plan hands out per-request
// verdicts (server error, connection reset, response stall, truncated
// body, added latency) that httpdash.Server's WithFaults option applies
// at the origin, without the handler or client code knowing which
// faults exist. The httpdash chaos tests also apply a plan on the
// client side, through a test-only http.RoundTripper.
//
// Determinism is the point: a verdict depends only on the plan seed,
// the request key (normally the URL path), and how many times that key
// has been requested — never on wall-clock time or goroutine
// interleaving across keys. Replaying the same request sequence against
// the same seed reproduces the same storm, which is what lets the chaos
// suite assert exact recovery behaviour and lets campaign results stay
// a pure function of their seeds.
package faults

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"ecavs/internal/rng"
)

// Kind enumerates the injectable fault classes.
type Kind uint8

const (
	// None passes the request through untouched.
	None Kind = iota
	// Error5xx answers with a server error status instead of the payload.
	Error5xx
	// Reset drops the connection abruptly (client sees a transport
	// error, not an HTTP response).
	Reset
	// Stall hangs the response mid-transfer for Verdict.Stall before
	// continuing — the fault a per-segment deadline exists to catch.
	Stall
	// Truncate delivers only Verdict.TruncateFrac of the body while
	// still advertising the full Content-Length.
	Truncate
	// Latency delays the response by Verdict.Latency, then serves it
	// normally.
	Latency
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Error5xx:
		return "error5xx"
	case Reset:
		return "reset"
	case Stall:
		return "stall"
	case Truncate:
		return "truncate"
	case Latency:
		return "latency"
	}
	return fmt.Sprintf("faults.Kind(%d)", uint8(k))
}

// Verdict is one request's fate.
type Verdict struct {
	// Kind selects the fault class (None = healthy request).
	Kind Kind
	// Status is the response code for Error5xx verdicts.
	Status int
	// Stall is the mid-transfer hang for Stall verdicts.
	Stall time.Duration
	// Latency is the added delay for Latency verdicts.
	Latency time.Duration
	// TruncateFrac is the delivered body fraction for Truncate verdicts,
	// in (0, 1).
	TruncateFrac float64
}

// Config parameterises a probabilistic plan. The five probabilities
// are evaluated as a cumulative ladder per request; their sum must not
// exceed 1 (the remainder is the healthy-request probability). A
// plan's Error5xx verdicts answer planStatus, and its Truncate verdicts
// deliver planTruncateFrac of the body.
type Config struct {
	// Error5xxProb, ResetProb, StallProb, TruncateProb, LatencyProb are
	// the per-request fault probabilities.
	Error5xxProb float64
	ResetProb    float64
	StallProb    float64
	TruncateProb float64
	LatencyProb  float64

	// StallFor is the Stall hang length (default 2 s).
	StallFor time.Duration
	// LatencyFor is the Latency delay (default 200 ms).
	LatencyFor time.Duration

	// MaxFaultsPerKey, when positive, forces None once a key has been
	// requested that many times: a client retrying the same resource is
	// guaranteed a clean response on attempt MaxFaultsPerKey, which
	// bounds every storm a bounded-retry client can be caught in. Zero
	// means faults never relent.
	MaxFaultsPerKey int
}

// What a probabilistic plan's Error5xx and Truncate verdicts carry:
// 503 Service Unavailable, and half the body.
const (
	planStatus               = 503
	planTruncateFrac float64 = 0.5
)

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	probs := []float64{c.Error5xxProb, c.ResetProb, c.StallProb, c.TruncateProb, c.LatencyProb}
	var sum float64
	for _, p := range probs {
		if p < 0 || p > 1 {
			return errors.New("faults: probabilities must lie in [0, 1]")
		}
		sum += p
	}
	if sum > 1+1e-12 {
		return errors.New("faults: fault probabilities sum past 1")
	}
	if c.StallFor < 0 || c.LatencyFor < 0 {
		return errors.New("faults: negative durations")
	}
	if c.MaxFaultsPerKey < 0 {
		return errors.New("faults: negative MaxFaultsPerKey")
	}
	return nil
}

// Stats counts what a plan has injected so far.
type Stats struct {
	// Requests is the number of verdicts handed out.
	Requests int64
	// Injected counts non-None verdicts by kind.
	Errors5xx, Resets, Stalls, Truncations, Latencies int64
}

// Injected is the total non-None verdict count.
func (s Stats) Injected() int64 {
	return s.Errors5xx + s.Resets + s.Stalls + s.Truncations + s.Latencies
}

// Plan hands out deterministic verdicts. Safe for concurrent use; the
// verdict for the n-th request of a given key is independent of other
// keys' traffic.
//
// Construct with NewPlan or NewScript; the zero value is unusable.
type Plan struct {
	cfg  Config
	seed uint64

	mu       sync.Mutex
	attempts map[string]int
	script   []Verdict
	pos      int
	stats    Stats
}

// NewPlan returns a probabilistic plan: each request's verdict is drawn
// from cfg's fault ladder, seeded so the n-th request for a key always
// draws the same verdict.
func NewPlan(cfg Config, seed int64) (*Plan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.StallFor == 0 {
		cfg.StallFor = 2 * time.Second
	}
	if cfg.LatencyFor == 0 {
		cfg.LatencyFor = 200 * time.Millisecond
	}
	return &Plan{cfg: cfg, seed: uint64(seed), attempts: make(map[string]int)}, nil
}

// NewScript returns a scripted plan: verdicts are consumed in request
// order regardless of key, and once the script is exhausted every
// request passes through clean. Scripts express precise storms ("three
// 5xx, then a stall, then a truncation") for the chaos suite.
func NewScript(verdicts []Verdict) *Plan {
	s := make([]Verdict, len(verdicts))
	copy(s, verdicts)
	return &Plan{script: s, attempts: make(map[string]int)}
}

// Verdict returns the fate of the next request for key, advancing the
// key's attempt counter.
func (p *Plan) Verdict(key string) Verdict {
	p.mu.Lock()
	defer p.mu.Unlock()
	attempt := p.attempts[key]
	p.attempts[key] = attempt + 1
	p.stats.Requests++

	var v Verdict
	if p.script != nil {
		if p.pos < len(p.script) {
			v = p.script[p.pos]
			p.pos++
		}
	} else if p.cfg.MaxFaultsPerKey == 0 || attempt < p.cfg.MaxFaultsPerKey {
		v = p.draw(key, attempt)
	}
	switch v.Kind {
	case Error5xx:
		p.stats.Errors5xx++
	case Reset:
		p.stats.Resets++
	case Stall:
		p.stats.Stalls++
	case Truncate:
		p.stats.Truncations++
	case Latency:
		p.stats.Latencies++
	}
	return v
}

// Stats returns a snapshot of the injection counters.
func (p *Plan) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// draw derives the verdict for (key, attempt) from the seed: draw
// number attempt of the internal/rng stream seeded with the seed XOR an
// FNV-1a hash of the key, mapped onto the cumulative fault ladder.
func (p *Plan) draw(key string, attempt int) Verdict {
	const (
		fnvOffset = 0xcbf29ce484222325
		fnvPrime  = 0x100000001b3
	)
	h := uint64(fnvOffset)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime
	}
	u := rng.Unit(rng.At(p.seed^h, attempt))

	ladder := []struct {
		prob float64
		kind Kind
	}{
		{p.cfg.Error5xxProb, Error5xx},
		{p.cfg.ResetProb, Reset},
		{p.cfg.StallProb, Stall},
		{p.cfg.TruncateProb, Truncate},
		{p.cfg.LatencyProb, Latency},
	}
	var cum float64
	for _, step := range ladder {
		cum += step.prob
		if u < cum {
			return Verdict{
				Kind:         step.kind,
				Status:       planStatus,
				Stall:        p.cfg.StallFor,
				Latency:      p.cfg.LatencyFor,
				TruncateFrac: planTruncateFrac,
			}
		}
	}
	return Verdict{}
}
