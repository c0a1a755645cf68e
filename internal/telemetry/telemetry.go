// Package telemetry is the repo's observability substrate: lock-free
// atomic counters, gauges, and fixed-bucket histograms collected in a
// named registry and exposed over HTTP in Prometheus text format and
// JSON, alongside net/http/pprof and expvar. It is stdlib-only and
// built for instrumenting hot paths: every metric type is a no-op on a
// nil receiver, so call sites need no `if enabled` branching — wiring
// a nil registry (or never attaching one) leaves the instrumented code
// allocation-free and branch-cheap, which is what keeps the campaign
// runner's 15-alloc session pin and bit-identical determinism intact
// when telemetry is off.
//
// Naming follows the Prometheus conventions: snake_case metric names
// with a unit suffix (_seconds, _bytes) and _total for counters;
// labels carry low-cardinality dimensions (ladder rung, algorithm
// name). See DESIGN.md §9 for the full metric inventory.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"ecavs/internal/tracing"
)

// Counter is a monotonically increasing value. The zero value is ready
// to use; a nil *Counter is a no-op, so disabled telemetry costs one
// predictable branch per call site.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add increases the counter by n (negative deltas are ignored —
// counters only go up).
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value reads the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 that can go up and down, stored as atomic bits.
// The zero value is ready to use; a nil *Gauge is a no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add atomically adds d (CAS loop).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value reads the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed cumulative-export buckets.
// Construct via Registry.Histogram; the zero value is unusable. A nil
// *Histogram is a no-op.
type Histogram struct {
	bounds []float64      // ascending upper bounds, +Inf implicit
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	count  atomic.Int64
	sum    Gauge
}

// newHistogram validates and copies the bucket bounds.
func newHistogram(bounds []float64) (*Histogram, error) {
	if len(bounds) == 0 {
		return nil, fmt.Errorf("telemetry: histogram needs at least one bucket bound")
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			return nil, fmt.Errorf("telemetry: histogram bounds not strictly ascending at %v", b[i])
		}
	}
	if math.IsInf(b[len(b)-1], +1) {
		b = b[:len(b)-1] // +Inf is implicit
	}
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}, nil
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count reports the total number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reports the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Value()
}

// DefLatencyBuckets is the default latency histogram layout: 1 ms to
// ~16 s in powers of two — wide enough for both loopback tests and
// shaped transfers.
func DefLatencyBuckets() []float64 {
	b := make([]float64, 0, 15)
	for v := 0.001; v < 20; v *= 2 {
		b = append(b, v)
	}
	return b
}

// metricKind is the exposition TYPE of a family.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// series is one sample stream inside a family: an optional label value
// plus exactly one backing metric. Info-style series instead carry a
// constant multi-label set, prerendered for the text exposition and
// kept as a map for the JSON one.
type series struct {
	labelValue  string
	constLabels string            // prerendered `k="v",k2="v2"`, info series only
	labelMap    map[string]string // the same labels, for JSON exposition
	counter     *Counter
	gauge       *Gauge
	gaugeFn     func() float64
	hist        *Histogram
}

// family is one named metric with HELP/TYPE metadata and one or more
// label-distinguished series.
type family struct {
	name, help string
	kind       metricKind
	labelKey   string // empty for unlabeled families
	series     []*series
	byLabel    map[string]*series
}

// Registry holds named metric families in registration order. All
// methods are safe for concurrent use, and every lookup/registration
// method on a nil *Registry returns a nil metric — the whole
// instrumentation surface degrades to no-ops when telemetry is off.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
	traces   *tracing.Store // set by AttachTraces; nil = no explorer
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// validName enforces the Prometheus metric/label charset.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || r == '_' || r == ':'
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// lookup returns the family, creating it on first use. Re-registering
// the same name with a different kind or label key panics: that is a
// programming error that would corrupt the exposition.
func (r *Registry) lookup(name, help string, kind metricKind, labelKey string) *family {
	if !validName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	if labelKey != "" && !validName(labelKey) {
		panic(fmt.Sprintf("telemetry: invalid label name %q", labelKey))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.kind != kind || f.labelKey != labelKey {
			panic(fmt.Sprintf("telemetry: %s re-registered as %s/%q (was %s/%q)",
				name, kind, labelKey, f.kind, f.labelKey))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, labelKey: labelKey,
		byLabel: make(map[string]*series)}
	r.families = append(r.families, f)
	r.byName[name] = f
	return f
}

// seriesFor returns the family's series for a label value, creating it
// with the given constructor on first use.
func (f *family) seriesFor(labelValue string, build func(*series)) *series {
	if s, ok := f.byLabel[labelValue]; ok {
		return s
	}
	s := &series{labelValue: labelValue}
	build(s)
	f.series = append(f.series, s)
	f.byLabel[labelValue] = s
	return s
}

// Counter registers (or returns the existing) unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	f := r.lookup(name, help, kindCounter, "")
	r.mu.Lock()
	defer r.mu.Unlock()
	return f.seriesFor("", func(s *series) { s.counter = &Counter{} }).counter
}

// Gauge registers (or returns the existing) unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	f := r.lookup(name, help, kindGauge, "")
	r.mu.Lock()
	defer r.mu.Unlock()
	return f.seriesFor("", func(s *series) { s.gauge = &Gauge{} }).gauge
}

// GaugeFunc registers a gauge computed at scrape time — the natural
// shape for derived values (sessions/sec, ETA) that would otherwise
// need a refresh goroutine. fn must be safe for concurrent calls.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	f := r.lookup(name, help, kindGauge, "")
	r.mu.Lock()
	defer r.mu.Unlock()
	f.seriesFor("", func(s *series) { s.gaugeFn = fn })
}

// Histogram registers (or returns the existing) unlabeled histogram
// with the given ascending bucket bounds (+Inf implicit).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	f := r.lookup(name, help, kindHistogram, "")
	r.mu.Lock()
	defer r.mu.Unlock()
	return f.seriesFor("", func(s *series) {
		h, err := newHistogram(bounds)
		if err != nil {
			panic(err)
		}
		s.hist = h
	}).hist
}

// Info registers an info-style gauge: a constant 1 whose payload is
// its label set (the Prometheus build-info idiom — `go_build_info
// {version="go1.22",vcs_revision="abc"} 1`). Unlike the Vec types an
// info series carries several constant labels at once; re-registering
// the same name replaces nothing and keeps the first label set.
func (r *Registry) Info(name, help string, labels map[string]string) {
	if r == nil {
		return
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if !validName(k) {
			panic(fmt.Sprintf("telemetry: invalid label name %q", k))
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb []byte
	lm := make(map[string]string, len(labels))
	for i, k := range keys {
		if i > 0 {
			sb = append(sb, ',')
		}
		sb = append(sb, k...)
		sb = append(sb, '=', '"')
		sb = append(sb, escapeLabel(labels[k])...)
		sb = append(sb, '"')
		lm[k] = labels[k]
	}
	f := r.lookup(name, help, kindGauge, "")
	r.mu.Lock()
	defer r.mu.Unlock()
	f.seriesFor("", func(s *series) {
		s.constLabels = string(sb)
		s.labelMap = lm
		g := &Gauge{}
		g.Set(1)
		s.gauge = g
	})
}

// CounterVec is a counter family keyed by one label.
type CounterVec struct {
	r *Registry
	f *family
}

// CounterVec registers (or returns the existing) labeled counter
// family.
func (r *Registry) CounterVec(name, help, labelKey string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{r: r, f: r.lookup(name, help, kindCounter, labelKey)}
}

// With returns the counter for one label value, creating it on first
// use. Resolve series once, outside hot loops.
func (v *CounterVec) With(labelValue string) *Counter {
	if v == nil {
		return nil
	}
	v.r.mu.Lock()
	defer v.r.mu.Unlock()
	return v.f.seriesFor(labelValue, func(s *series) { s.counter = &Counter{} }).counter
}

// GaugeVec is a gauge family keyed by one label.
type GaugeVec struct {
	r *Registry
	f *family
}

// GaugeVec registers (or returns the existing) labeled gauge family.
func (r *Registry) GaugeVec(name, help, labelKey string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{r: r, f: r.lookup(name, help, kindGauge, labelKey)}
}

// With returns the gauge for one label value, creating it on first use.
func (v *GaugeVec) With(labelValue string) *Gauge {
	if v == nil {
		return nil
	}
	v.r.mu.Lock()
	defer v.r.mu.Unlock()
	return v.f.seriesFor(labelValue, func(s *series) { s.gauge = &Gauge{} }).gauge
}

// snapshot copies the family list (not the live metric values) so
// exposition can walk it without holding the registry lock while
// formatting.
func (r *Registry) snapshot() []*family {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*family, len(r.families))
	copy(out, r.families)
	for i, f := range out {
		cp := *f
		cp.series = make([]*series, len(f.series))
		copy(cp.series, f.series)
		out[i] = &cp
	}
	return out
}
