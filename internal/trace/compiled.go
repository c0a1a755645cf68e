package trace

import (
	"math"

	"ecavs/internal/netsim"
	"ecavs/internal/stats"
	"ecavs/internal/vibration"
)

// Compiled is an immutable once-per-trace compilation of the derived
// series every session query needs:
//
//   - prefix sums of the accelerometer magnitude and its square, so the
//     Eq. 5 windowed RMS deviation becomes an O(log k) query through a
//     Cursor (O(1) amortized over a session's monotone times) via
//     sqrt(E[m²] − E[m]²) instead of an O(window) two-pass walk;
//   - the sample/point timestamp arrays laid out for branchless binary
//     search, with a cached last-index fast path (Cursor) for the
//     monotone per-segment access pattern of a session replay;
//   - the network step function, shared read-only so each session's
//     TraceLink replays it without a per-session copy (Link, the one
//     link over a trace).
//
// Numerics: magnitudes are accumulated as deviations from the global
// mean magnitude (refMag) with compensated (Kahan) summation, so the
// windowed variance difference E[d²] − E[d]² does not catastrophically
// cancel against the ~Gravity² magnitude-square terms. The compiled
// path is NOT bit-identical to the reference vibration.Level two-pass
// computation; the documented contract (DESIGN.md §10) is agreement
// within 1e-9 m/s², pinned by property and fuzz tests against the
// reference implementation.
//
// A Compiled is stateless and safe for concurrent use by any number of
// sessions/shards; all mutable query state lives in per-session
// Cursors. The backing Trace must not be mutated after compilation.
type Compiled struct {
	tr *Trace

	// Accelerometer series: accelT[i] is sample i's timestamp;
	// prefix[i] holds the Kahan-compensated prefix sums of the first i
	// magnitude deviations (mag − refMag) and of their squares, side by
	// side so a window reads two cache lines, not four; it has
	// len(accelT)+1 entries. rate is meanRate(accelT), from which the
	// cursor guesses where a time falls before it searches.
	accelT []float64
	prefix []prefixSum
	refMag float64
	rate   float64

	// Network step function (zero-order hold), column-split from the
	// trace's points for cache-friendly binary search.
	netT    []float64
	sigDBm  []float64
	thrMBps []float64
}

// prefixSum is one entry of the deviation prefix sums: d sums the
// magnitude deviations, d2 their squares.
type prefixSum struct{ d, d2 float64 }

// Compile validates t and builds its compiled form. Prefer
// (*Trace).Compiled, which memoizes the result on the trace.
func Compile(t *Trace) (*Compiled, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	n := len(t.Accel)
	c := &Compiled{
		tr:     t,
		accelT: make([]float64, n),
		prefix: make([]prefixSum, n+1),
	}

	// Pass 1: the global mean magnitude, the reference the deviations
	// are taken against. Any constant near the data works; the mean
	// keeps deviations centred so dev-prefix differences stay small.
	var acc stats.Kahan
	for _, s := range t.Accel {
		acc.Add(s.Magnitude())
	}
	c.refMag = acc.Sum() / float64(n)

	// Pass 2: compensated prefix sums of the deviations and their
	// squares. Snapshotting a running Kahan sum keeps every prefix —
	// and hence every windowed difference — accurate to a few ulps.
	var sumD, sumD2 stats.Kahan
	for i, s := range t.Accel {
		d := s.Magnitude() - c.refMag
		c.accelT[i] = s.TimeSec
		sumD.Add(d)
		sumD2.Add(d * d)
		c.prefix[i+1] = prefixSum{d: sumD.Sum(), d2: sumD2.Sum()}
	}
	c.rate = meanRate(c.accelT)

	c.netT = make([]float64, len(t.Network))
	c.sigDBm = make([]float64, len(t.Network))
	c.thrMBps = make([]float64, len(t.Network))
	for i, p := range t.Network {
		c.netT[i] = p.TimeSec
		c.sigDBm[i] = p.SignalDBm
		c.thrMBps[i] = p.ThroughputMBps
	}
	return c, nil
}

// meanRate returns the mean sample rate (n−1)/(ts[n−1]−ts[0]) of a
// sorted series, or 0 where that is not a positive finite number: one
// sample, all timestamps equal, or an infinite span.
func meanRate(ts []float64) float64 {
	n := len(ts)
	if n < 2 {
		return 0
	}
	r := float64(n-1) / (ts[n-1] - ts[0])
	if !(r > 0) || math.IsInf(r, 1) {
		return 0
	}
	return r
}

// searchGE returns the first index i with xs[i] >= v (len(xs) if none).
func searchGE(xs []float64, v float64) int {
	lo, hi := 0, len(xs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if xs[mid] >= v {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// searchGT returns the first index i with xs[i] > v (len(xs) if none).
func searchGT(xs []float64, v float64) int {
	lo, hi := 0, len(xs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if xs[mid] > v {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// gallopGE returns the first index i >= from with xs[i] >= v (len(xs)
// if none): where a linear walk up from `from` stops. It probes from,
// from+1, from+3, from+7, … until one probe reaches v, then binary
// searches the last stride, so a walk of k samples costs O(log k)
// comparisons instead of k.
func gallopGE(xs []float64, from int, v float64) int {
	lo, hi, stride := from, from, 1
	for hi < len(xs) && xs[hi] < v {
		lo, hi, stride = hi+1, hi+stride, stride*2
	}
	hi = min(hi, len(xs))
	return lo + searchGE(xs[lo:hi], v)
}

// gallopGT is gallopGE for the first index i >= from with xs[i] > v.
func gallopGT(xs []float64, from int, v float64) int {
	lo, hi, stride := from, from, 1
	for hi < len(xs) && xs[hi] <= v {
		lo, hi, stride = hi+1, hi+stride, stride*2
	}
	hi = min(hi, len(xs))
	return lo + searchGT(xs[lo:hi], v)
}

// probe returns the sample index in [from, len(accelT)) nearest below
// where the mean sample rate puts time v, clamped to that range; from
// must be below len(accelT). It reads only accelT[0], which stays in
// cache, so the guess costs no memory access of its own. The float is
// range-checked before it is converted, since Go leaves an
// out-of-range float-to-int conversion to the implementation: NaN,
// −Inf and a zero rate probe at from, +Inf and huge times at the last
// sample.
func (c *Compiled) probe(from int, v float64) int {
	f := (v - c.accelT[0]) * c.rate
	switch {
	case !(f > float64(from)):
		return from
	case f >= float64(len(c.accelT)-1):
		return len(c.accelT) - 1
	}
	return int(f)
}

// seekGE returns the first index i >= from with accelT[i] >= v
// (len(accelT) if none): where a linear walk up from `from` stops. It
// probes first at the index the mean sample rate predicts for v, so on
// a steadily sampled trace one or two comparisons land on the answer
// however far the window edge moved; from the probe it gallops up
// (gallopGE) or down towards `from`, then binary searches the last
// stride. Equal timestamps resolve to the first of them either way.
func (c *Compiled) seekGE(from int, v float64) int {
	xs := c.accelT
	if from >= len(xs) {
		return from
	}
	p := c.probe(from, v)
	if xs[p] < v {
		return gallopGE(xs, p+1, v)
	}
	// xs[p] >= v, so the answer lies in [from, p]: gallop down while
	// the probe is still at or past v.
	hi, stride := p, 1
	for hi-stride >= from && xs[hi-stride] >= v {
		hi -= stride
		stride *= 2
	}
	lo := max(from, hi-stride+1)
	return lo + searchGE(xs[lo:hi], v)
}

// seekGT is seekGE for the first index i >= from with accelT[i] > v.
func (c *Compiled) seekGT(from int, v float64) int {
	xs := c.accelT
	if from >= len(xs) {
		return from
	}
	p := c.probe(from, v)
	if xs[p] <= v {
		return gallopGT(xs, p+1, v)
	}
	hi, stride := p, 1
	for hi-stride >= from && xs[hi-stride] > v {
		hi -= stride
		stride *= 2
	}
	lo := max(from, hi-stride+1)
	return lo + searchGT(xs[lo:hi], v)
}

// levelFromPrefix evaluates Eq. 5 over the half-open sample index
// range [i, j) from the prefix sums: with d the deviations,
// Σ(m−mean_m)² = Σd² − n·mean_d², so the RMS deviation is
// sqrt(E[d²] − E[d]²). Matches the edge contract of vibration.Level:
// fewer than two samples yield 0.
func (c *Compiled) levelFromPrefix(i, j int) float64 {
	n := j - i
	if n < 2 {
		return 0
	}
	inv := 1 / float64(n)
	pi, pj := c.prefix[i], c.prefix[j]
	meanD := (pj.d - pi.d) * inv
	variance := (pj.d2-pi.d2)*inv - meanD*meanD
	if variance <= 0 {
		// Rounding can push a near-constant window fractionally
		// negative; the true variance is non-negative by construction.
		return 0
	}
	return math.Sqrt(variance)
}

// netIdxAt returns the step-function index active at tSec: the last
// point with time <= tSec, clamped to the first point before the trace
// starts (the same zero-order hold netsim.TraceLink applies).
func (c *Compiled) netIdxAt(tSec float64) int {
	idx := searchGT(c.netT, tSec) - 1
	if idx < 0 {
		return 0
	}
	return idx
}

// Link returns a fresh replayable link over the trace's network
// points, sharing the validated point slice instead of copying it.
// Compile validated them non-empty and time-ordered, and the trace is
// not mutated afterwards, which is what netsim.ReplayTraceLink needs.
func (c *Compiled) Link() *netsim.TraceLink {
	l, err := netsim.ReplayTraceLink(c.tr.Network)
	if err != nil {
		// Unreachable: Compile validated the trace non-empty.
		panic(err)
	}
	return l
}

// Cursor returns a per-session query cursor over the compilation. A
// Cursor memoizes the last window/step indices so the monotone
// per-segment access pattern of a session replay advances from them —
// each vibration window edge by a seek that probes where the mean
// sample rate puts it and gallops from there (two comparisons on a
// steadily sampled trace, however far the edge moved), the network
// step by a short forward scan — instead of a fresh binary search over
// the whole trace; a query that moved backwards seeks from the first
// sample, or binary searches the network steps, transparently.
// Cursors are cheap, hold all mutable state (the shared Compiled has
// none), and must not be shared between goroutines.
func (c *Compiled) Cursor() Cursor { return Cursor{c: c} }

// Vibration returns a session's vibration signal over the trace: the
// Eq. 5 level over the windowSec before each query time (a
// non-positive window means vibration.DefaultWindowSec), read through
// a Cursor of its own, so the returned function must not be shared
// between sessions or goroutines. It is what a trace session sets as
// sim.Config.VibrationAt.
func (c *Compiled) Vibration(windowSec float64) func(tSec float64) float64 {
	cur := c.Cursor()
	return func(tSec float64) float64 { return cur.VibrationAt(tSec, windowSec) }
}

// Cursor is a stateful view over a Compiled trace optimized for
// non-decreasing query times. The zero value is unusable; obtain one
// from (*Compiled).Cursor.
type Cursor struct {
	c    *Compiled
	lo   int // first sample index of the last vibration window
	hi   int // one past the last sample index of the last window
	nidx int // last network step index
}

// VibrationAt returns the Eq. 5 vibration level over the window
// [tSec−windowSec, tSec]: within 1e-9 of the reference two-pass
// computation over the same samples (vibration.Level). A non-positive
// window means vibration.DefaultWindowSec, and a window covering fewer
// than two samples (before the first sample, or more than windowSec
// past the last) reports 0.
func (cu *Cursor) VibrationAt(tSec, windowSec float64) float64 {
	if windowSec <= 0 {
		windowSec = vibration.DefaultWindowSec
	}
	ts := cu.c.accelT
	loT := tSec - windowSec

	i := cu.lo
	if i > len(ts) || (i > 0 && ts[i-1] >= loT) {
		i = 0 // window start moved backwards: seek from the first sample
	}
	j := cu.hi
	if j > len(ts) || (j > 0 && ts[j-1] > tSec) {
		j = 0 // query time moved backwards
	}
	i, j = cu.c.seekGE(i, loT), cu.c.seekGT(j, tSec)
	cu.lo, cu.hi = i, j
	return cu.c.levelFromPrefix(i, j)
}

// SignalAt returns the recorded signal strength active at tSec: the
// last point at or before tSec, or the first point before the trace
// starts (the zero-order hold netsim.TraceLink applies).
func (cu *Cursor) SignalAt(tSec float64) float64 {
	return cu.c.sigDBm[cu.netIdx(tSec)]
}

// ThroughputMBpsAt returns the recorded achievable rate active at
// tSec, held as SignalAt holds the signal.
func (cu *Cursor) ThroughputMBpsAt(tSec float64) float64 {
	return cu.c.thrMBps[cu.netIdx(tSec)]
}

func (cu *Cursor) netIdx(tSec float64) int {
	ts := cu.c.netT
	i := cu.nidx
	if i >= len(ts) || ts[i] > tSec {
		i = cu.c.netIdxAt(tSec) // moved backwards
	} else {
		for i+1 < len(ts) && ts[i+1] <= tSec {
			i++
		}
	}
	cu.nidx = i
	return i
}
