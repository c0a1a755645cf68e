package trace

import (
	"math"

	"ecavs/internal/netsim"
	"ecavs/internal/stats"
	"ecavs/internal/vibration"
)

// Compiled is an immutable once-per-trace compilation of the derived
// series every session query needs (ISSUE 6 tentpole):
//
//   - prefix sums of the accelerometer magnitude and its square, so the
//     Eq. 5 windowed RMS deviation VibrationAt becomes an O(log n) —
//     O(1) amortized through a Cursor — query via
//     sqrt(E[m²] − E[m]²) instead of an O(window) two-pass walk;
//   - the sample/point timestamp arrays laid out for branchless binary
//     search, with a cached last-index fast path (Cursor) for the
//     monotone per-segment access pattern of a session replay;
//   - the network step function, shared read-only so each session's
//     TraceLink replays it without a per-session copy (Link).
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
	// dev[i] / dev2[i] are the Kahan-compensated prefix sums of the
	// first i magnitude deviations (mag − refMag) and their squares, so
	// both have len(accelT)+1 entries.
	accelT []float64
	dev    []float64
	dev2   []float64
	refMag float64

	// Network step function (zero-order hold), column-split from the
	// trace's points for cache-friendly binary search.
	netT    []float64
	sigDBm  []float64
	thrMBps []float64
}

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
		dev:    make([]float64, n+1),
		dev2:   make([]float64, n+1),
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
		c.dev[i+1] = sumD.Sum()
		c.dev2[i+1] = sumD2.Sum()
	}

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

// Trace returns the trace this compilation was built from.
func (c *Compiled) Trace() *Trace { return c.tr }

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
	meanD := (c.dev[j] - c.dev[i]) * inv
	variance := (c.dev2[j]-c.dev2[i])*inv - meanD*meanD
	if variance <= 0 {
		// Rounding can push a near-constant window fractionally
		// negative; the true variance is non-negative by construction.
		return 0
	}
	return math.Sqrt(variance)
}

// VibrationAt returns the Eq. 5 vibration level over the window
// [tSec−windowSec, tSec], matching (*Trace).VibrationAt to within the
// 1e-9 tolerance contract (including its edge cases: non-positive
// windows default to vibration.DefaultWindowSec, and windows covering
// fewer than two samples — e.g. queries past the trace end — report
// 0). Stateless; sessions replaying monotone query times should prefer
// Cursor.VibrationAt.
func (c *Compiled) VibrationAt(tSec, windowSec float64) float64 {
	if windowSec <= 0 {
		windowSec = vibration.DefaultWindowSec
	}
	i := searchGE(c.accelT, tSec-windowSec)
	j := searchGT(c.accelT, tSec)
	return c.levelFromPrefix(i, j)
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

// SignalAt returns the recorded signal strength active at tSec.
func (c *Compiled) SignalAt(tSec float64) float64 {
	return c.sigDBm[c.netIdxAt(tSec)]
}

// ThroughputMBpsAt returns the recorded achievable rate active at
// tSec.
func (c *Compiled) ThroughputMBpsAt(tSec float64) float64 {
	return c.thrMBps[c.netIdxAt(tSec)]
}

// Link returns a fresh replayable link over the trace's network
// points, sharing the validated point slice instead of copying it
// (the copy was one of the per-session allocations the compiled
// substrate exists to amortize).
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
// the vibration window by galloping (O(log k) for a move of k
// samples), the network step by a short forward scan — instead of a
// fresh binary search over the whole trace; non-monotone queries fall
// back to binary search transparently.
// Cursors are cheap, hold all mutable state (the shared Compiled has
// none), and must not be shared between goroutines.
func (c *Compiled) Cursor() Cursor { return Cursor{c: c} }

// Cursor is a stateful view over a Compiled trace optimized for
// non-decreasing query times. The zero value is unusable; obtain one
// from (*Compiled).Cursor.
type Cursor struct {
	c    *Compiled
	lo   int // first sample index of the last vibration window
	hi   int // one past the last sample index of the last window
	nidx int // last network step index
}

// VibrationAt is Compiled.VibrationAt with the cached-index fast path.
func (cu *Cursor) VibrationAt(tSec, windowSec float64) float64 {
	if windowSec <= 0 {
		windowSec = vibration.DefaultWindowSec
	}
	ts := cu.c.accelT
	loT := tSec - windowSec

	i := cu.lo
	if i > len(ts) || (i > 0 && ts[i-1] >= loT) {
		i = searchGE(ts, loT) // window start moved backwards
	} else {
		i = gallopGE(ts, i, loT)
	}
	j := cu.hi
	if j > len(ts) || (j > 0 && ts[j-1] > tSec) {
		j = searchGT(ts, tSec) // query time moved backwards
	} else {
		j = gallopGT(ts, j, tSec)
	}
	cu.lo, cu.hi = i, j
	return cu.c.levelFromPrefix(i, j)
}

// SignalAt is Compiled.SignalAt with the cached-index fast path.
func (cu *Cursor) SignalAt(tSec float64) float64 {
	return cu.c.sigDBm[cu.netIdx(tSec)]
}

// ThroughputMBpsAt is Compiled.ThroughputMBpsAt with the cached-index
// fast path.
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
