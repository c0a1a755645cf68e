package stats

import (
	"math"
	"sort"
)

// Accumulator is a streaming moment accumulator: count, mean,
// variance (Welford's update), minimum, and maximum in O(1) memory.
// Shard-local accumulators combine exactly with Merge (Chan et al.'s
// pairwise formula), which is what lets the campaign runner aggregate
// millions of sessions without retaining per-session results.
//
// The zero value is an empty accumulator, ready for use.
type Accumulator struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds one observation in.
func (a *Accumulator) Add(x float64) {
	if a.n == 0 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	a.n++
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
}

// Merge folds another accumulator in, as if every observation it saw
// had been Added to a. Merging is exact (up to float rounding), not an
// approximation.
func (a *Accumulator) Merge(b Accumulator) {
	if b.n == 0 {
		return
	}
	if a.n == 0 {
		*a = b
		return
	}
	if b.min < a.min {
		a.min = b.min
	}
	if b.max > a.max {
		a.max = b.max
	}
	n := a.n + b.n
	d := b.mean - a.mean
	a.mean += d * float64(b.n) / float64(n)
	a.m2 += b.m2 + d*d*float64(a.n)*float64(b.n)/float64(n)
	a.n = n
}

// N returns the observation count.
func (a *Accumulator) N() int64 { return a.n }

// Mean returns the running mean (0 when empty).
func (a *Accumulator) Mean() float64 { return a.mean }

// Variance returns the population variance (0 when empty).
func (a *Accumulator) Variance() float64 {
	if a.n == 0 {
		return 0
	}
	return a.m2 / float64(a.n)
}

// StdDev returns the population standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// Min returns the smallest observation (0 when empty).
func (a *Accumulator) Min() float64 {
	if a.n == 0 {
		return 0
	}
	return a.min
}

// Max returns the largest observation (0 when empty).
func (a *Accumulator) Max() float64 {
	if a.n == 0 {
		return 0
	}
	return a.max
}

// P2 estimates a single quantile of a stream in O(1) memory using the
// P² algorithm (Jain & Chlamtac, CACM 1985): five markers track the
// minimum, the target quantile, the two surrounding octiles, and the
// maximum, adjusted towards their desired positions with parabolic
// interpolation after every observation. The estimate converges to
// the true quantile with error that vanishes as the stream grows; the
// first five observations are exact.
//
// Construct with NewP2; the zero value is unusable.
type P2 struct {
	p     float64
	count int64
	q     [5]float64 // marker heights
	pos   [5]float64 // marker positions (1-based)
	want  [5]float64 // desired positions
	inc   [5]float64 // desired-position increments
}

// NewP2 returns an estimator for the p-quantile, 0 < p < 1 (values
// outside are clamped to [0.001, 0.999]).
func NewP2(p float64) *P2 {
	if p < 0.001 {
		p = 0.001
	}
	if p > 0.999 {
		p = 0.999
	}
	e := &P2{p: p}
	e.inc = [5]float64{0, p / 2, p, (1 + p) / 2, 1}
	return e
}

// N returns the observation count.
func (e *P2) N() int64 { return e.count }

// Add folds one observation in.
func (e *P2) Add(x float64) {
	if e.count < 5 {
		e.q[e.count] = x
		e.count++
		if e.count == 5 {
			sort.Float64s(e.q[:])
			for i := range e.pos {
				e.pos[i] = float64(i + 1)
				e.want[i] = 1 + 4*e.inc[i]
			}
		}
		return
	}
	// Find the cell k with q[k] <= x < q[k+1], extending extremes.
	var k int
	switch {
	case x < e.q[0]:
		e.q[0] = x
		k = 0
	case x >= e.q[4]:
		e.q[4] = x
		k = 3
	default:
		for k = 0; k < 3; k++ {
			if x < e.q[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		e.pos[i]++
	}
	for i := range e.want {
		e.want[i] += e.inc[i]
	}
	e.count++
	// Adjust the three interior markers towards their desired
	// positions, preferring the parabolic (P²) update and falling back
	// to linear when it would break monotonicity.
	for i := 1; i <= 3; i++ {
		d := e.want[i] - e.pos[i]
		if (d >= 1 && e.pos[i+1]-e.pos[i] > 1) || (d <= -1 && e.pos[i-1]-e.pos[i] < -1) {
			s := 1.0
			if d < 0 {
				s = -1
			}
			qp := e.parabolic(i, s)
			if e.q[i-1] < qp && qp < e.q[i+1] {
				e.q[i] = qp
			} else {
				e.q[i] = e.linear(i, s)
			}
			e.pos[i] += s
		}
	}
}

func (e *P2) parabolic(i int, s float64) float64 {
	return e.q[i] + s/(e.pos[i+1]-e.pos[i-1])*
		((e.pos[i]-e.pos[i-1]+s)*(e.q[i+1]-e.q[i])/(e.pos[i+1]-e.pos[i])+
			(e.pos[i+1]-e.pos[i]-s)*(e.q[i]-e.q[i-1])/(e.pos[i]-e.pos[i-1]))
}

func (e *P2) linear(i int, s float64) float64 {
	j := i + int(s)
	return e.q[i] + s*(e.q[j]-e.q[i])/(e.pos[j]-e.pos[i])
}

// Value returns the current quantile estimate. Streams shorter than
// five observations are interpolated exactly.
func (e *P2) Value() float64 {
	if e.count == 0 {
		return 0
	}
	if e.count < 5 {
		head := make([]float64, e.count)
		copy(head, e.q[:e.count])
		sort.Float64s(head)
		v, err := Percentile(head, e.p*100)
		if err != nil {
			return 0
		}
		return v
	}
	return e.q[2]
}
