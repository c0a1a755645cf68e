package main

import (
	"math"
	"sort"
)

// splitmix is the benchmark's own seeded generator (splitmix64), so
// the inputs a seed generates do not depend on any generator inside
// the program.
type splitmix struct{ state uint64 }

func newSplitmix(seed uint64) *splitmix { return &splitmix{state: seed} }

func (r *splitmix) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float is uniform in [0, 1).
func (r *splitmix) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// zipf draws ranks 0..n-1 with P(rank r) ∝ 1/(r+1)^s, by inverse CDF
// over the precomputed cumulative weights. Any s ≥ 0 works (the
// standard library's Zipf needs s > 1; segment popularity is usually
// flatter than that).
type zipf struct {
	cdf []float64
	rng *splitmix
}

func newZipf(n int, s float64, rng *splitmix) *zipf {
	cdf := make([]float64, n)
	var sum float64
	for r := 0; r < n; r++ {
		sum += math.Pow(float64(r+1), -s)
		cdf[r] = sum
	}
	for r := range cdf {
		cdf[r] /= sum
	}
	return &zipf{cdf: cdf, rng: rng}
}

func (z *zipf) next() int {
	u := z.rng.float()
	r := sort.SearchFloat64s(z.cdf, u)
	if r >= len(z.cdf) {
		r = len(z.cdf) - 1
	}
	return r
}
