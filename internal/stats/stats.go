// Package stats provides the small numerical toolkit used across the
// simulator: percentiles of a sample, streaming estimators
// (Accumulator, P2), sliding windows and compensated sums. Percentile
// is pure and never mutates its input.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that cannot produce a meaningful
// result for an empty sample.
var ErrEmpty = errors.New("stats: empty sample")

// ErrNonPositive is returned by SlidingWindow.HarmonicMean when a
// sample is <= 0.
var ErrNonPositive = errors.New("stats: non-positive sample")

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using
// linear interpolation between closest ranks. The input is not
// modified.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 100 {
		return 0, errors.New("stats: percentile out of range")
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}
