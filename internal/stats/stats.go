// Package stats provides the small numerical toolkit used across the
// simulator: robust means, dispersion measures, percentiles, and simple
// linear regression. All functions are pure and operate on float64
// slices without mutating their inputs.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that cannot produce a meaningful
// result for an empty sample.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// HarmonicMean returns the harmonic mean of xs. The harmonic mean is
// dominated by the smallest samples, which makes it a conservative
// bandwidth estimator in the presence of throughput spikes (the reason
// FESTIVE and the paper's online algorithm use it).
//
// All samples must be strictly positive; HarmonicMean returns ErrEmpty
// for an empty slice and ErrNonPositive if any sample is <= 0.
func HarmonicMean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	var sumInv float64
	for _, x := range xs {
		if x <= 0 {
			return 0, ErrNonPositive
		}
		sumInv += 1 / x
	}
	return float64(len(xs)) / sumInv, nil
}

// ErrNonPositive is returned by HarmonicMean when a sample is <= 0.
var ErrNonPositive = errors.New("stats: non-positive sample")

// Variance returns the population variance of xs (division by n, not
// n-1), or 0 for samples of fewer than one element.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var sum float64
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// RMS returns the root mean square of xs, or 0 for an empty slice.
func RMS(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x * x
	}
	return math.Sqrt(sum / float64(len(xs)))
}

// Min returns the smallest element of xs, or ErrEmpty.
func Min(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// Max returns the largest element of xs, or ErrEmpty.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

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

// Clamp limits x to the closed interval [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
