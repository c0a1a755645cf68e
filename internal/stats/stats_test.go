package stats

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		in   []float64
		want float64
	}{
		{name: "empty", in: nil, want: 0},
		{name: "single", in: []float64{3}, want: 3},
		{name: "pair", in: []float64{2, 4}, want: 3},
		{name: "negatives", in: []float64{-1, 1}, want: 0},
		{name: "fractional", in: []float64{1, 2, 4}, want: 7.0 / 3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := windowOf(tt.in).mean(); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("Mean(%v) = %v, want %v", tt.in, got, tt.want)
			}
		})
	}
}

// windowOf is a window holding exactly xs.
func windowOf(xs []float64) *SlidingWindow {
	w := NewSlidingWindow(len(xs))
	for _, x := range xs {
		w.Push(x)
	}
	return w
}

func TestHarmonicMean(t *testing.T) {
	tests := []struct {
		name    string
		in      []float64
		want    float64
		wantErr error
	}{
		{name: "empty", in: nil, wantErr: ErrEmpty},
		{name: "zero sample", in: []float64{1, 0}, wantErr: ErrNonPositive},
		{name: "negative sample", in: []float64{1, -2}, wantErr: ErrNonPositive},
		{name: "single", in: []float64{5}, want: 5},
		{name: "classic", in: []float64{1, 4, 4}, want: 2},
		{name: "identical", in: []float64{7, 7, 7}, want: 7},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := windowOf(tt.in).HarmonicMean()
			if !errors.Is(err, tt.wantErr) {
				t.Fatalf("HarmonicMean(%v) err = %v, want %v", tt.in, err, tt.wantErr)
			}
			if err == nil && !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("HarmonicMean(%v) = %v, want %v", tt.in, got, tt.want)
			}
		})
	}
}

// Harmonic mean never exceeds the arithmetic mean (AM-HM inequality)
// and is permutation invariant.
func TestHarmonicMeanProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(n uint8) bool {
		size := int(n%20) + 1
		xs := make([]float64, size)
		for i := range xs {
			xs[i] = rng.Float64()*100 + 0.001
		}
		hm, err := windowOf(xs).HarmonicMean()
		if err != nil {
			return false
		}
		if hm > windowOf(xs).mean()+1e-9 {
			return false
		}
		// Permutation invariance: reverse order.
		rev := make([]float64, size)
		for i := range xs {
			rev[i] = xs[size-1-i]
		}
		hm2, err := windowOf(rev).HarmonicMean()
		if err != nil {
			return false
		}
		return almostEqual(hm, hm2, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	var acc Accumulator
	if got := acc.Variance(); got != 0 {
		t.Errorf("empty Variance = %v, want 0", got)
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		acc.Add(x)
	}
	if got := acc.Variance(); !almostEqual(got, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := acc.StdDev(); !almostEqual(got, 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", got)
	}
}

func TestRMS(t *testing.T) {
	tests := []struct {
		name string
		in   []float64
		want float64
	}{
		{name: "empty", in: nil, want: 0},
		{name: "threefour", in: []float64{3, 4}, want: math.Sqrt(12.5)},
		{name: "sign invariant", in: []float64{-3, -4}, want: math.Sqrt(12.5)},
		{name: "constant", in: []float64{2, 2, 2}, want: 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := windowOf(tt.in).rms(); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("RMS(%v) = %v, want %v", tt.in, got, tt.want)
			}
		})
	}
}

// RMS >= |mean| for any sample (Cauchy-Schwarz).
func TestRMSDominatesMean(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(n uint8) bool {
		size := int(n%30) + 1
		xs := make([]float64, size)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
		}
		return windowOf(xs).rms() >= math.Abs(windowOf(xs).mean())-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	tests := []struct {
		p    float64
		want float64
	}{
		{p: 0, want: 1},
		{p: 50, want: 3},
		{p: 100, want: 5},
		{p: 25, want: 2},
		{p: 10, want: 1.4},
	}
	for _, tt := range tests {
		got, err := Percentile(xs, tt.p)
		if err != nil {
			t.Fatalf("Percentile(%v) err: %v", tt.p, err)
		}
		if !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if _, err := Percentile(nil, 50); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty err = %v, want ErrEmpty", err)
	}
	if _, err := Percentile(xs, 101); err == nil {
		t.Error("expected out-of-range error for p=101")
	}
	if _, err := Percentile(xs, -1); err == nil {
		t.Error("expected out-of-range error for p=-1")
	}
	// Single element: any percentile is that element.
	got, err := Percentile([]float64{42}, 73)
	if err != nil || got != 42 {
		t.Errorf("Percentile single = %v, %v; want 42, nil", got, err)
	}
}

// Percentile must not mutate its input.
func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 3}
	if _, err := Percentile(xs, 50); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Errorf("input mutated: %v", xs)
	}
}
