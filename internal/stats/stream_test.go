package stats

import (
	"math"
	"sort"
	"testing"

	"ecavs/internal/rng"
)

// ref computes exact reference moments for comparison.
func ref(xs []float64) (mean, variance, lo, hi float64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs {
		mean += x
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		variance += (x - mean) * (x - mean)
	}
	variance /= float64(len(xs))
	return
}

func testValues(n int) []float64 {
	// Deterministic, irregular, mixed-sign stream.
	xs := make([]float64, n)
	draws := rng.New(42)
	for i := range xs {
		xs[i] = (draws.Float64() - 0.3) * 50
	}
	return xs
}

func TestAccumulatorMoments(t *testing.T) {
	xs := testValues(10_000)
	var a Accumulator
	for _, x := range xs {
		a.Add(x)
	}
	mean, variance, lo, hi := ref(xs)
	if a.N() != int64(len(xs)) {
		t.Fatalf("N = %d, want %d", a.N(), len(xs))
	}
	if math.Abs(a.Mean()-mean) > 1e-9 {
		t.Errorf("Mean = %v, want %v", a.Mean(), mean)
	}
	if math.Abs(a.Variance()-variance) > 1e-6 {
		t.Errorf("Variance = %v, want %v", a.Variance(), variance)
	}
	if a.Min() != lo || a.Max() != hi {
		t.Errorf("Min/Max = %v/%v, want %v/%v", a.Min(), a.Max(), lo, hi)
	}
}

func TestAccumulatorEmpty(t *testing.T) {
	var a Accumulator
	if a.N() != 0 || a.Mean() != 0 || a.Variance() != 0 || a.StdDev() != 0 || a.Min() != 0 || a.Max() != 0 {
		t.Error("zero-value accumulator must report all zeros")
	}
}

func TestAccumulatorMergeMatchesSequential(t *testing.T) {
	xs := testValues(5_000)
	var whole Accumulator
	for _, x := range xs {
		whole.Add(x)
	}
	// Split into uneven shards, merge in shard order.
	cuts := []int{0, 1, 17, 1000, 1001, 4999, len(xs)}
	var merged Accumulator
	for c := 0; c+1 < len(cuts); c++ {
		var shard Accumulator
		for _, x := range xs[cuts[c]:cuts[c+1]] {
			shard.Add(x)
		}
		merged.Merge(shard)
	}
	if merged.N() != whole.N() {
		t.Fatalf("N = %d, want %d", merged.N(), whole.N())
	}
	if math.Abs(merged.Mean()-whole.Mean()) > 1e-9 {
		t.Errorf("Mean = %v, want %v", merged.Mean(), whole.Mean())
	}
	if math.Abs(merged.Variance()-whole.Variance()) > 1e-6 {
		t.Errorf("Variance = %v, want %v", merged.Variance(), whole.Variance())
	}
	if merged.Min() != whole.Min() || merged.Max() != whole.Max() {
		t.Errorf("Min/Max = %v/%v, want %v/%v", merged.Min(), merged.Max(), whole.Min(), whole.Max())
	}
}

func TestAccumulatorMergeEmptySides(t *testing.T) {
	var a, empty Accumulator
	a.Add(3)
	a.Add(5)
	before := a
	a.Merge(empty)
	if a != before {
		t.Error("merging an empty accumulator changed state")
	}
	var b Accumulator
	b.Merge(before)
	if b != before {
		t.Error("merging into an empty accumulator must copy")
	}
}

func TestP2ShortStreamExact(t *testing.T) {
	e := NewP2(0.5)
	for _, x := range []float64{9, 1, 5} {
		e.Add(x)
	}
	if got := e.Value(); got != 5 {
		t.Errorf("median of {1,5,9} = %v, want 5", got)
	}
	if e.N() != 3 {
		t.Errorf("N = %d, want 3", e.N())
	}
}

func TestP2Converges(t *testing.T) {
	for _, p := range []float64{0.1, 0.5, 0.9, 0.95} {
		xs := testValues(50_000)
		e := NewP2(p)
		for _, x := range xs {
			e.Add(x)
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		exact, err := Percentile(sorted, p*100)
		if err != nil {
			t.Fatal(err)
		}
		// Tolerance relative to the data spread.
		spread := sorted[len(sorted)-1] - sorted[0]
		if diff := math.Abs(e.Value() - exact); diff > 0.01*spread {
			t.Errorf("p=%v: estimate %v vs exact %v (diff %v, spread %v)", p, e.Value(), exact, diff, spread)
		}
	}
}

func TestP2Deterministic(t *testing.T) {
	xs := testValues(1_000)
	a, b := NewP2(0.9), NewP2(0.9)
	for _, x := range xs {
		a.Add(x)
		b.Add(x)
	}
	if a.Value() != b.Value() {
		t.Errorf("same stream, different estimates: %v vs %v", a.Value(), b.Value())
	}
}

// TestValuesGolden pins the head of the seeded test stream, so every
// test built on testValues keeps seeing the same inputs.
func TestValuesGolden(t *testing.T) {
	got := testValues(4)
	want := []float64{22.078243938591164, -7.004480356153994, -1.0699434872430662, 2.209535826181877}
	if len(got) != len(want) {
		t.Fatalf("testValues(4) = %#v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("testValues[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}
