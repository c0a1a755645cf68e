package stats

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSlidingWindowBasics(t *testing.T) {
	w := NewSlidingWindow(3)
	if w.Cap() != 3 || w.Len() != 0 {
		t.Fatalf("fresh window cap=%d len=%d, want 3, 0", w.Cap(), w.Len())
	}
	w.Push(1)
	w.Push(2)
	if got := w.values(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("Values = %v, want [1 2]", got)
	}
	w.Push(3)
	w.Push(4) // evicts 1
	got := w.values()
	want := []float64{2, 3, 4}
	if len(got) != 3 {
		t.Fatalf("Values len = %d, want 3", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Values[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSlidingWindowEvictionOrder(t *testing.T) {
	w := NewSlidingWindow(2)
	for i := 1; i <= 10; i++ {
		w.Push(float64(i))
	}
	got := w.values()
	if got[0] != 9 || got[1] != 10 {
		t.Errorf("Values = %v, want [9 10]", got)
	}
}

func TestSlidingWindowReset(t *testing.T) {
	w := NewSlidingWindow(4)
	w.Push(1)
	w.Push(2)
	w.Reset()
	if w.Len() != 0 {
		t.Errorf("Len after Reset = %d, want 0", w.Len())
	}
	w.Push(9)
	if got := w.values(); len(got) != 1 || got[0] != 9 {
		t.Errorf("Values after Reset+Push = %v, want [9]", got)
	}
}

func TestSlidingWindowMinCapacity(t *testing.T) {
	w := NewSlidingWindow(0)
	if w.Cap() != 1 {
		t.Errorf("Cap = %d, want 1 (raised from 0)", w.Cap())
	}
	w.Push(1)
	w.Push(2)
	if got := w.values(); len(got) != 1 || got[0] != 2 {
		t.Errorf("Values = %v, want [2]", got)
	}
}

func TestSlidingWindowAggregates(t *testing.T) {
	w := NewSlidingWindow(5)
	for _, x := range []float64{1, 4, 4} {
		w.Push(x)
	}
	if got := w.mean(); got != 3 {
		t.Errorf("Mean = %v, want 3", got)
	}
	hm, err := w.HarmonicMean()
	if err != nil {
		t.Fatal(err)
	}
	if hm != 2 {
		t.Errorf("HarmonicMean = %v, want 2", hm)
	}
	if got := w.rms(); !almostEqual(got, math.Sqrt(11), 1e-12) {
		t.Errorf("RMS mismatch: %v", got)
	}
}

// The window always holds the last min(pushes, cap) values, in order.
func TestSlidingWindowProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(capRaw, nRaw uint8) bool {
		capacity := int(capRaw%10) + 1
		n := int(nRaw % 50)
		w := NewSlidingWindow(capacity)
		all := make([]float64, 0, n)
		for i := 0; i < n; i++ {
			x := rng.Float64()
			all = append(all, x)
			w.Push(x)
		}
		want := all
		if len(want) > capacity {
			want = want[len(want)-capacity:]
		}
		got := w.values()
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEWMA(t *testing.T) {
	e := NewEWMA(0.5)
	if e.Primed() {
		t.Error("fresh EWMA should not be primed")
	}
	if e.Value() != 0 {
		t.Errorf("fresh Value = %v, want 0", e.Value())
	}
	e.Push(10)
	if !e.Primed() || e.Value() != 10 {
		t.Errorf("after first push Value = %v, want 10", e.Value())
	}
	e.Push(0)
	if e.Value() != 5 {
		t.Errorf("Value = %v, want 5", e.Value())
	}
	e.Push(5)
	if e.Value() != 5 {
		t.Errorf("Value = %v, want 5", e.Value())
	}
}

func TestEWMAAlphaClamping(t *testing.T) {
	lo := NewEWMA(-1)
	lo.Push(1)
	lo.Push(2)
	if lo.Value() <= 1 || lo.Value() >= 2 {
		t.Errorf("clamped-low EWMA Value = %v, want within (1,2)", lo.Value())
	}
	hi := NewEWMA(9)
	hi.Push(1)
	hi.Push(2)
	if hi.Value() != 2 {
		t.Errorf("alpha=1 EWMA Value = %v, want 2 (tracks last sample)", hi.Value())
	}
}

// EWMA output always lies within [min, max] of the samples seen.
func TestEWMABounded(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(alphaRaw uint8, nRaw uint8) bool {
		alpha := float64(alphaRaw%99+1) / 100
		n := int(nRaw%40) + 1
		e := NewEWMA(alpha)
		lo, hi := 1e18, -1e18
		for i := 0; i < n; i++ {
			x := rng.NormFloat64() * 5
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
			e.Push(x)
		}
		return e.Value() >= lo-1e-9 && e.Value() <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// values returns the samples in insertion order (oldest first) as a
// fresh slice.
func (w *SlidingWindow) values() []float64 {
	out := make([]float64, 0, w.count)
	for i := 0; i < w.count; i++ {
		out = append(out, w.buf[(w.head+i)%len(w.buf)])
	}
	return out
}

// mean returns the arithmetic mean of the held samples (0 if empty).
func (w *SlidingWindow) mean() float64 {
	if w.count == 0 {
		return 0
	}
	var sum float64
	for _, x := range w.values() {
		sum += x
	}
	return sum / float64(w.count)
}

// rms returns the root mean square of the held samples (0 if empty).
func (w *SlidingWindow) rms() float64 {
	if w.count == 0 {
		return 0
	}
	var sum float64
	for _, x := range w.values() {
		sum += x * x
	}
	return math.Sqrt(sum / float64(w.count))
}

// harmonicMeanWalk is HarmonicMean as a walk from the oldest sample
// that finds each slot with a modulo and divides each sample: the
// oracle the in-place reciprocal sum must match bit for bit.
func (w *SlidingWindow) harmonicMeanWalk() (float64, error) {
	if w.count == 0 {
		return 0, ErrEmpty
	}
	var sumInv float64
	for i := 0; i < w.count; i++ {
		x := w.buf[(w.head+i)%len(w.buf)]
		if x <= 0 {
			return 0, ErrNonPositive
		}
		sumInv += 1 / x
	}
	return float64(w.count) / sumInv, nil
}

// On rings that have wrapped many times, HarmonicMean equals the
// modulo walk bit for bit after every push, errors included: a
// non-positive sample reports ErrNonPositive until it is evicted, and
// Reset forgets it.
func TestHarmonicMeanMatchesModuloWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, capacity := range []int{1, 2, 5, 20, 33} {
		w := NewSlidingWindow(capacity)
		wrapped := false
		for push := 0; push < 20*capacity+7; push++ {
			x := math.Exp(rng.NormFloat64() * 3) // spans orders of magnitude
			switch rng.Intn(40) {
			case 0:
				x = 0
			case 1:
				x = -x
			}
			w.Push(x)
			wrapped = wrapped || w.head != 0
			got, gotErr := w.HarmonicMean()
			want, wantErr := w.harmonicMeanWalk()
			if math.Float64bits(got) != math.Float64bits(want) || !errors.Is(gotErr, wantErr) {
				t.Fatalf("cap %d push %d (head %d): HarmonicMean = %v, %v; modulo walk %v, %v",
					capacity, push, w.head, got, gotErr, want, wantErr)
			}
			if push == 10*capacity {
				w.Reset()
				if _, err := w.HarmonicMean(); !errors.Is(err, ErrEmpty) {
					t.Fatalf("cap %d: after Reset HarmonicMean err = %v, want ErrEmpty", capacity, err)
				}
			}
		}
		if !wrapped && capacity > 1 {
			t.Errorf("cap %d: the ring never wrapped", capacity)
		}
	}
}
