package rng

import (
	"sync"
	"testing"
)

// TestStreamGolden pins the stream against the published splitmix64
// reference output for seed 0 and one nonzero seed.
func TestStreamGolden(t *testing.T) {
	cases := []struct {
		seed uint64
		want []uint64
	}{
		{0, []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f, 0xf88bb8a8724c81ec}},
		{1234567, []uint64{0x599ed017fb08fc85, 0x2c73f08458540fa5, 0x883ebce5a3f27c77, 0x3fbef740e9177b3f}},
	}
	for _, c := range cases {
		s := New(c.seed)
		for i, want := range c.want {
			if got := s.Uint64(); got != want {
				t.Fatalf("seed %d draw %d = %#x, want %#x", c.seed, i, got, want)
			}
		}
	}
}

// TestAtMatchesStream pins the stateless k-th draw to the stream it
// shortcuts, and Float64 to Unit of the same draw.
func TestAtMatchesStream(t *testing.T) {
	for _, seed := range []uint64{0, 7, 1 << 63, ^uint64(0)} {
		s, f := New(seed), New(seed)
		for k := 0; k < 100; k++ {
			x := s.Uint64()
			if got := At(seed, k); got != x {
				t.Fatalf("At(%d, %d) = %#x, want %#x", seed, k, got, x)
			}
			if got, want := f.Float64(), Unit(x); got != want {
				t.Fatalf("seed %d draw %d: Float64 = %v, want %v", seed, k, got, want)
			}
		}
	}
}

func TestUnitRange(t *testing.T) {
	if got := Unit(0); got != 0 {
		t.Errorf("Unit(0) = %v, want 0", got)
	}
	if got := Unit(^uint64(0)); got >= 1 || got < 0.9999999 {
		t.Errorf("Unit(max) = %v, want just under 1", got)
	}
}

// TestAtomicHandsOutTheStream draws from one Atomic on many goroutines
// (run under -race) and checks every draw of the equivalent Stream was
// handed out exactly once.
func TestAtomicHandsOutTheStream(t *testing.T) {
	const workers, each = 8, 500
	var a Atomic
	a.Seed(99)
	got := make(chan uint64, workers*each)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				got <- a.Uint64()
			}
		}()
	}
	wg.Wait()
	close(got)
	want := map[uint64]int{}
	s := New(99)
	for i := 0; i < workers*each; i++ {
		want[s.Uint64()]++
	}
	for x := range got {
		if want[x] == 0 {
			t.Fatalf("draw %#x is not one of the stream's first %d, or was handed out twice", x, workers*each)
		}
		want[x]--
	}
	var b Atomic
	b.Seed(99)
	if x, y := b.Float64(), Unit(At(99, 0)); x != y {
		t.Errorf("Atomic.Float64 = %v, want %v", x, y)
	}
}
