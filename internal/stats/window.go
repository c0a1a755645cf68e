package stats

import "math"

// SlidingWindow is a fixed-capacity FIFO of float64 samples with O(1)
// append and O(n) aggregate queries. It backs the bandwidth and
// vibration estimators, which repeatedly compute statistics over the
// most recent k samples.
//
// The zero value is not usable; construct with NewSlidingWindow.
type SlidingWindow struct {
	buf   []float64
	head  int // index of the oldest sample
	count int
}

// NewSlidingWindow returns a window holding at most capacity samples.
// capacity must be >= 1; smaller values are raised to 1.
func NewSlidingWindow(capacity int) *SlidingWindow {
	if capacity < 1 {
		capacity = 1
	}
	return &SlidingWindow{buf: make([]float64, capacity)}
}

// Push appends a sample, evicting the oldest one if the window is full.
func (w *SlidingWindow) Push(x float64) {
	if w.count < len(w.buf) {
		w.buf[(w.head+w.count)%len(w.buf)] = x
		w.count++
		return
	}
	w.buf[w.head] = x
	w.head = (w.head + 1) % len(w.buf)
}

// Len reports the number of samples currently held.
func (w *SlidingWindow) Len() int { return w.count }

// Cap reports the window capacity.
func (w *SlidingWindow) Cap() int { return len(w.buf) }

// Reset discards all samples.
func (w *SlidingWindow) Reset() {
	w.head = 0
	w.count = 0
}

// The aggregate queries walk the ring in insertion order directly
// instead of copying the samples out: the bandwidth estimators call
// them once per simulated segment, and the per-call copy was one of
// the session hot path's few remaining allocations.

// Mean returns the arithmetic mean of the held samples (0 if empty).
func (w *SlidingWindow) Mean() float64 {
	if w.count == 0 {
		return 0
	}
	var sum float64
	for i := 0; i < w.count; i++ {
		sum += w.buf[(w.head+i)%len(w.buf)]
	}
	return sum / float64(w.count)
}

// HarmonicMean returns the harmonic mean of the held samples: ErrEmpty
// for an empty window, ErrNonPositive if any sample is <= 0. It is
// dominated by the smallest samples, which makes it a conservative
// bandwidth estimator in the presence of throughput spikes (the reason
// FESTIVE and the paper's online algorithm use it).
func (w *SlidingWindow) HarmonicMean() (float64, error) {
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

// RMS returns the root mean square of the held samples (0 if empty).
func (w *SlidingWindow) RMS() float64 {
	if w.count == 0 {
		return 0
	}
	var sum float64
	for i := 0; i < w.count; i++ {
		x := w.buf[(w.head+i)%len(w.buf)]
		sum += x * x
	}
	return math.Sqrt(sum / float64(w.count))
}

// EWMA is an exponentially weighted moving average with smoothing
// factor alpha in (0, 1]: larger alpha weighs recent samples more.
// The zero value is unusable; construct with NewEWMA.
type EWMA struct {
	alpha  float64
	value  float64
	primed bool
}

// NewEWMA returns an EWMA with the given smoothing factor. alpha is
// clamped to (0, 1].
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 {
		alpha = 0.01
	}
	if alpha > 1 {
		alpha = 1
	}
	return &EWMA{alpha: alpha}
}

// Push folds a new sample into the average.
func (e *EWMA) Push(x float64) {
	if !e.primed {
		e.value = x
		e.primed = true
		return
	}
	e.value = e.alpha*x + (1-e.alpha)*e.value
}

// Value returns the current average, or 0 before the first sample.
func (e *EWMA) Value() float64 { return e.value }

// Primed reports whether at least one sample has been pushed.
func (e *EWMA) Primed() bool { return e.primed }
