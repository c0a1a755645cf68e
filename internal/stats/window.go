package stats

// SlidingWindow is a fixed-capacity FIFO of float64 samples with O(1)
// append and O(n) aggregate queries. It backs the bandwidth and
// vibration estimators, which repeatedly compute statistics over the
// most recent k samples.
//
// The zero value is not usable; construct with NewSlidingWindow.
type SlidingWindow struct {
	buf   []float64 // the samples, a ring
	inv   []float64 // inv[i] = 1/buf[i], kept at Push; shares buf's backing array
	head  int       // index of the oldest sample
	count int
	// nonPositive counts the held samples <= 0, so HarmonicMean reports
	// ErrNonPositive without looking at them.
	nonPositive int
}

// NewSlidingWindow returns a window holding at most capacity samples.
// capacity must be >= 1; smaller values are raised to 1.
func NewSlidingWindow(capacity int) *SlidingWindow {
	if capacity < 1 {
		capacity = 1
	}
	backing := make([]float64, 2*capacity)
	return &SlidingWindow{buf: backing[:capacity:capacity], inv: backing[capacity:]}
}

// Push appends a sample, evicting the oldest one if the window is full.
func (w *SlidingWindow) Push(x float64) {
	i := w.head + w.count
	if i >= len(w.buf) {
		i -= len(w.buf)
	}
	if w.count < len(w.buf) {
		w.count++
	} else { // full: i is the oldest sample's slot
		if w.buf[i] <= 0 {
			w.nonPositive--
		}
		if w.head++; w.head == len(w.buf) {
			w.head = 0
		}
	}
	if x <= 0 {
		w.nonPositive++
	}
	w.buf[i], w.inv[i] = x, 1/x
}

// Len reports the number of samples currently held.
func (w *SlidingWindow) Len() int { return w.count }

// Cap reports the window capacity.
func (w *SlidingWindow) Cap() int { return len(w.buf) }

// Reset discards all samples.
func (w *SlidingWindow) Reset() {
	w.head, w.count, w.nonPositive = 0, 0, 0
}

// HarmonicMean returns the harmonic mean of the held samples: ErrEmpty
// for an empty window, ErrNonPositive if any sample is <= 0. It is
// dominated by the smallest samples, which makes it a conservative
// bandwidth estimator in the presence of throughput spikes (the reason
// FESTIVE and the paper's online algorithm use it).
//
// The bandwidth estimators call it once per simulated segment, so it
// sums the reciprocals Push kept, in place, oldest first, as the ring's
// two contiguous runs — inv[head:] and then the wrapped part at the
// front: the same terms in the same order as a walk dividing each
// sample from the oldest, with no division or index arithmetic per
// sample.
func (w *SlidingWindow) HarmonicMean() (float64, error) {
	if w.count == 0 {
		return 0, ErrEmpty
	}
	if w.nonPositive > 0 {
		return 0, ErrNonPositive
	}
	end := w.head + w.count
	var sumInv float64
	for _, r := range w.inv[w.head:min(end, len(w.inv))] {
		sumInv += r
	}
	for _, r := range w.inv[:max(0, end-len(w.inv))] {
		sumInv += r
	}
	return float64(w.count) / sumInv, nil
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
