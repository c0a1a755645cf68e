package netsim

import (
	"fmt"

	"ecavs/internal/stats"
)

// BandwidthEstimator predicts the near-future link rate from past
// per-segment download throughputs. Implementations receive throughput
// samples in Mbps and report their estimate in Mbps.
type BandwidthEstimator interface {
	// Push records a completed segment's measured throughput (Mbps).
	Push(throughputMbps float64)
	// Estimate returns the predicted bandwidth (Mbps) and whether
	// enough samples exist to estimate at all.
	Estimate() (float64, bool)
	// Reset discards history.
	Reset()
}

// HarmonicMeanEstimator predicts bandwidth as the harmonic mean of the
// last k samples — the estimator FESTIVE and the paper's online
// algorithm use, chosen because it damps throughput spikes.
type HarmonicMeanEstimator struct {
	win *stats.SlidingWindow
}

var _ BandwidthEstimator = (*HarmonicMeanEstimator)(nil)

// DefaultHarmonicWindow is FESTIVE's window of 20 samples.
const DefaultHarmonicWindow = 20

// NewHarmonicMeanEstimator returns an estimator over the last k
// samples (k < 1 is raised to 1).
func NewHarmonicMeanEstimator(k int) *HarmonicMeanEstimator {
	return &HarmonicMeanEstimator{win: stats.NewSlidingWindow(k)}
}

// Push implements BandwidthEstimator. Non-positive samples are
// recorded as a tiny positive value so the harmonic mean stays
// defined while still reflecting the outage.
func (e *HarmonicMeanEstimator) Push(throughputMbps float64) {
	if throughputMbps <= 0 {
		throughputMbps = 1e-6
	}
	e.win.Push(throughputMbps)
}

// Estimate implements BandwidthEstimator.
func (e *HarmonicMeanEstimator) Estimate() (float64, bool) {
	hm, err := e.win.HarmonicMean()
	if err != nil {
		return 0, false
	}
	return hm, true
}

// Reset implements BandwidthEstimator.
func (e *HarmonicMeanEstimator) Reset() { e.win.Reset() }

// String identifies the estimator in reports.
func (e *HarmonicMeanEstimator) String() string {
	return fmt.Sprintf("harmonic(%d)", e.win.Cap())
}

// EWMAEstimator predicts bandwidth as an exponentially weighted moving
// average of past samples.
type EWMAEstimator struct {
	ewma  stats.EWMA // by value, so Reset restarts it in place
	alpha float64
}

var _ BandwidthEstimator = (*EWMAEstimator)(nil)

// NewEWMAEstimator returns an EWMA estimator with smoothing alpha.
func NewEWMAEstimator(alpha float64) *EWMAEstimator {
	return &EWMAEstimator{ewma: *stats.NewEWMA(alpha), alpha: alpha}
}

// Push implements BandwidthEstimator.
func (e *EWMAEstimator) Push(throughputMbps float64) {
	if throughputMbps < 0 {
		throughputMbps = 0
	}
	e.ewma.Push(throughputMbps)
}

// Estimate implements BandwidthEstimator.
func (e *EWMAEstimator) Estimate() (float64, bool) {
	if !e.ewma.Primed() {
		return 0, false
	}
	return e.ewma.Value(), true
}

// Reset implements BandwidthEstimator.
func (e *EWMAEstimator) Reset() { e.ewma = *stats.NewEWMA(e.alpha) }

// String identifies the estimator in reports.
func (e *EWMAEstimator) String() string { return fmt.Sprintf("ewma(%.2f)", e.alpha) }

// LastSampleEstimator naively predicts that the next throughput equals
// the last observed one (the strawman the harmonic mean is compared
// against in the ablation).
type LastSampleEstimator struct {
	last   float64
	primed bool
}

var _ BandwidthEstimator = (*LastSampleEstimator)(nil)

// NewLastSampleEstimator returns a last-sample estimator.
func NewLastSampleEstimator() *LastSampleEstimator { return &LastSampleEstimator{} }

// Push implements BandwidthEstimator.
func (e *LastSampleEstimator) Push(throughputMbps float64) {
	if throughputMbps < 0 {
		throughputMbps = 0
	}
	e.last = throughputMbps
	e.primed = true
}

// Estimate implements BandwidthEstimator.
func (e *LastSampleEstimator) Estimate() (float64, bool) { return e.last, e.primed }

// Reset implements BandwidthEstimator.
func (e *LastSampleEstimator) Reset() { e.last = 0; e.primed = false }

// String identifies the estimator in reports.
func (e *LastSampleEstimator) String() string { return "last-sample" }
