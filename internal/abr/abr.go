// Package abr defines the bitrate-adaptation interface the streaming
// simulator drives, plus the baseline algorithms the paper compares
// against (Section V-A): fixed top-bitrate streaming ("Youtube"),
// throughput-based FESTIVE, and buffer-based BBA. The paper's own
// online and optimal algorithms live in internal/core.
package abr

import (
	"errors"
	"fmt"

	"ecavs/internal/dash"
	"ecavs/internal/netsim"
)

// Context is everything an algorithm may observe when choosing the
// bitrate for the next segment. Baselines use the network/buffer
// fields; the paper's context-aware algorithm additionally uses the
// signal strength and vibration level.
type Context struct {
	// SegmentIndex is the segment about to be downloaded (0-based).
	SegmentIndex int
	// Ladder is the available bitrate ladder.
	Ladder dash.Ladder
	// SegmentSizesMB holds this segment's payload per ladder rung.
	SegmentSizesMB []float64
	// SegmentDurationSec is the segment's playback duration.
	SegmentDurationSec float64
	// PrevRung is the previously selected rung, or -1 for the first
	// segment.
	PrevRung int
	// BufferSec is the currently buffered playback time.
	BufferSec float64
	// BufferThresholdSec is the download-pacing threshold (beta).
	BufferThresholdSec float64
	// SignalDBm is the current cellular signal strength.
	SignalDBm float64
	// VibrationLevel is the current Eq. 5 vibration estimate.
	VibrationLevel float64
}

// Algorithm selects a ladder rung per segment.
type Algorithm interface {
	// Name identifies the algorithm in reports.
	Name() string
	// ChooseRung returns the ladder rung index for the next segment.
	ChooseRung(ctx Context) (int, error)
	// ObserveDownload feeds the measured throughput (Mbps) of the
	// just-completed segment download back to the algorithm.
	ObserveDownload(throughputMbps float64)
	// Reset clears per-session state so the algorithm can be reused;
	// sim.NewSession calls it at the start of every session.
	Reset()
}

// ErrEmptyContext is returned when a Context lacks a ladder.
var ErrEmptyContext = errors.New("abr: context has no ladder")

// Fixed always requests the same rung; with Rung = -1 it requests the
// top rung, which is the paper's "Youtube" baseline (constant 5.8 Mbps
// / 1080p).
type Fixed struct {
	// Rung is the rung to request; -1 means the ladder's top rung.
	Rung int
}

var _ Algorithm = (*Fixed)(nil)

// NewYoutube returns the paper's fixed-1080p baseline.
func NewYoutube() *Fixed { return &Fixed{Rung: -1} }

// Name implements Algorithm.
func (f *Fixed) Name() string {
	if f.Rung < 0 {
		return "Youtube"
	}
	return fmt.Sprintf("Fixed(%d)", f.Rung)
}

// ChooseRung implements Algorithm.
func (f *Fixed) ChooseRung(ctx Context) (int, error) {
	if len(ctx.Ladder) == 0 {
		return 0, ErrEmptyContext
	}
	if f.Rung < 0 {
		return ctx.Ladder.Highest().Index, nil
	}
	if f.Rung >= len(ctx.Ladder) {
		return ctx.Ladder.Highest().Index, nil
	}
	return f.Rung, nil
}

// ObserveDownload implements Algorithm.
func (f *Fixed) ObserveDownload(float64) {}

// Reset implements Algorithm.
func (f *Fixed) Reset() {}

// RateBased is the naive throughput-matching strawman: it requests the
// highest rung below the last observed throughput.
type RateBased struct {
	est *netsim.LastSampleEstimator
}

var _ Algorithm = (*RateBased)(nil)

// NewRateBased returns a last-sample rate-matching algorithm.
func NewRateBased() *RateBased {
	return &RateBased{est: netsim.NewLastSampleEstimator()}
}

// Name implements Algorithm.
func (r *RateBased) Name() string { return "RateBased" }

// ChooseRung implements Algorithm.
func (r *RateBased) ChooseRung(ctx Context) (int, error) {
	if len(ctx.Ladder) == 0 {
		return 0, ErrEmptyContext
	}
	bw, ok := r.est.Estimate()
	if !ok {
		return ctx.Ladder.Lowest().Index, nil
	}
	return ctx.Ladder.HighestBelow(bw).Index, nil
}

// ObserveDownload implements Algorithm.
func (r *RateBased) ObserveDownload(thMbps float64) { r.est.Push(thMbps) }

// Reset implements Algorithm.
func (r *RateBased) Reset() { r.est.Reset() }
