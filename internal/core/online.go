package core

import (
	"errors"
	"fmt"

	"ecavs/internal/abr"
	"ecavs/internal/dash"
	"ecavs/internal/netsim"
)

// Online is the paper's online bitrate-selection algorithm
// (Algorithm 1). Per segment it:
//
//  1. estimates bandwidth as the harmonic mean of recent download
//     throughputs and reads the current vibration level,
//  2. computes the reference rung minimising the Eq. 11 objective,
//  3. moves gradually: one rung up when the reference is higher than
//     the previous segment's rung; when lower, it drops to the highest
//     rung in [reference, previous] whose download still completes
//     before the buffer drains (falling back to the reference).
//
// Construct with NewOnline; the zero value is unusable.
type Online struct {
	obj    Objective
	est    netsim.BandwidthEstimator
	direct bool

	// Per-decision scratch, reused across ChooseRung calls so the
	// steady-state decision path does not allocate. An Online instance
	// is owned by one session and must not be shared across goroutines.
	// sc scores the ladder last seen by ChooseRung, keyed by the
	// ladder's backing array identity and length and recompiled only
	// when a new key brings new bitrates (the simulator hands the same
	// ladder slice every segment, so the rung table compiles once per
	// session).
	sc     taskScorer
	ladder *dash.Representation
	costs  []float64
}

var _ abr.Algorithm = (*Online)(nil)

// OnlineOption customises the algorithm.
type OnlineOption func(*Online)

// WithEstimator replaces the default 20-sample harmonic-mean bandwidth
// estimator (used by the estimator ablation).
func WithEstimator(e netsim.BandwidthEstimator) OnlineOption {
	return func(o *Online) {
		if e != nil {
			o.est = e
		}
	}
}

// WithDirectReference disables Algorithm 1's gradual switching: the
// algorithm jumps straight to the reference rung every segment (the
// gradual-switch ablation).
func WithDirectReference() OnlineOption {
	return func(o *Online) { o.direct = true }
}

// NewOnline returns the online algorithm with the given objective.
func NewOnline(obj Objective, opts ...OnlineOption) *Online {
	o := &Online{
		obj: obj,
		est: netsim.NewHarmonicMeanEstimator(netsim.DefaultHarmonicWindow),
	}
	for _, opt := range opts {
		opt(o)
	}
	return o
}

// Name implements abr.Algorithm.
func (o *Online) Name() string { return "Ours" }

// ErrNoSizes is returned when the context lacks per-rung segment
// sizes, which the objective needs to estimate download energy.
var ErrNoSizes = errors.New("core: context missing per-rung segment sizes")

// ChooseRung implements abr.Algorithm (the body of Algorithm 1).
func (o *Online) ChooseRung(ctx abr.Context) (int, error) {
	if len(ctx.Ladder) == 0 {
		return 0, abr.ErrEmptyContext
	}
	bw, ok := o.est.Estimate()
	if !ok || ctx.PrevRung < 0 {
		// Startup: no bandwidth knowledge yet — begin at the bottom.
		return ctx.Ladder.Lowest().Index, nil
	}
	sizes := ctx.SegmentSizesMB
	if len(sizes) != len(ctx.Ladder) {
		return 0, fmt.Errorf("%w: got %d sizes for %d rungs", ErrNoSizes, len(sizes), len(ctx.Ladder))
	}
	prevRung := ctx.PrevRung
	if prevRung >= len(ctx.Ladder) {
		prevRung = len(ctx.Ladder) - 1
	}

	if k := len(ctx.Ladder); o.ladder != &ctx.Ladder[0] || len(o.costs) != k {
		// An HTTP session parses its ladder afresh from each MPD.
		if !sameBitrates(ctx.Ladder, o.sc.bitrates) {
			o.sc.init(o.obj, ctx.Ladder.Bitrates())
			if cap(o.costs) < k {
				o.costs = make([]float64, k)
			}
			o.costs = o.costs[:k]
		}
		o.ladder = &ctx.Ladder[0]
	}
	o.sc.beginTask(TaskObservation{
		SizesMB:       sizes,
		DurationSec:   ctx.SegmentDurationSec,
		SignalDBm:     ctx.SignalDBm,
		BandwidthMbps: bw,
		Vibration:     ctx.VibrationLevel,
		BufferSec:     ctx.BufferSec,
	})
	o.sc.scoreInto(prevRung, o.costs)
	ref := ArgminCost(o.costs)
	if o.direct {
		return ref, nil
	}

	switch {
	case ref > prevRung:
		// Gradual increase: one level per segment (line 5-6).
		return prevRung + 1, nil
	case ref < prevRung:
		// Step down: find the highest rung strictly below the previous
		// one (so the rate keeps descending towards the reference) that
		// still downloads before the buffer drains (line 7-9).
		bwMBps := bw / 8
		if bwMBps > 0 {
			for j := prevRung - 1; j >= ref; j-- {
				if sizes[j]/bwMBps <= ctx.BufferSec {
					return j, nil
				}
			}
		}
		return ref, nil
	default:
		return prevRung, nil
	}
}

// sameBitrates reports whether ladder's bitrates are bitrates, rung
// for rung.
func sameBitrates(ladder dash.Ladder, bitrates []float64) bool {
	if len(ladder) != len(bitrates) {
		return false
	}
	for j, r := range ladder {
		if r.BitrateMbps != bitrates[j] {
			return false
		}
	}
	return true
}

// ObserveDownload implements abr.Algorithm.
func (o *Online) ObserveDownload(thMbps float64) { o.est.Push(thMbps) }

// Reset implements abr.Algorithm.
func (o *Online) Reset() { o.est.Reset() }
