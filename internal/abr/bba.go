package abr

import (
	"ecavs/internal/netsim"
)

// BBA is the buffer-based baseline of Huang et al. (SIGCOMM 2014) as
// the paper describes it: throughput-driven during startup, then — once
// the buffer reaches the steady state — a linear map from buffer
// occupancy to bitrate between a reservoir and a cushion, requesting
// the top rung whenever the buffer exceeds the cushion (the
// "aggressive after steady state" behaviour the paper calls out).
//
// Construct with NewBBA; the zero value is unusable.
type BBA struct {
	est    *netsim.LastSampleEstimator
	steady bool
}

var _ Algorithm = (*BBA)(nil)

// bbaReservoirFrac and bbaCushionFrac position the linear region
// within the buffer threshold: reservoir = bbaReservoirFrac x beta,
// cushion top = bbaCushionFrac x beta.
const (
	bbaReservoirFrac = 0.25
	bbaCushionFrac   = 0.9
)

// NewBBA returns the BBA baseline.
func NewBBA() *BBA {
	return &BBA{est: netsim.NewLastSampleEstimator()}
}

// Name implements Algorithm.
func (b *BBA) Name() string { return "BBA" }

// ChooseRung implements Algorithm.
func (b *BBA) ChooseRung(ctx Context) (int, error) {
	if len(ctx.Ladder) == 0 {
		return 0, ErrEmptyContext
	}
	beta := ctx.BufferThresholdSec
	if beta <= 0 {
		beta = 30
	}
	reservoir := bbaReservoirFrac * beta
	cushionTop := bbaCushionFrac * beta

	// Startup phase: follow throughput until the buffer first clears
	// the reservoir.
	if !b.steady {
		if ctx.BufferSec >= reservoir {
			b.steady = true
		} else {
			bw, ok := b.est.Estimate()
			if !ok {
				return ctx.Ladder.Lowest().Index, nil
			}
			return ctx.Ladder.HighestBelow(bw).Index, nil
		}
	}

	switch {
	case ctx.BufferSec <= reservoir:
		return ctx.Ladder.Lowest().Index, nil
	case ctx.BufferSec >= cushionTop:
		return ctx.Ladder.Highest().Index, nil
	default:
		// Linear interpolation across rungs.
		frac := (ctx.BufferSec - reservoir) / (cushionTop - reservoir)
		idx := int(frac * float64(len(ctx.Ladder)-1))
		if idx >= len(ctx.Ladder) {
			idx = len(ctx.Ladder) - 1
		}
		return idx, nil
	}
}

// ObserveDownload implements Algorithm.
func (b *BBA) ObserveDownload(thMbps float64) { b.est.Push(thMbps) }

// Reset implements Algorithm.
func (b *BBA) Reset() {
	b.est.Reset()
	b.steady = false
}
