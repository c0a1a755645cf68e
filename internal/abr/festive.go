package abr

import (
	"ecavs/internal/netsim"
)

// FESTIVE is the throughput-based baseline of Jiang et al. (IEEE/ACM
// ToN 2014), as the paper describes it in Section V-A: it estimates
// bandwidth as the harmonic mean of the last 20 per-segment
// throughputs and requests the highest rung just below the estimate.
// For stability it also moves at most one rung per decision — FESTIVE's
// gradual-switching rule — which the paper's own online algorithm
// mirrors.
//
// Construct with NewFESTIVE; the zero value is unusable.
type FESTIVE struct {
	est *netsim.HarmonicMeanEstimator
}

var _ Algorithm = (*FESTIVE)(nil)

// NewFESTIVE returns the FESTIVE baseline.
func NewFESTIVE() *FESTIVE {
	return &FESTIVE{est: netsim.NewHarmonicMeanEstimator(netsim.DefaultHarmonicWindow)}
}

// Name implements Algorithm.
func (f *FESTIVE) Name() string { return "FESTIVE" }

// ChooseRung implements Algorithm.
func (f *FESTIVE) ChooseRung(ctx Context) (int, error) {
	if len(ctx.Ladder) == 0 {
		return 0, ErrEmptyContext
	}
	bw, ok := f.est.Estimate()
	if !ok {
		// Startup: begin at the bottom rung.
		return ctx.Ladder.Lowest().Index, nil
	}
	target := ctx.Ladder.HighestBelow(bw).Index
	if ctx.PrevRung < 0 {
		return target, nil
	}
	// Gradual switching: move at most one rung towards the target.
	switch {
	case target > ctx.PrevRung:
		return ctx.PrevRung + 1, nil
	case target < ctx.PrevRung:
		return ctx.PrevRung - 1, nil
	default:
		return target, nil
	}
}

// ObserveDownload implements Algorithm.
func (f *FESTIVE) ObserveDownload(thMbps float64) { f.est.Push(thMbps) }

// Reset implements Algorithm.
func (f *FESTIVE) Reset() { f.est.Reset() }
