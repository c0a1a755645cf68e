package abr

import (
	"errors"
	"math"
)

// BOLA is the Lyapunov buffer-based algorithm of Spiteri, Urgaonkar
// and Sitaraman (INFOCOM 2016), cited by the paper as reference [5].
// BOLA-BASIC maximises, per segment, the drift-plus-penalty score
//
//	(V*(u_j + gp) - Q/p) / s_j
//
// where u_j = ln(s_j / s_min) is the rung's utility, Q the buffer
// level, p the segment duration, s_j the rung size, and V, gp the
// Lyapunov control parameters. V is derived from the buffer target so
// the top rung is reached just below the threshold.
//
// BOLA keeps no state between decisions, only a scratch slice for the
// nominal sizes it falls back to; construct it with NewBOLA.
type BOLA struct {
	sizes []float64 // fallback sizes, sized on first use and reused
}

var _ Algorithm = (*BOLA)(nil)

// bolaGP is the gamma*p utility offset, which controls how strongly
// BOLA avoids rebuffering: 5.0, the reference player's stable default.
const bolaGP = 5.0

// NewBOLA returns the BOLA-BASIC baseline.
func NewBOLA() *BOLA { return &BOLA{} }

// Name implements Algorithm.
func (b *BOLA) Name() string { return "BOLA" }

// ChooseRung implements Algorithm.
func (b *BOLA) ChooseRung(ctx Context) (int, error) {
	if len(ctx.Ladder) == 0 {
		return 0, ErrEmptyContext
	}
	sizes := ctx.SegmentSizesMB
	if len(sizes) != len(ctx.Ladder) {
		// Fall back to nominal sizes when the manifest is not supplied.
		if cap(b.sizes) < len(ctx.Ladder) {
			b.sizes = make([]float64, len(ctx.Ladder))
		}
		sizes = b.sizes[:len(ctx.Ladder)]
		dur := ctx.SegmentDurationSec
		if dur <= 0 {
			dur = 2
		}
		for i, rep := range ctx.Ladder {
			sizes[i] = rep.BitrateMbps / 8 * dur
		}
	}
	p := ctx.SegmentDurationSec
	if p <= 0 {
		p = 2
	}
	beta := ctx.BufferThresholdSec
	if beta <= 0 {
		beta = 30
	}

	sMin := sizes[0]
	if sMin <= 0 {
		return 0, errors.New("abr: BOLA requires positive segment sizes")
	}
	uMax := math.Log(sizes[len(sizes)-1] / sMin)
	// V such that the top rung's score turns positive once the buffer
	// is comfortably below the threshold: at Q = beta - p, the top rung
	// should break even.
	v := (beta/p - 1) / (uMax + bolaGP)
	q := ctx.BufferSec / p // buffer in segments

	best := 0
	bestScore := math.Inf(-1)
	for j, s := range sizes {
		u := math.Log(s / sMin)
		score := (v*(u+bolaGP) - q) / s
		if score > bestScore {
			bestScore = score
			best = j
		}
	}
	return best, nil
}

// ObserveDownload implements Algorithm (BOLA-BASIC ignores throughput).
func (b *BOLA) ObserveDownload(float64) {}

// Reset implements Algorithm.
func (b *BOLA) Reset() {}
