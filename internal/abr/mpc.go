package abr

import (
	"math"

	"ecavs/internal/dash"
	"ecavs/internal/netsim"
)

// MPC is the model-predictive-control algorithm of Yin, Jindal, Sekar
// and Sinopoli (SIGCOMM 2015), cited by the paper as reference [17]:
// it plans a short horizon ahead against a bandwidth prediction,
// maximising a linear QoE objective (average bitrate, minus rebuffer
// time, minus bitrate switches) and commits only the first step. It
// runs as the RobustMPC variant, which discounts the prediction by its
// recent error.
//
// The horizon search runs as dynamic programming over (step, rung)
// with a discretised buffer state, which keeps the 14-rung ladder
// tractable.
//
// Construct with NewMPC; the zero value is unusable.
type MPC struct {
	lambdaRebuf float64
	muSwitch    float64

	est     *netsim.HarmonicMeanEstimator
	lastErr *netsim.EWMAEstimator // tracks relative prediction error

	// Per-decision scratch, sized on first use and reused, so a decision
	// allocates nothing: dl is each rung's download time at the
	// predicted rate, and memo the horizon search's best value from each
	// (step, rung, buffer bin) state, valid where seen holds this
	// decision's gen — a new decision bumps gen instead of clearing the
	// table. ladder and dur are the decision's, for visit.
	dl     []float64
	memo   []float64
	seen   []uint32
	gen    uint32
	ladder dash.Ladder
	dur    float64
}

var _ Algorithm = (*MPC)(nil)

// mpcHorizon is the planning horizon in segments.
const mpcHorizon = 5

// NewMPC returns the RobustMPC baseline.
func NewMPC() *MPC {
	return &MPC{
		lambdaRebuf: 4.3, // rebuffer weight, as in the MPC paper's setup
		muSwitch:    1.0,
		est:         netsim.NewHarmonicMeanEstimator(5),
		lastErr:     netsim.NewEWMAEstimator(0.3),
	}
}

// Name implements Algorithm.
func (m *MPC) Name() string { return "RobustMPC" }

// bufferBins discretises the buffer for the DP (0.25 s resolution):
// mpcBins bins cover [0, mpcBufMax].
const (
	mpcBufStep = 0.25
	mpcBufMax  = 60.0
	mpcBins    = int(mpcBufMax/mpcBufStep) + 1
)

// bufToBin returns buf's bin in [0, mpcBins), the memo table's range.
// A NaN buffer lands in bin 0: the float is checked before it is
// converted, since Go leaves an out-of-range float-to-int conversion
// to the implementation.
func bufToBin(buf float64) int {
	if !(buf > 0) {
		buf = 0
	}
	if buf > mpcBufMax {
		buf = mpcBufMax
	}
	return int(buf / mpcBufStep)
}

func binToBuf(bin int) float64 { return float64(bin) * mpcBufStep }

// ChooseRung implements Algorithm.
func (m *MPC) ChooseRung(ctx Context) (int, error) {
	if len(ctx.Ladder) == 0 {
		return 0, ErrEmptyContext
	}
	bw, ok := m.est.Estimate()
	if !ok {
		return ctx.Ladder.Lowest().Index, nil
	}
	// Discount by the tracked relative prediction error.
	if errEst, primed := m.lastErr.Estimate(); primed && errEst > 0 {
		bw /= 1 + errEst
	}
	if bw <= 0 {
		return ctx.Ladder.Lowest().Index, nil
	}

	k := len(ctx.Ladder)
	dur := ctx.SegmentDurationSec
	if dur <= 0 {
		dur = 2
	}
	// Per-rung download time of one segment at the predicted rate.
	if cap(m.dl) < k {
		m.dl = make([]float64, k)
	}
	m.dl = m.dl[:k]
	for j, rep := range ctx.Ladder {
		size := rep.BitrateMbps / 8 * dur
		if len(ctx.SegmentSizesMB) == k {
			size = ctx.SegmentSizesMB[j]
		}
		m.dl[j] = size / (bw / 8)
	}
	// A fresh generation invalidates every memo entry at once; the
	// table is cleared only when the 32-bit counter wraps.
	if n := (mpcHorizon - 1) * k * mpcBins; len(m.memo) < n {
		m.memo, m.seen, m.gen = make([]float64, n), make([]uint32, n), 0
	}
	if m.gen++; m.gen == 0 {
		clear(m.seen)
		m.gen = 1
	}
	m.ladder, m.dur = ctx.Ladder, dur

	prevBitrate := 0.0
	if ctx.PrevRung >= 0 && ctx.PrevRung < k {
		prevBitrate = ctx.Ladder[ctx.PrevRung].BitrateMbps
	}
	// Choose the first step maximising gain + future value.
	bestRung := 0
	bestTotal := math.Inf(-1)
	buf := ctx.BufferSec
	for j := 0; j < k; j++ {
		rebuf := m.dl[j] - buf
		nextBuf := buf - m.dl[j]
		if rebuf < 0 {
			rebuf = 0
		}
		if nextBuf < 0 {
			nextBuf = 0
		}
		nextBuf += dur
		br := ctx.Ladder[j].BitrateMbps
		gain := br - m.lambdaRebuf*rebuf - m.muSwitch*math.Abs(br-prevBitrate)
		total := gain + m.visit(1, j, bufToBin(nextBuf))
		if total > bestTotal {
			bestTotal = total
			bestRung = j
		}
	}
	return bestRung, nil
}

// visit returns the best value of the MPC QoE
//
//	sum bitrate - lambda*rebuffer - mu*|bitrate switch|
//
// achievable from step onward, rung having been chosen with the buffer
// in bin: dynamic programming over (step, rung, bufferBin), computed
// backwards and memoised per decision.
func (m *MPC) visit(step, rung, bin int) float64 {
	if step == mpcHorizon {
		return 0
	}
	slot := ((step-1)*len(m.dl)+rung)*mpcBins + bin
	if m.seen[slot] == m.gen {
		return m.memo[slot]
	}
	best := math.Inf(-1)
	buf := binToBuf(bin)
	prevBR := m.ladder[rung].BitrateMbps
	for j, dl := range m.dl {
		rebuf := dl - buf
		nextBuf := buf - dl
		if rebuf < 0 {
			rebuf = 0
		}
		if nextBuf < 0 {
			nextBuf = 0
		}
		nextBuf += m.dur
		br := m.ladder[j].BitrateMbps
		gain := br - m.lambdaRebuf*rebuf - m.muSwitch*math.Abs(br-prevBR)
		total := gain + m.visit(step+1, j, bufToBin(nextBuf))
		if total > best {
			best = total
		}
	}
	m.memo[slot], m.seen[slot] = best, m.gen
	return best
}

// ObserveDownload implements Algorithm.
func (m *MPC) ObserveDownload(thMbps float64) {
	if pred, ok := m.est.Estimate(); ok && thMbps > 0 {
		relErr := math.Abs(pred-thMbps) / thMbps
		m.lastErr.Push(relErr)
	}
	m.est.Push(thMbps)
}

// Reset implements Algorithm.
func (m *MPC) Reset() {
	m.est.Reset()
	m.lastErr.Reset()
}
