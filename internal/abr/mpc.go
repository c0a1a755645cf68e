package abr

import (
	"math"

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

// bufferBins discretises the buffer for the DP (0.25 s resolution).
const (
	mpcBufStep = 0.25
	mpcBufMax  = 60.0
)

func bufToBin(buf float64) int {
	if buf < 0 {
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
	dl := make([]float64, k)
	for j, rep := range ctx.Ladder {
		size := rep.BitrateMbps / 8 * dur
		if len(ctx.SegmentSizesMB) == k {
			size = ctx.SegmentSizesMB[j]
		}
		dl[j] = size / (bw / 8)
	}

	// DP over (step, rung, bufferBin) maximising the MPC QoE:
	//   sum bitrate - lambda*rebuffer - mu*|bitrate switch|
	type state struct {
		rung int
		bin  int
	}
	prevBitrate := 0.0
	if ctx.PrevRung >= 0 && ctx.PrevRung < k {
		prevBitrate = ctx.Ladder[ctx.PrevRung].BitrateMbps
	}

	// value[state] = best objective achievable from this state onward;
	// computed backwards. To bound the state space we memoise per step.
	memo := make([]map[state]float64, mpcHorizon+1)
	for i := range memo {
		memo[i] = make(map[state]float64)
	}
	var visit func(step int, st state) float64
	visit = func(step int, st state) float64 {
		if step == mpcHorizon {
			return 0
		}
		if v, done := memo[step][st]; done {
			return v
		}
		best := math.Inf(-1)
		buf := binToBuf(st.bin)
		for j := 0; j < k; j++ {
			rebuf := dl[j] - buf
			nextBuf := buf - dl[j]
			if rebuf < 0 {
				rebuf = 0
			}
			if nextBuf < 0 {
				nextBuf = 0
			}
			nextBuf += dur
			prevBR := prevBitrate
			if st.rung >= 0 {
				prevBR = ctx.Ladder[st.rung].BitrateMbps
			}
			br := ctx.Ladder[j].BitrateMbps
			gain := br - m.lambdaRebuf*rebuf - m.muSwitch*math.Abs(br-prevBR)
			total := gain + visit(step+1, state{rung: j, bin: bufToBin(nextBuf)})
			if total > best {
				best = total
			}
		}
		memo[step][st] = best
		return best
	}

	// Choose the first step maximising gain + future value.
	start := state{rung: ctx.PrevRung, bin: bufToBin(ctx.BufferSec)}
	if start.rung >= k {
		start.rung = k - 1
	}
	bestRung := 0
	bestTotal := math.Inf(-1)
	buf := ctx.BufferSec
	for j := 0; j < k; j++ {
		rebuf := dl[j] - buf
		nextBuf := buf - dl[j]
		if rebuf < 0 {
			rebuf = 0
		}
		if nextBuf < 0 {
			nextBuf = 0
		}
		nextBuf += dur
		br := ctx.Ladder[j].BitrateMbps
		gain := br - m.lambdaRebuf*rebuf - m.muSwitch*math.Abs(br-prevBitrate)
		total := gain + visit(1, state{rung: j, bin: bufToBin(nextBuf)})
		if total > bestTotal {
			bestTotal = total
			bestRung = j
		}
	}
	return bestRung, nil
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
	m.lastErr = netsim.NewEWMAEstimator(0.3)
}
