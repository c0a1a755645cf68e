package abr

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"ecavs/internal/dash"
	"ecavs/internal/netsim"
)

func mpcCtx(t *testing.T, bufferSec float64, prevRung int) Context {
	t.Helper()
	ladder := dash.EvalLadder()
	sizes := make([]float64, len(ladder))
	for i, rep := range ladder {
		sizes[i] = rep.BitrateMbps / 8 * 2
	}
	return Context{
		Ladder:             ladder,
		SegmentSizesMB:     sizes,
		SegmentDurationSec: 2,
		BufferSec:          bufferSec,
		BufferThresholdSec: 30,
		PrevRung:           prevRung,
	}
}

func TestMPCStartupAtBottom(t *testing.T) {
	m := NewMPC()
	if m.Name() != "RobustMPC" {
		t.Errorf("Name = %q, want RobustMPC", m.Name())
	}
	rung, err := m.ChooseRung(mpcCtx(t, 0, -1))
	if err != nil || rung != 0 {
		t.Errorf("startup rung = %d, %v; want 0", rung, err)
	}
}

func TestMPCHighBandwidthPicksHighRung(t *testing.T) {
	m := NewMPC()
	for i := 0; i < 5; i++ {
		m.ObserveDownload(40)
	}
	rung, err := m.ChooseRung(mpcCtx(t, 25, 13))
	if err != nil {
		t.Fatal(err)
	}
	if rung < 12 {
		t.Errorf("rung = %d, want near top with 40 Mbps and full buffer", rung)
	}
}

func TestMPCLowBandwidthAvoidsRebuffering(t *testing.T) {
	m := NewMPC()
	for i := 0; i < 5; i++ {
		m.ObserveDownload(1.0)
	}
	// Tiny buffer: picking a high rung would cost lambda * rebuffer.
	rung, err := m.ChooseRung(mpcCtx(t, 2, 13))
	if err != nil {
		t.Fatal(err)
	}
	if got := mpcCtx(t, 2, 13).Ladder[rung].BitrateMbps; got > 1.0 {
		t.Errorf("bitrate = %v Mbps at 1 Mbps prediction and 2 s buffer, want <= 1.0", got)
	}
}

func TestMPCSwitchPenaltySmoothsChoices(t *testing.T) {
	// With a moderate estimate, MPC at prev=top steps down but not to
	// the floor in one go (the switch penalty is linear so it won't
	// crash unless rebuffering forces it).
	m := NewMPC()
	for i := 0; i < 5; i++ {
		m.ObserveDownload(6.0)
	}
	rung, err := m.ChooseRung(mpcCtx(t, 28, 13))
	if err != nil {
		t.Fatal(err)
	}
	if rung < 10 {
		t.Errorf("rung = %d: dropped too far with 6 Mbps prediction and a full buffer", rung)
	}
}

// An erratic history accumulates prediction error, which discounts the
// estimate; a steady history with the same harmonic-mean estimate has
// no error to discount by.
func TestMPCRobustnessDiscountsPrediction(t *testing.T) {
	erratic := NewMPC()
	hm := netsim.NewHarmonicMeanEstimator(5)
	for _, th := range []float64{20, 2, 25, 3, 22, 2.5} {
		erratic.ObserveDownload(th)
		hm.Push(th)
	}
	est, _ := hm.Estimate()
	steady := NewMPC()
	for i := 0; i < 6; i++ {
		steady.ObserveDownload(est)
	}
	ctx := mpcCtx(t, 12, 7)
	r1, err := erratic.ChooseRung(ctx)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := steady.ChooseRung(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if r1 >= r2 {
		t.Errorf("rung %d under an erratic history, want below %d under a steady one at the same %.3f Mbps estimate", r1, r2, est)
	}
}

func TestMPCReset(t *testing.T) {
	m := NewMPC()
	m.ObserveDownload(30)
	m.Reset()
	rung, err := m.ChooseRung(mpcCtx(t, 10, 5))
	if err != nil || rung != 0 {
		t.Errorf("rung after Reset = %d, %v; want 0", rung, err)
	}
}

func TestMPCEmptyLadder(t *testing.T) {
	m := NewMPC()
	if _, err := m.ChooseRung(Context{}); !errors.Is(err, ErrEmptyContext) {
		t.Errorf("err = %v, want ErrEmptyContext", err)
	}
}

// mpcReference is MPC's horizon search as first written: a recursive
// closure memoised in one map per step, all built afresh for each
// decision. It is the oracle the allocation-free search must match
// rung for rung; it reads m's estimators and weights and no scratch.
func mpcReference(m *MPC, ctx Context) int {
	bw, ok := m.est.Estimate()
	if !ok {
		return ctx.Ladder.Lowest().Index
	}
	if errEst, primed := m.lastErr.Estimate(); primed && errEst > 0 {
		bw /= 1 + errEst
	}
	if bw <= 0 {
		return ctx.Ladder.Lowest().Index
	}
	k := len(ctx.Ladder)
	dur := ctx.SegmentDurationSec
	if dur <= 0 {
		dur = 2
	}
	dl := make([]float64, k)
	for j, rep := range ctx.Ladder {
		size := rep.BitrateMbps / 8 * dur
		if len(ctx.SegmentSizesMB) == k {
			size = ctx.SegmentSizesMB[j]
		}
		dl[j] = size / (bw / 8)
	}
	type state struct{ rung, bin int }
	prevBitrate := 0.0
	if ctx.PrevRung >= 0 && ctx.PrevRung < k {
		prevBitrate = ctx.Ladder[ctx.PrevRung].BitrateMbps
	}
	memo := make([]map[state]float64, mpcHorizon+1)
	for i := range memo {
		memo[i] = make(map[state]float64)
	}
	step := func(buf, dl, prevBR, br float64) (gain, nextBuf float64) {
		rebuf := dl - buf
		nextBuf = buf - dl
		if rebuf < 0 {
			rebuf = 0
		}
		if nextBuf < 0 {
			nextBuf = 0
		}
		return br - m.lambdaRebuf*rebuf - m.muSwitch*math.Abs(br-prevBR), nextBuf + dur
	}
	var visit func(step int, st state) float64
	visit = func(s int, st state) float64 {
		if s == mpcHorizon {
			return 0
		}
		if v, done := memo[s][st]; done {
			return v
		}
		best := math.Inf(-1)
		prevBR := prevBitrate
		if st.rung >= 0 {
			prevBR = ctx.Ladder[st.rung].BitrateMbps
		}
		for j := 0; j < k; j++ {
			gain, next := step(binToBuf(st.bin), dl[j], prevBR, ctx.Ladder[j].BitrateMbps)
			if total := gain + visit(s+1, state{j, bufToBin(next)}); total > best {
				best = total
			}
		}
		memo[s][st] = best
		return best
	}
	bestRung, bestTotal := 0, math.Inf(-1)
	for j := 0; j < k; j++ {
		gain, next := step(ctx.BufferSec, dl[j], prevBitrate, ctx.Ladder[j].BitrateMbps)
		if total := gain + visit(1, state{j, bufToBin(next)}); total > bestTotal {
			bestRung, bestTotal = j, total
		}
	}
	return bestRung
}

// The allocation-free search picks the oracle's rung over random
// histories, buffers, previous rungs and ladders — the 14-rung
// evaluation ladder and shorter ones, with and without per-rung sizes —
// as one instance serves decision after decision, so a stale memo
// entry from an earlier decision or a longer ladder would show.
func TestMPCMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	full := dash.EvalLadder()
	m := NewMPC()
	for trial := 0; trial < 400; trial++ {
		if trial%50 == 0 {
			m.Reset()
		}
		m.ObserveDownload(math.Exp(rng.NormFloat64()*1.5) * 4)
		ladder := full
		if rng.Intn(3) == 0 {
			ladder = full[:1+rng.Intn(len(full))]
		}
		ctx := Context{
			Ladder:             ladder,
			SegmentDurationSec: []float64{0, 1, 2, 4}[rng.Intn(4)],
			BufferSec:          []float64{0, 0.1, 2, 12, 29.9, 75}[rng.Intn(6)] + rng.Float64(),
			BufferThresholdSec: 30,
			PrevRung:           rng.Intn(len(ladder)+2) - 1,
		}
		if rng.Intn(4) != 0 {
			ctx.SegmentSizesMB = make([]float64, len(ladder))
			for i, rep := range ladder {
				ctx.SegmentSizesMB[i] = rep.BitrateMbps / 8 * 2 * (0.7 + 0.6*rng.Float64())
			}
		}
		want := mpcReference(m, ctx)
		got, err := m.ChooseRung(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: ChooseRung = %d, reference %d (ctx %+v)", trial, got, want, ctx)
		}
	}
}

// Reset restarts MPC's estimators in place: a new session allocates
// nothing. (Its steady-state decision is pinned at 0 allocations by the
// root TestDecisionAllocs, beside every other policy.)
func TestMPCResetAllocs(t *testing.T) {
	m := NewMPC()
	for _, th := range []float64{6, 9, 4, 12, 7} {
		m.ObserveDownload(th)
	}
	if allocs := testing.AllocsPerRun(10, m.Reset); allocs != 0 {
		t.Errorf("MPC Reset allocates %.1f objects, want 0", allocs)
	}
}
