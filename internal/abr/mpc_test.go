package abr

import (
	"errors"
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
