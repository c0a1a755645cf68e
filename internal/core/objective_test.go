package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"ecavs/internal/power"
	"ecavs/internal/qoe"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func testObjective(t *testing.T, alpha float64) Objective {
	t.Helper()
	obj, err := NewObjective(alpha, power.EvalModel(), qoe.Default())
	if err != nil {
		t.Fatal(err)
	}
	return obj
}

func TestNewObjectiveValidation(t *testing.T) {
	if _, err := NewObjective(-0.1, power.Default(), qoe.Default()); !errors.Is(err, ErrBadAlpha) {
		t.Errorf("err = %v, want ErrBadAlpha", err)
	}
	if _, err := NewObjective(1.1, power.Default(), qoe.Default()); !errors.Is(err, ErrBadAlpha) {
		t.Errorf("err = %v, want ErrBadAlpha", err)
	}
	badP := power.Default()
	badP.BasePowerW = -1
	if _, err := NewObjective(0.5, badP, qoe.Default()); err == nil {
		t.Error("invalid power model accepted")
	}
	badQ := qoe.Default()
	badQ.C1 = 0
	if _, err := NewObjective(0.5, power.Default(), badQ); err == nil {
		t.Error("invalid qoe model accepted")
	}
}

func TestEstimateComposition(t *testing.T) {
	obj := testObjective(t, 0.5)
	c := Candidate{
		BitrateMbps:   3.0,
		SizeMB:        0.75,
		DurationSec:   2,
		SignalDBm:     -95,
		BandwidthMbps: 20,
		BufferSec:     30,
		Vibration:     4,
	}
	est := obj.Estimate(c)
	if est.EnergyJ <= 0 {
		t.Errorf("EnergyJ = %v, want > 0", est.EnergyJ)
	}
	if est.QoE < qoe.MinQuality || est.QoE > qoe.MaxQuality {
		t.Errorf("QoE = %v escapes scale", est.QoE)
	}
	// An ample buffer predicts no stall: the QoE term sees none.
	if want := obj.QoE.SegmentQoE(qoe.Segment{BitrateMbps: 3, Vibration: 4}); est.QoE != want {
		t.Errorf("QoE = %v, want the stall-free %v (ample buffer)", est.QoE, want)
	}
	// Starved buffer predicts a stall and both models see it.
	c.BandwidthMbps = 0.5
	c.BufferSec = 1
	est2 := obj.Estimate(c)
	if est2.QoE >= est.QoE {
		t.Error("stall did not hurt QoE")
	}
	if est2.EnergyJ <= est.EnergyJ {
		t.Error("stall did not cost energy")
	}
}

func TestCostWeighting(t *testing.T) {
	ref := Estimate{EnergyJ: 10, QoE: 4}
	est := Estimate{EnergyJ: 5, QoE: 2}
	// alpha = 1: pure energy.
	objE := testObjective(t, 1)
	if got := objE.Cost(est, ref); !almostEqual(got, 0.5, 1e-12) {
		t.Errorf("alpha=1 cost = %v, want 0.5", got)
	}
	// alpha = 0: pure (negated) QoE.
	objQ := testObjective(t, 0)
	if got := objQ.Cost(est, ref); !almostEqual(got, -0.5, 1e-12) {
		t.Errorf("alpha=0 cost = %v, want -0.5", got)
	}
	// Balanced.
	obj := testObjective(t, 0.5)
	if got := obj.Cost(est, ref); !almostEqual(got, 0, 1e-12) {
		t.Errorf("alpha=0.5 cost = %v, want 0", got)
	}
	// Degenerate reference scores neutrally.
	if got := obj.Cost(est, Estimate{}); got != 0 {
		t.Errorf("degenerate ref cost = %v, want 0", got)
	}
}

func TestScoreRungsReferenceIsTopRung(t *testing.T) {
	obj := testObjective(t, 0.5)
	base := Candidate{
		DurationSec:   2,
		SignalDBm:     -100,
		BandwidthMbps: 20,
		BufferSec:     30,
		Vibration:     6,
	}
	bitrates := []float64{0.1, 1.5, 5.8}
	sizes := []float64{0.025, 0.375, 1.45}
	costs, ests, err := obj.ScoreRungs(base, bitrates, sizes)
	if err != nil {
		t.Fatal(err)
	}
	if len(costs) != 3 || len(ests) != 3 {
		t.Fatalf("lengths = %d, %d; want 3, 3", len(costs), len(ests))
	}
	// Top rung scores alpha - (1-alpha) = 0 at alpha = 0.5 against
	// itself.
	if !almostEqual(costs[2], 0, 1e-12) {
		t.Errorf("top-rung cost = %v, want 0", costs[2])
	}
	// Energy must ascend with bitrate.
	if !(ests[0].EnergyJ < ests[1].EnergyJ && ests[1].EnergyJ < ests[2].EnergyJ) {
		t.Error("energies not ascending with bitrate")
	}
}

func TestScoreRungsErrors(t *testing.T) {
	obj := testObjective(t, 0.5)
	if _, _, err := obj.ScoreRungs(Candidate{}, nil, nil); err == nil {
		t.Error("empty rungs accepted")
	}
	if _, _, err := obj.ScoreRungs(Candidate{}, []float64{1}, []float64{1, 2}); err == nil {
		t.Error("mismatched lengths accepted")
	}
}

// In a vibrating, weak-signal context the balanced objective prefers a
// mid/low rung; in a quiet, strong-signal context it prefers a higher
// rung — the paper's core context-awareness claim.
func TestObjectiveContextAwareness(t *testing.T) {
	obj := testObjective(t, 0.5)
	bitrates := []float64{0.1, 0.375, 0.75, 1.5, 2.3, 3.0, 4.3, 5.8}
	sizes := make([]float64, len(bitrates))
	for i, r := range bitrates {
		sizes[i] = r / 8 * 2
	}
	vehicle := Candidate{DurationSec: 2, SignalDBm: -110, BandwidthMbps: 15, BufferSec: 30, Vibration: 6.8}
	room := Candidate{DurationSec: 2, SignalDBm: -88, BandwidthMbps: 40, BufferSec: 30, Vibration: 0.2}

	cv, _, err := obj.ScoreRungs(vehicle, bitrates, sizes)
	if err != nil {
		t.Fatal(err)
	}
	cr, _, err := obj.ScoreRungs(room, bitrates, sizes)
	if err != nil {
		t.Fatal(err)
	}
	jV, jR := ArgminCost(cv), ArgminCost(cr)
	if jV > jR {
		t.Errorf("vehicle rung %d > room rung %d; context-awareness inverted", jV, jR)
	}
	if jV == len(bitrates)-1 {
		t.Error("vehicle context picked the top rung; no energy saving possible")
	}
	if bitrates[jR] < 1.5 {
		t.Errorf("room context picked %v Mbps; too conservative", bitrates[jR])
	}
}

func TestArgminCost(t *testing.T) {
	tests := []struct {
		name  string
		costs []float64
		want  int
	}{
		{name: "single", costs: []float64{1}, want: 0},
		{name: "middle", costs: []float64{3, 1, 2}, want: 1},
		{name: "tie goes low", costs: []float64{2, 1, 1}, want: 1},
		{name: "descending", costs: []float64{3, 2, 1}, want: 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := ArgminCost(tt.costs); got != tt.want {
				t.Errorf("ArgminCost(%v) = %d, want %d", tt.costs, got, tt.want)
			}
		})
	}
}

// The scorer must be bit-identical to the ScoreRungsInto oracle across
// random tasks, first segments included: Online, the joint policy and
// the optimal planner all score through it, and the campaign
// determinism tests and the metrics digests compare runs with ==.
func TestTaskScorerBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	obj := testObjective(t, 0.5)
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(10)
		bitrates := make([]float64, k)
		sizes := make([]float64, k)
		r := 0.1 + rng.Float64()
		for j := 0; j < k; j++ {
			bitrates[j] = r
			sizes[j] = r / 8 * 2 * (0.8 + 0.4*rng.Float64())
			r += rng.Float64() * 2
		}
		prevRung := rng.Intn(k + 1) // k = first segment
		task := TaskObservation{
			SizesMB:       sizes,
			DurationSec:   2,
			SignalDBm:     -120 + rng.Float64()*40,
			BandwidthMbps: rng.Float64() * 40,
			BufferSec:     rng.Float64() * 40,
			Vibration:     rng.Float64() * 6,
		}
		base := Candidate{
			DurationSec:   task.DurationSec,
			SignalDBm:     task.SignalDBm,
			BandwidthMbps: task.BandwidthMbps,
			BufferSec:     task.BufferSec,
			Vibration:     task.Vibration,
		}
		if prevRung < k {
			base.PrevBitrateMbps = bitrates[prevRung]
		}
		wantCosts := make([]float64, k)
		wantEsts := make([]Estimate, k)
		if err := obj.ScoreRungsInto(base, bitrates, sizes, wantCosts, wantEsts); err != nil {
			t.Fatal(err)
		}
		var sc taskScorer
		sc.init(obj, bitrates)
		sc.beginTask(task)
		gotQoE := make([]float64, k)
		sc.qoeInto(prevRung, gotQoE)
		gotCosts := make([]float64, k)
		sc.scoreInto(prevRung, gotCosts)
		for j := 0; j < k; j++ {
			got := Estimate{EnergyJ: sc.energyJ[j], QoE: gotQoE[j]}
			if gotCosts[j] != wantCosts[j] || got != wantEsts[j] {
				t.Fatalf("trial %d rung %d (prev %d): scorer cost=%v est=%+v, reference cost=%v est=%+v",
					trial, j, prevRung, gotCosts[j], got, wantCosts[j], wantEsts[j])
			}
		}
	}
}
