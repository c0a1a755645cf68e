package core

import (
	"math/rand"
	"testing"

	"ecavs/internal/dash"
	"ecavs/internal/power"
	"ecavs/internal/qoe"
)

// randomLadder draws 1..8 strictly ascending bitrates.
func randomLadder(t *testing.T, rng *rand.Rand) dash.Ladder {
	t.Helper()
	k := 1 + rng.Intn(8)
	bitrates := make([]float64, k)
	b := 0.1 + rng.Float64()*0.5
	for j := range bitrates {
		bitrates[j] = b
		b += 0.1 + rng.Float64()*2
	}
	l, err := dash.NewLadder(bitrates)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// randomTasks draws n tasks with randomized context, including VBR-like
// size jitter so per-rung costs are not ladder-uniform.
func randomTasks(rng *rand.Rand, n int, ladder dash.Ladder) []TaskObservation {
	tasks := make([]TaskObservation, n)
	for i := range tasks {
		dur := 1 + rng.Float64()*5
		jitter := 0.7 + rng.Float64()*0.6
		sizes := make([]float64, len(ladder))
		for j, rep := range ladder {
			sizes[j] = rep.BitrateMbps / 8 * dur * jitter
		}
		tasks[i] = TaskObservation{
			SizesMB:       sizes,
			DurationSec:   dur,
			SignalDBm:     -120 + rng.Float64()*40,
			BandwidthMbps: 1 + rng.Float64()*50,
			Vibration:     rng.Float64() * 8,
			BufferSec:     rng.Float64() * 40,
		}
	}
	return tasks
}

// The rolling-DP fast path must match the explicit graph solvers
// bit-for-bit: same rungs and the exact same float64 total cost. The
// sweep covers randomized ladders (including k=1), task counts
// (including n=1), and the full alpha range — alpha near 0 makes the
// QoE term dominate, so edge costs go negative and the oracle's
// Dijkstra leg exercises its weight shift.
func TestPlanFastPathMatchesVerifyPath(t *testing.T) {
	rng := rand.New(rand.NewSource(20260806))
	alphas := []float64{0, 0.1, 0.5, 0.9, 1}
	for iter := 0; iter < 60; iter++ {
		ladder := randomLadder(t, rng)
		n := 1 + rng.Intn(15)
		tasks := randomTasks(rng, n, ladder)
		alpha := alphas[iter%len(alphas)]
		obj, err := NewObjective(alpha, power.EvalModel(), qoe.Default())
		if err != nil {
			t.Fatal(err)
		}

		plan, err := PlanOptimal(obj, ladder, tasks)
		if err != nil {
			t.Fatalf("iter %d (n=%d k=%d alpha=%v): fast path: %v", iter, n, len(ladder), alpha, err)
		}
		if len(plan.Rungs) != n {
			t.Fatalf("iter %d: plan length %d, want %d", iter, len(plan.Rungs), n)
		}
		// The oracle errors on any mismatch between the fast path and
		// either graph solver: rungs, and the exact float64 total cost.
		if err := verifyPlan(obj, ladder, tasks, plan); err != nil {
			t.Fatalf("iter %d (n=%d k=%d alpha=%v): %v", iter, n, len(ladder), alpha, err)
		}
	}
}
