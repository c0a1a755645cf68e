package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"ecavs/internal/dash"
	"ecavs/internal/graph"
)

// The planner's test oracle: the explicit layered-DAG solvers of
// internal/graph, which PlanOptimal's rolling DP replaced in
// production. Only tests build the graph.

// planVerified runs PlanOptimal and fails the test unless both graph
// solvers agree with its plan.
func planVerified(t *testing.T, obj Objective, ladder dash.Ladder, tasks []TaskObservation) Plan {
	t.Helper()
	plan, err := PlanOptimal(obj, ladder, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if err := verifyPlan(newTaskScorer(obj, ladder.Bitrates()), tasks, plan); err != nil {
		t.Fatalf("oracle: %v", err)
	}
	return plan
}

// verifyPlan re-solves the plan on the explicit layered DAG of Fig. 4
// with both graph solvers and errors if either disagrees with
// PlanOptimal's rolling DP.
// The topological DP must match the rolling DP bit-for-bit (same
// relaxation order, same float64 additions); Dijkstra runs on weights
// shifted to non-negative and is checked within a relative tolerance,
// as its different accumulation order forfeits bitwise equality.
func verifyPlan(sc *taskScorer, tasks []TaskObservation, plan Plan) error {
	n := len(tasks)
	k := len(sc.bitrates)

	// Materialise every per-task, per-(prev, rung) cost row: costs
	// [i][p][j] is the cost of rung j at task i given previous rung p;
	// p == k means "no previous" (first task).
	costs := make([][][]float64, n)
	minCost := math.Inf(1)
	for i, t := range tasks {
		costs[i] = make([][]float64, k+1)
		sc.beginTask(t)
		for p := 0; p <= k; p++ {
			row := make([]float64, k)
			sc.scoreInto(t, p, row)
			costs[i][p] = row
			for _, c := range row {
				if c < minCost {
					minCost = c
				}
			}
		}
	}

	// Node numbering: 0 = source, 1 + i*k + j = (task i, rung j),
	// sink = 1 + n*k.
	node := func(i, j int) int { return 1 + i*k + j }
	sink := 1 + n*k
	shift := 0.0
	if minCost < 0 {
		shift = -minCost
	}

	build := func(withShift float64) (*graph.Graph, error) {
		g := graph.New(sink + 1)
		g.Reserve(0, k)
		for j := 0; j < k; j++ {
			if err := g.AddEdge(0, node(0, j), costs[0][k][j]+withShift); err != nil {
				return nil, err
			}
		}
		for i := 1; i < n; i++ {
			for p := 0; p < k; p++ {
				g.Reserve(node(i-1, p), k)
				for j := 0; j < k; j++ {
					if err := g.AddEdge(node(i-1, p), node(i, j), costs[i][p][j]+withShift); err != nil {
						return nil, err
					}
				}
			}
		}
		for j := 0; j < k; j++ {
			if err := g.AddEdge(node(n-1, j), sink, 0); err != nil {
				return nil, err
			}
		}
		return g, nil
	}

	// Topological DP on the raw (possibly negative) weights.
	gRaw, err := build(0)
	if err != nil {
		return err
	}
	distDP, prevDP, err := gRaw.ShortestPathDAG(0)
	if err != nil {
		return err
	}
	if math.IsInf(distDP[sink], 1) {
		return graph.ErrNoPath
	}
	if distDP[sink] != plan.TotalCost {
		return fmt.Errorf("graph DP cost %v != rolling DP cost %v", distDP[sink], plan.TotalCost)
	}
	path, err := graph.PathTo(prevDP, sink)
	if err != nil {
		return err
	}
	// path = [source, task nodes..., sink].
	if len(path) != n+2 {
		return fmt.Errorf("malformed plan path of length %d for %d tasks", len(path), n)
	}
	for i := 0; i < n; i++ {
		if r := (path[i+1] - 1) % k; r != plan.Rungs[i] {
			return fmt.Errorf("graph DP rung %d at task %d != rolling DP rung %d", r, i, plan.Rungs[i])
		}
	}

	// Dijkstra on shifted weights (the paper's stated solver).
	gShift, err := build(shift)
	if err != nil {
		return err
	}
	distDij, _, err := gShift.Dijkstra(0)
	if err != nil {
		return err
	}
	// Every source-to-sink path has exactly n shifted task edges plus
	// one zero-weight sink edge, so the shifted optimum is the raw
	// optimum plus n x shift.
	wantDij := distDP[sink] + shift*float64(n)
	if math.Abs(distDij[sink]-wantDij) > 1e-6*math.Max(1, math.Abs(wantDij)) {
		return fmt.Errorf("solver disagreement: DP %v vs Dijkstra %v (shift %v)",
			distDP[sink], distDij[sink], shift)
	}
	return nil
}

// The scoring oracle: ScoreRungs and ScoreRungsInto estimate every rung
// through the model's curve functions, which production replaced with
// the compiled rung table of ScoreRungsCompiled. Only tests call them.

// ScoreRungs estimates and scores every ladder rung of one task.
// sizesMB[j] is the segment payload at rung j; base carries the shared
// task context (its BitrateMbps/SizeMB fields are overwritten per
// rung). bitrates must parallel sizesMB. The returned slices are
// per-rung costs and estimates; the reference is the top rung.
func (o Objective) ScoreRungs(base Candidate, bitrates, sizesMB []float64) (costs []float64, ests []Estimate, err error) {
	costs = make([]float64, len(bitrates))
	ests = make([]Estimate, len(bitrates))
	if err := o.ScoreRungsInto(base, bitrates, sizesMB, costs, ests); err != nil {
		return nil, nil, err
	}
	return costs, ests, nil
}

// ScoreRungsInto is ScoreRungs writing into caller-provided slices, so
// per-decision hot paths can reuse their buffers. costs and ests must
// both have len(bitrates) entries.
func (o Objective) ScoreRungsInto(base Candidate, bitrates, sizesMB, costs []float64, ests []Estimate) error {
	if len(bitrates) == 0 || len(bitrates) != len(sizesMB) {
		return errors.New("core: bitrates and sizes must be non-empty and parallel")
	}
	if len(costs) != len(bitrates) || len(ests) != len(bitrates) {
		return errors.New("core: cost and estimate buffers must parallel the bitrates")
	}
	for j := range bitrates {
		c := base
		c.BitrateMbps = bitrates[j]
		c.SizeMB = sizesMB[j]
		ests[j] = o.Estimate(c)
	}
	ref := ests[len(ests)-1]
	for j := range ests {
		costs[j] = o.Cost(ests[j], ref)
	}
	return nil
}
