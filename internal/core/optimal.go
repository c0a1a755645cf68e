package core

import (
	"errors"
	"fmt"
	"math"

	"ecavs/internal/abr"
	"ecavs/internal/dash"
	"ecavs/internal/trace"
)

// TaskObservation is one task's (segment's) context as the offline
// optimal planner sees it: the trace values around the segment's
// nominal playback time. The optimal algorithm "requires perfect
// knowledge of future tasks" (Section IV-A) — these observations are
// that knowledge.
type TaskObservation struct {
	// SizesMB is the segment payload per ladder rung.
	SizesMB []float64
	// DurationSec is the segment playback duration.
	DurationSec float64
	// SignalDBm is the signal strength during the task.
	SignalDBm float64
	// BandwidthMbps is the link rate during the task.
	BandwidthMbps float64
	// Vibration is the Eq. 5 vibration level during the task.
	Vibration float64
	// BufferSec is the assumed buffer when the download starts (the
	// steady-state threshold unless the caller knows better).
	BufferSec float64
}

// Plan is the optimal planner's output.
type Plan struct {
	// Rungs is the selected ladder rung per task.
	Rungs []int
	// TotalCost is the summed Eq. 11 objective along the plan.
	TotalCost float64
}

// Planner errors.
var (
	ErrNoTasks      = errors.New("core: no tasks to plan")
	ErrSizeMismatch = errors.New("core: task sizes do not match the ladder")
)

// PlanOptimal solves the bitrate-selection problem of Fig. 4 — one
// node per (task, rung), a source, and a sink, with edge weights
// carrying the Eq. 11 objective of the destination task's candidate
// including the switch penalty between the endpoint rungs.
//
// The solver is a rolling in-place DP over two k-sized distance
// slices: the layered DAG's structure is implicit, so no graph, edges,
// or per-edge allocations are materialised. The tests check it against
// explicit graph solvers kept in test code — the topological DP and
// Dijkstra on shifted weights, the paper's stated solver.
func PlanOptimal(obj Objective, ladder dash.Ladder, tasks []TaskObservation) (Plan, error) {
	if len(tasks) == 0 {
		return Plan{}, ErrNoTasks
	}
	k := len(ladder)
	if k == 0 {
		return Plan{}, dash.ErrEmptyLadder
	}
	for i, t := range tasks {
		if len(t.SizesMB) != k {
			return Plan{}, fmt.Errorf("%w: task %d has %d sizes for %d rungs", ErrSizeMismatch, i, len(t.SizesMB), k)
		}
	}
	n := len(tasks)
	var sc taskScorer
	sc.init(obj, ladder.Bitrates())

	// Rolling DP over the implicit layered DAG. dist[j] is the best
	// cost of any plan prefix ending with rung j at the current task;
	// choice[i*k+j] records the previous rung that achieved it. The
	// relaxation order (previous rungs ascending, strict improvement
	// only) mirrors the explicit topological-order DP on the graph, so
	// ties break identically and the costs accumulate in the same
	// floating-point order — the test oracle demands exact equality.
	dist := make([]float64, k)
	next := make([]float64, k)
	costs := make([]float64, k)
	choice := make([]int32, n*k)

	sc.beginTask(tasks[0])
	sc.scoreInto(k, dist)
	for i := 1; i < n; i++ {
		for j := range next {
			next[j] = math.Inf(1)
		}
		sc.beginTask(tasks[i])
		row := choice[i*k : (i+1)*k]
		for p := 0; p < k; p++ {
			sc.scoreInto(p, costs)
			dp := dist[p]
			for j, c := range costs {
				if nd := dp + c; nd < next[j] {
					next[j] = nd
					row[j] = int32(p)
				}
			}
		}
		dist, next = next, dist
	}

	// Sink relaxation: the lowest rung achieving the minimum wins,
	// matching the graph's edge order into the sink.
	best := 0
	for j := 1; j < k; j++ {
		if dist[j] < dist[best] {
			best = j
		}
	}
	rungs := make([]int, n)
	j := best
	for i := n - 1; i >= 1; i-- {
		rungs[i] = j
		j = int(choice[i*k+j])
	}
	rungs[0] = j
	return Plan{Rungs: rungs, TotalCost: dist[best]}, nil
}

// ObserveTasks derives per-task observations from a recorded trace and
// a manifest, placing task i at the nominal playback-paced time
// i x segment duration — the timeline the paper's offline planner
// assumes. bufferSec is the steady-state buffer assumption (typically
// the 30 s threshold); windowSec is the vibration window.
//
// Observations are built from the trace's compiled form (validated and
// memoized on first use): signal and bandwidth come from the same
// zero-order hold a TraceLink replays bit-for-bit, and the vibration
// level from the O(1) prefix-sum query, which agrees with the
// reference two-pass computation within 1e-9 (DESIGN.md §10). Each
// observation's SizesMB aliases the manifest's internal per-segment
// row and must be treated as read-only.
func ObserveTasks(tr *trace.Trace, m *dash.Manifest, bufferSec, windowSec float64) ([]TaskObservation, error) {
	if tr == nil || m == nil {
		return nil, errors.New("core: nil trace or manifest")
	}
	c, err := tr.Compiled()
	if err != nil {
		return nil, err
	}
	cur := c.Cursor()
	n := m.SegmentCount()
	out := make([]TaskObservation, 0, n)
	for i := 0; i < n; i++ {
		t := float64(i) * m.SegmentSec()
		dur, err := m.SegmentDuration(i)
		if err != nil {
			return nil, err
		}
		sizes, err := m.SegmentSizes(i)
		if err != nil {
			return nil, err
		}
		out = append(out, TaskObservation{
			SizesMB:       sizes,
			DurationSec:   dur,
			SignalDBm:     cur.SignalAt(t),
			BandwidthMbps: cur.ThroughputMBpsAt(t) * 8,
			Vibration:     cur.VibrationAt(t, windowSec),
			BufferSec:     bufferSec,
		})
	}
	return out, nil
}

// PlannedAlgorithm wraps a precomputed optimal plan as an
// abr.Algorithm so the simulator can replay it.
type PlannedAlgorithm struct {
	name  string
	rungs []int
}

var _ abr.Algorithm = (*PlannedAlgorithm)(nil)

// NewPlannedAlgorithm returns an algorithm that replays plan under the
// given display name ("Optimal").
func NewPlannedAlgorithm(name string, plan Plan) *PlannedAlgorithm {
	rungs := make([]int, len(plan.Rungs))
	copy(rungs, plan.Rungs)
	return &PlannedAlgorithm{name: name, rungs: rungs}
}

// Name implements abr.Algorithm.
func (p *PlannedAlgorithm) Name() string { return p.name }

// ErrPlanExhausted is returned when more segments are requested than
// the plan covers.
var ErrPlanExhausted = errors.New("core: plan exhausted")

// ChooseRung implements abr.Algorithm.
func (p *PlannedAlgorithm) ChooseRung(ctx abr.Context) (int, error) {
	if ctx.SegmentIndex < 0 || ctx.SegmentIndex >= len(p.rungs) {
		return 0, fmt.Errorf("%w: segment %d of %d", ErrPlanExhausted, ctx.SegmentIndex, len(p.rungs))
	}
	return p.rungs[ctx.SegmentIndex], nil
}

// ObserveDownload implements abr.Algorithm.
func (p *PlannedAlgorithm) ObserveDownload(float64) {}

// Reset implements abr.Algorithm.
func (p *PlannedAlgorithm) Reset() {}
