package core

import (
	"errors"
	"math"
	"testing"

	"ecavs/internal/abr"
	"ecavs/internal/dash"
	"ecavs/internal/power"
	"ecavs/internal/qoe"
	"ecavs/internal/sim"
	"ecavs/internal/trace"
)

func smallLadder(t *testing.T) dash.Ladder {
	t.Helper()
	l, err := dash.NewLadder([]float64{0.5, 1.5, 4.0})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func makeTasks(n int, ladder dash.Ladder) []TaskObservation {
	tasks := make([]TaskObservation, n)
	for i := range tasks {
		sizes := make([]float64, len(ladder))
		for j, r := range ladder {
			sizes[j] = r.BitrateMbps / 8 * 2
		}
		vib := 0.3
		sig := -90.0
		if i%2 == 1 {
			vib = 6.5
			sig = -110
		}
		tasks[i] = TaskObservation{
			SizesMB:       sizes,
			DurationSec:   2,
			SignalDBm:     sig,
			BandwidthMbps: 20,
			Vibration:     vib,
			BufferSec:     30,
		}
	}
	return tasks
}

func TestPlanOptimalValidation(t *testing.T) {
	obj := testObjective(t, 0.5)
	ladder := smallLadder(t)
	if _, err := PlanOptimal(obj, ladder, nil); !errors.Is(err, ErrNoTasks) {
		t.Errorf("err = %v, want ErrNoTasks", err)
	}
	if _, err := PlanOptimal(obj, nil, makeTasks(2, ladder)); !errors.Is(err, dash.ErrEmptyLadder) {
		t.Errorf("err = %v, want ErrEmptyLadder", err)
	}
	bad := makeTasks(2, ladder)
	bad[1].SizesMB = bad[1].SizesMB[:1]
	if _, err := PlanOptimal(obj, ladder, bad); !errors.Is(err, ErrSizeMismatch) {
		t.Errorf("err = %v, want ErrSizeMismatch", err)
	}
}

// planCost evaluates a fixed rung sequence under the same per-task
// costs the planner uses.
func planCost(t *testing.T, obj Objective, ladder dash.Ladder, tasks []TaskObservation, rungs []int) float64 {
	t.Helper()
	bitrates := ladder.Bitrates()
	var total float64
	for i, task := range tasks {
		base := Candidate{
			DurationSec:   task.DurationSec,
			SignalDBm:     task.SignalDBm,
			BandwidthMbps: task.BandwidthMbps,
			BufferSec:     task.BufferSec,
			Vibration:     task.Vibration,
		}
		if i > 0 {
			base.PrevBitrateMbps = bitrates[rungs[i-1]]
		}
		costs, _, err := obj.ScoreRungs(base, bitrates, task.SizesMB)
		if err != nil {
			t.Fatal(err)
		}
		total += costs[rungs[i]]
	}
	return total
}

func TestPlanOptimalMatchesBruteForce(t *testing.T) {
	obj := testObjective(t, 0.5)
	ladder := smallLadder(t)
	tasks := makeTasks(5, ladder)
	plan := planVerified(t, obj, ladder, tasks)
	if len(plan.Rungs) != 5 {
		t.Fatalf("plan length = %d, want 5", len(plan.Rungs))
	}
	// Brute force over 3^5 sequences.
	k := len(ladder)
	best := math.Inf(1)
	var bestSeq []int
	seq := make([]int, len(tasks))
	var rec func(i int)
	rec = func(i int) {
		if i == len(tasks) {
			if c := planCost(t, obj, ladder, tasks, seq); c < best {
				best = c
				bestSeq = append([]int(nil), seq...)
			}
			return
		}
		for j := 0; j < k; j++ {
			seq[i] = j
			rec(i + 1)
		}
	}
	rec(0)
	if math.Abs(plan.TotalCost-best) > 1e-9 {
		t.Errorf("plan cost %v != brute force %v (plan %v, brute %v)",
			plan.TotalCost, best, plan.Rungs, bestSeq)
	}
	if got := planCost(t, obj, ladder, tasks, plan.Rungs); math.Abs(got-plan.TotalCost) > 1e-9 {
		t.Errorf("reported cost %v != recomputed %v", plan.TotalCost, got)
	}
}

// The optimal plan never costs more than any fixed-rung plan — the
// paper's "performance upper bound" property.
func TestPlanOptimalDominatesFixedPlans(t *testing.T) {
	obj := testObjective(t, 0.5)
	ladder := smallLadder(t)
	tasks := makeTasks(12, ladder)
	plan := planVerified(t, obj, ladder, tasks)
	for j := 0; j < len(ladder); j++ {
		fixed := make([]int, len(tasks))
		for i := range fixed {
			fixed[i] = j
		}
		if c := planCost(t, obj, ladder, tasks, fixed); plan.TotalCost > c+1e-9 {
			t.Errorf("optimal cost %v exceeds fixed rung %d cost %v", plan.TotalCost, j, c)
		}
	}
}

// Context-awareness shows up in the plan: vibrating weak-signal tasks
// get lower rungs than quiet strong-signal ones.
func TestPlanOptimalContextSensitivity(t *testing.T) {
	obj := testObjective(t, 0.5)
	ladder := smallLadder(t)
	tasks := makeTasks(20, ladder)
	plan := planVerified(t, obj, ladder, tasks)
	var quietSum, vibSum, quietN, vibN float64
	for i, r := range plan.Rungs {
		if i%2 == 0 {
			quietSum += float64(r)
			quietN++
		} else {
			vibSum += float64(r)
			vibN++
		}
	}
	if vibSum/vibN > quietSum/quietN {
		t.Errorf("vibrating tasks got higher rungs (%.2f) than quiet ones (%.2f)",
			vibSum/vibN, quietSum/quietN)
	}
}

func TestObserveTasks(t *testing.T) {
	pm := power.EvalModel()
	traces, err := trace.GenerateTableV(pm.NominalThroughputMBps)
	if err != nil {
		t.Fatal(err)
	}
	tr := traces[0]
	video := dash.Video{Title: "trace1", SpatialInfo: 45, TemporalInfo: 15, DurationSec: tr.LengthSec}
	m, err := dash.NewManifest(video, dash.EvalLadder(), dash.ManifestConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tasks, err := ObserveTasks(tr, m, 30, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != m.SegmentCount() {
		t.Fatalf("tasks = %d, want %d", len(tasks), m.SegmentCount())
	}
	for i, task := range tasks {
		if len(task.SizesMB) != 14 {
			t.Fatalf("task %d has %d sizes", i, len(task.SizesMB))
		}
		if task.BandwidthMbps <= 0 {
			t.Errorf("task %d bandwidth = %v", i, task.BandwidthMbps)
		}
		if task.SignalDBm > -80 || task.SignalDBm < -120 {
			t.Errorf("task %d signal = %v out of range", i, task.SignalDBm)
		}
		if task.BufferSec != 30 {
			t.Errorf("task %d buffer = %v, want 30", i, task.BufferSec)
		}
	}
	// Vibration on a bus trace should be mostly high.
	var vibSum float64
	for _, task := range tasks[3:] {
		vibSum += task.Vibration
	}
	if avg := vibSum / float64(len(tasks)-3); avg < 4 {
		t.Errorf("avg task vibration = %.2f, want bus-like (>= 4)", avg)
	}
}

// TestOptimalNoWorseThanOnline scores Online's realised rungs on each
// Table V trace with the planner's own task model (ObserveTasks at the
// 30 s threshold and the 6 s vibration window) and requires the sum to
// be no lower than Plan.TotalCost: Optimal is a shortest path through
// every rung sequence, Online's among them. The sum adds the same
// per-task costs in the same task order as the DP, so no tolerance is
// needed: an equal sequence gives equal bits.
func TestOptimalNoWorseThanOnline(t *testing.T) {
	pm, qm := power.EvalModel(), qoe.Default()
	ladder := dash.EvalLadder()
	traces, err := trace.GenerateTableV(pm.NominalThroughputMBps)
	if err != nil {
		t.Fatal(err)
	}
	for _, alpha := range []float64{0.1, 0.5, 0.9} {
		obj, err := NewObjective(alpha, pm, qm)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range traces {
			m, err := sim.ManifestForTrace(tr, ladder)
			if err != nil {
				t.Fatal(err)
			}
			tasks, err := ObserveTasks(tr, m, 30, 6)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := PlanOptimal(obj, ladder, tasks)
			if err != nil {
				t.Fatal(err)
			}
			online, err := sim.RunOnTrace(tr, m, NewOnline(obj), pm, qm, 30)
			if err != nil {
				t.Fatal(err)
			}
			if len(online.Segments) != len(tasks) {
				t.Fatalf("alpha %v trace %d: Online fetched %d segments of %d", alpha, tr.ID, len(online.Segments), len(tasks))
			}
			var sc taskScorer
			sc.init(obj, ladder.Bitrates())
			costs := make([]float64, len(ladder))
			score := func(rungs []int) float64 {
				total, prev := 0.0, len(ladder)
				for i, r := range rungs {
					sc.beginTask(tasks[i])
					sc.scoreInto(prev, costs)
					total += costs[r]
					prev = r
				}
				return total
			}
			if got := score(plan.Rungs); got != plan.TotalCost {
				t.Fatalf("alpha %v trace %d: the plan's own rungs score %v, not its TotalCost %v", alpha, tr.ID, got, plan.TotalCost)
			}
			rungs := make([]int, len(online.Segments))
			for i, seg := range online.Segments {
				rungs[i] = seg.Rung
			}
			if got := score(rungs); got < plan.TotalCost {
				t.Errorf("alpha %v trace %d: Online's rungs cost %v, below the optimal plan's %v", alpha, tr.ID, got, plan.TotalCost)
			}
		}
	}
}

func TestObserveTasksErrors(t *testing.T) {
	if _, err := ObserveTasks(nil, nil, 30, 6); err == nil {
		t.Error("nil inputs accepted")
	}
	bad := &trace.Trace{}
	video := dash.Video{Title: "x", SpatialInfo: 45, TemporalInfo: 15, DurationSec: 10}
	m, err := dash.NewManifest(video, dash.EvalLadder(), dash.ManifestConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ObserveTasks(bad, m, 30, 6); err == nil {
		t.Error("invalid trace accepted")
	}
}

func TestPlannedAlgorithm(t *testing.T) {
	plan := Plan{Rungs: []int{2, 0, 1}}
	p := NewPlannedAlgorithm("Optimal", plan)
	if p.Name() != "Optimal" {
		t.Errorf("Name = %q", p.Name())
	}
	for i, want := range plan.Rungs {
		got, err := p.ChooseRung(abr.Context{SegmentIndex: i})
		if err != nil || got != want {
			t.Errorf("segment %d rung = %d, %v; want %d", i, got, err, want)
		}
	}
	if _, err := p.ChooseRung(abr.Context{SegmentIndex: 3}); !errors.Is(err, ErrPlanExhausted) {
		t.Errorf("err = %v, want ErrPlanExhausted", err)
	}
	if _, err := p.ChooseRung(abr.Context{SegmentIndex: -1}); !errors.Is(err, ErrPlanExhausted) {
		t.Errorf("err = %v, want ErrPlanExhausted", err)
	}
	p.ObserveDownload(5) // no-ops must not panic
	p.Reset()
	// The plan is copied, not aliased.
	plan.Rungs[0] = 9
	got, err := p.ChooseRung(abr.Context{SegmentIndex: 0})
	if err != nil || got != 2 {
		t.Errorf("aliasing: rung = %d, want 2", got)
	}
}
