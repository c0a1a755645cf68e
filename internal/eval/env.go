package eval

import (
	"fmt"
	"strings"
	"sync"

	"ecavs/internal/abr"
	"ecavs/internal/core"
	"ecavs/internal/dash"
	"ecavs/internal/player"
	"ecavs/internal/pool"
	"ecavs/internal/power"
	"ecavs/internal/qoe"
	"ecavs/internal/sim"
	"ecavs/internal/trace"
)

// Env is the shared experiment environment: calibrated models, the
// evaluation ladder, and lazily generated Table V traces with cached
// per-algorithm session results (the Fig. 5-7 experiments all consume
// the same five-trace comparison).
type Env struct {
	// Power is the Table VI calibration (validation experiments).
	Power power.Model
	// EvalPower is the trace-evaluation phone (Figs. 5-7).
	EvalPower power.Model
	// QoE is the Table III model.
	QoE qoe.Model
	// Ladder is the fourteen-rung Section V-A ladder.
	Ladder dash.Ladder
	// Alpha is the objective weight (Section V-A: 0.5). It may be
	// swapped mid-run (the alpha-sweep ablation does); every other
	// field is assumed fixed after the Env's first use, because the
	// memoized per-trace artifacts depend on them.
	Alpha float64

	mu       sync.Mutex
	traces   []*trace.Trace
	comp     *Comparison
	inflight *inflightComparison
	compRuns int // full evaluations actually executed (test hook)

	// artifacts memoizes per-trace derived state (manifest, base
	// energy, planner observations, optimal plans) keyed by trace
	// pointer, so the ablations and extended experiments stop
	// recomputing what the headline comparison already derived.
	// Pointer keys keep re-seeded campaign traces (which reuse the
	// Table V IDs) from colliding with the cached originals.
	artifacts map[*trace.Trace]*traceArtifacts
}

// inflightComparison carries one in-progress full evaluation so that
// concurrent Comparison callers share it instead of racing to compute
// their own (singleflight).
type inflightComparison struct {
	done chan struct{} // closed when comp/err are set
	comp *Comparison
	err  error
}

// traceArtifacts caches what the evaluation derives per trace.
type traceArtifacts struct {
	man      *dash.Manifest
	baseJ    float64
	tasks    []core.TaskObservation
	plans    map[float64]core.Plan // keyed by objective alpha
	compiled *trace.Compiled       // shared immutable compiled form
}

// NewEnv returns the paper's evaluation environment.
func NewEnv() *Env {
	return &Env{
		Power:     power.Default(),
		EvalPower: power.EvalModel(),
		QoE:       qoe.Default(),
		Ladder:    dash.EvalLadder(),
		Alpha:     core.DefaultAlpha,
	}
}

// Traces returns the five Table V traces, generating them on first
// use.
func (e *Env) Traces() ([]*trace.Trace, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.traces == nil {
		ts, err := trace.GenerateTableV(e.EvalPower.NominalThroughputMBps)
		if err != nil {
			return nil, err
		}
		e.traces = ts
	}
	return e.traces, nil
}

// AlgorithmNames orders the compared approaches as the paper's figures
// do.
var AlgorithmNames = []string{"Youtube", "FESTIVE", "BBA", "Ours", "Optimal"}

// TraceResult holds one trace's five-algorithm outcomes.
type TraceResult struct {
	// Trace is the replayed session context.
	Trace *trace.Trace
	// BaseJ is the Section V-B base energy.
	BaseJ float64
	// ByAlgorithm maps algorithm name to its session metrics.
	ByAlgorithm map[string]*sim.Metrics
}

// Metrics returns the named algorithm's session metrics, or a
// descriptive error when the comparison never ran that algorithm —
// instead of the nil-map-deref panic a direct ByAlgorithm lookup
// would produce.
func (r TraceResult) Metrics(name string) (*sim.Metrics, error) {
	m, ok := r.ByAlgorithm[name]
	if !ok || m == nil {
		return nil, fmt.Errorf("eval: trace %d has no metrics for algorithm %q (have %s)",
			r.Trace.ID, name, strings.Join(AlgorithmNames, ", "))
	}
	return m, nil
}

// Comparison is the full five-trace, five-algorithm evaluation.
type Comparison struct {
	// Results is ordered by trace ID.
	Results []TraceResult
}

// Comparison runs (or returns the cached) full evaluation. Concurrent
// callers share a single computation: the first caller computes, the
// rest wait on it and receive the same result (or the same error). A
// failed computation is not cached, so a later call retries.
func (e *Env) Comparison() (*Comparison, error) {
	e.mu.Lock()
	if e.comp != nil {
		c := e.comp
		e.mu.Unlock()
		return c, nil
	}
	if in := e.inflight; in != nil {
		e.mu.Unlock()
		<-in.done
		return in.comp, in.err
	}
	in := &inflightComparison{done: make(chan struct{})}
	e.inflight = in
	e.compRuns++
	e.mu.Unlock()

	in.comp, in.err = e.computeComparison()

	e.mu.Lock()
	e.inflight = nil
	if in.err == nil {
		e.comp = in.comp
	}
	e.mu.Unlock()
	close(in.done)
	return in.comp, in.err
}

// computeComparison runs the full five-trace, five-algorithm
// evaluation. The sessions are independent trace replays, so the work
// fans out over a bounded pool in two waves: per-trace artifact
// derivation (manifest, base energy, task observations, optimal
// plan), then one unit per trace × algorithm session. Results land in
// slots indexed by (trace, algorithm), so assembly — ordered by trace
// ID, with per-trace aggregation untouched — is deterministic and the
// output matches the sequential evaluation byte for byte.
func (e *Env) computeComparison() (*Comparison, error) {
	traces, err := e.Traces()
	if err != nil {
		return nil, err
	}
	obj, err := core.NewObjective(e.Alpha, e.EvalPower, e.QoE)
	if err != nil {
		return nil, err
	}

	// Wave 1: derive per-trace artifacts.
	arts := make([]*traceArtifacts, len(traces))
	if err := pool.Run(len(traces), 0, func(ti int) error {
		a, err := e.artifactsFor(traces[ti])
		if err != nil {
			return err
		}
		if _, err := e.optimalPlanLocked(traces[ti], a, obj); err != nil {
			return err
		}
		arts[ti] = a
		return nil
	}); err != nil {
		return nil, err
	}

	// Wave 2: one unit per trace × algorithm session.
	builders := []func(ti int) (abr.Algorithm, error){
		func(int) (abr.Algorithm, error) { return abr.NewYoutube(), nil },
		func(int) (abr.Algorithm, error) { return abr.NewFESTIVE(), nil },
		func(int) (abr.Algorithm, error) { return abr.NewBBA() },
		func(int) (abr.Algorithm, error) { return core.NewOnline(obj), nil },
		func(ti int) (abr.Algorithm, error) {
			plan, err := e.optimalPlanLocked(traces[ti], arts[ti], obj)
			if err != nil {
				return nil, err
			}
			return core.NewPlannedAlgorithm("Optimal", plan), nil
		},
	}
	metrics := make([]*sim.Metrics, len(traces)*len(builders))
	if err := pool.Run(len(metrics), 0, func(unit int) error {
		ti, ai := unit/len(builders), unit%len(builders)
		tr := traces[ti]
		alg, err := builders[ai](ti)
		if err != nil {
			return err
		}
		m, err := sim.RunOnTrace(tr, arts[ti].man, alg, e.EvalPower, e.QoE, player.DefaultBufferThresholdSec)
		if err != nil {
			return fmt.Errorf("eval: trace %d %s: %w", tr.ID, alg.Name(), err)
		}
		metrics[unit] = m
		return nil
	}); err != nil {
		return nil, err
	}

	comp := &Comparison{}
	for ti, tr := range traces {
		res := TraceResult{Trace: tr, BaseJ: arts[ti].baseJ, ByAlgorithm: make(map[string]*sim.Metrics, len(AlgorithmNames))}
		for ai, name := range AlgorithmNames {
			res.ByAlgorithm[name] = metrics[ti*len(builders)+ai]
		}
		comp.Results = append(comp.Results, res)
	}
	return comp, nil
}

// artifactsFor returns (computing and memoizing on first use) the
// trace's derived evaluation state. Artifacts are keyed by trace
// pointer and depend on the Env's ladder and models, which must not
// change after first use.
func (e *Env) artifactsFor(tr *trace.Trace) (*traceArtifacts, error) {
	e.mu.Lock()
	if a, ok := e.artifacts[tr]; ok {
		e.mu.Unlock()
		return a, nil
	}
	e.mu.Unlock()

	// Compile first: it validates the trace once and every downstream
	// artifact (base-energy replay, task observation, ablation/sweep
	// sessions) shares the one compiled form via the trace's memo.
	comp, err := tr.Compiled()
	if err != nil {
		return nil, fmt.Errorf("eval: trace %d compile: %w", tr.ID, err)
	}
	man, err := sim.ManifestForTrace(tr, e.Ladder)
	if err != nil {
		return nil, fmt.Errorf("eval: trace %d manifest: %w", tr.ID, err)
	}
	baseJ, err := sim.BaseEnergyJ(tr, man, e.EvalPower, e.QoE)
	if err != nil {
		return nil, fmt.Errorf("eval: trace %d base energy: %w", tr.ID, err)
	}
	tasks, err := core.ObserveTasks(tr, man, player.DefaultBufferThresholdSec, 6)
	if err != nil {
		return nil, fmt.Errorf("eval: trace %d tasks: %w", tr.ID, err)
	}
	a := &traceArtifacts{man: man, baseJ: baseJ, tasks: tasks, plans: make(map[float64]core.Plan), compiled: comp}

	e.mu.Lock()
	defer e.mu.Unlock()
	if cached, ok := e.artifacts[tr]; ok { // lost a benign compute race
		return cached, nil
	}
	if e.artifacts == nil {
		e.artifacts = make(map[*trace.Trace]*traceArtifacts)
	}
	e.artifacts[tr] = a
	return a, nil
}

// optimalPlanLocked returns the trace's memoized optimal plan for the
// objective's alpha, computing it on first use.
func (e *Env) optimalPlanLocked(tr *trace.Trace, a *traceArtifacts, obj core.Objective) (core.Plan, error) {
	e.mu.Lock()
	if plan, ok := a.plans[obj.Alpha]; ok {
		e.mu.Unlock()
		return plan, nil
	}
	e.mu.Unlock()

	plan, err := core.PlanOptimal(obj, e.Ladder, a.tasks)
	if err != nil {
		return core.Plan{}, fmt.Errorf("eval: trace %d plan: %w", tr.ID, err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if cached, ok := a.plans[obj.Alpha]; ok {
		return cached, nil
	}
	a.plans[obj.Alpha] = plan
	return plan, nil
}

// Manifest returns the trace's memoized evaluation manifest.
func (e *Env) Manifest(tr *trace.Trace) (*dash.Manifest, error) {
	a, err := e.artifactsFor(tr)
	if err != nil {
		return nil, err
	}
	return a.man, nil
}

// Savings aggregates one algorithm's average whole-phone and
// extra-energy savings versus YouTube across the traces.
func (c *Comparison) Savings(name string) (whole, extra float64) {
	var n float64
	for _, r := range c.Results {
		yt := r.ByAlgorithm["Youtube"]
		m := r.ByAlgorithm[name]
		if yt == nil || m == nil {
			continue
		}
		whole += 1 - m.TotalJ()/yt.TotalJ()
		if ytExtra := yt.TotalJ() - r.BaseJ; ytExtra > 0 {
			extra += 1 - m.ExtraJ(r.BaseJ)/ytExtra
		}
		n++
	}
	if n == 0 {
		return 0, 0
	}
	return whole / n, extra / n
}

// QoEDegradation aggregates one algorithm's average QoE loss versus
// YouTube across the traces.
func (c *Comparison) QoEDegradation(name string) float64 {
	var sum, n float64
	for _, r := range c.Results {
		yt := r.ByAlgorithm["Youtube"]
		m := r.ByAlgorithm[name]
		if yt == nil || m == nil || yt.MeanQoE <= 0 {
			continue
		}
		sum += 1 - m.MeanQoE/yt.MeanQoE
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

// AverageQoE aggregates one algorithm's mean QoE across the traces.
func (c *Comparison) AverageQoE(name string) float64 {
	var sum, n float64
	for _, r := range c.Results {
		if m := r.ByAlgorithm[name]; m != nil {
			sum += m.MeanQoE
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / n
}
