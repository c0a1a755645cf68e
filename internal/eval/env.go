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

// The paper's evaluation setup (Section V-A), fixed for every
// experiment.
var (
	// tablePower is the Table VI calibration (validation experiments).
	tablePower = power.Default()
	// evalPower is the trace-evaluation phone (Figs. 5-7).
	evalPower = power.EvalModel()
	// evalQoE is the Table III model.
	evalQoE = qoe.Default()
	// evalLadder is the fourteen-rung Section V-A ladder.
	evalLadder = dash.EvalLadder()
	// evalObj is the Eq. 11 objective at alpha = 0.5.
	evalObj = core.Objective{Alpha: core.DefaultAlpha, Power: evalPower, QoE: evalQoE}
	// evalRungs is evalQoE compiled over evalLadder, shared by every
	// replayed session.
	evalRungs = evalQoE.CompileRungs(evalLadder.Bitrates())
)

// Env is the shared experiment environment: lazily generated Table V
// traces, their derived evaluation state, and the cached five-algorithm
// comparison the Fig. 5-7 experiments all consume.
type Env struct {
	mu     sync.Mutex // guards traces
	traces []*trace.Trace

	// artMu is held while the per-trace artifacts are derived, so
	// concurrent callers wait for the first one's result; it guards
	// arts.
	artMu sync.Mutex
	arts  []*traceArtifacts // one per Table V trace, in trace order

	// compMu is held across a full evaluation, so concurrent
	// Comparison callers wait for the first one's result; it guards
	// comp and compRuns.
	compMu   sync.Mutex
	comp     *Comparison
	compRuns int // full evaluations actually executed (test hook)
}

// traceArtifacts is what the evaluation derives once per Table V
// trace.
type traceArtifacts struct {
	tr    *trace.Trace
	tc    *trace.Compiled
	man   *dash.Manifest
	baseJ float64
	plan  core.Plan // the Optimal schedule under evalObj
}

// NewEnv returns the paper's evaluation environment.
func NewEnv() *Env {
	return &Env{}
}

// Traces returns the five Table V traces, generating them on first
// use.
func (e *Env) Traces() ([]*trace.Trace, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.traces == nil {
		ts, err := trace.GenerateTableV(evalPower.NominalThroughputMBps)
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
// rest wait for it and read the cached result. A failed computation is
// not cached, so the next caller retries.
func (e *Env) Comparison() (*Comparison, error) {
	e.compMu.Lock()
	defer e.compMu.Unlock()
	if e.comp != nil {
		return e.comp, nil
	}
	e.compRuns++
	comp, err := e.computeComparison()
	if err != nil {
		return nil, err
	}
	e.comp = comp
	return comp, nil
}

// computeComparison replays the five algorithms on the five traces and
// assembles the results in trace order.
func (e *Env) computeComparison() (*Comparison, error) {
	arts, err := e.artifacts()
	if err != nil {
		return nil, err
	}
	builders := []func(a *traceArtifacts) abr.Algorithm{
		func(*traceArtifacts) abr.Algorithm { return abr.NewYoutube() },
		func(*traceArtifacts) abr.Algorithm { return abr.NewFESTIVE() },
		func(*traceArtifacts) abr.Algorithm { return abr.NewBBA() },
		func(*traceArtifacts) abr.Algorithm { return core.NewOnline(evalObj) },
		func(a *traceArtifacts) abr.Algorithm { return core.NewPlannedAlgorithm("Optimal", a.plan) },
	}
	metrics, err := e.replay(len(builders), func(row int, a *traceArtifacts, cfg *sim.Config) {
		cfg.Algorithm = builders[row](a)
	})
	if err != nil {
		return nil, err
	}
	comp := &Comparison{}
	for ti, a := range arts {
		res := TraceResult{Trace: a.tr, BaseJ: a.baseJ, ByAlgorithm: make(map[string]*sim.Metrics, len(AlgorithmNames))}
		for ai, name := range AlgorithmNames {
			res.ByAlgorithm[name] = metrics[ai][ti]
		}
		comp.Results = append(comp.Results, res)
	}
	return comp, nil
}

// artifacts returns (deriving them on first use, one pool unit per
// trace) the Table V traces' artifacts in trace order: compiled form,
// manifest, base energy and Optimal plan.
func (e *Env) artifacts() ([]*traceArtifacts, error) {
	e.artMu.Lock()
	defer e.artMu.Unlock()
	if e.arts != nil {
		return e.arts, nil
	}
	traces, err := e.Traces()
	if err != nil {
		return nil, err
	}
	arts := make([]*traceArtifacts, len(traces))
	if err := pool.Run(len(traces), 0, func(ti int) error {
		tr := traces[ti]
		// Compile first: it validates the trace once, and every session
		// of the trace shares the one compiled form via its memo.
		tc, err := tr.Compiled()
		if err != nil {
			return fmt.Errorf("eval: trace %d compile: %w", tr.ID, err)
		}
		man, err := sim.ManifestForTrace(tr, evalLadder)
		if err != nil {
			return fmt.Errorf("eval: trace %d manifest: %w", tr.ID, err)
		}
		baseJ, err := sim.BaseEnergyJ(tr, man)
		if err != nil {
			return fmt.Errorf("eval: trace %d base energy: %w", tr.ID, err)
		}
		tasks, err := core.ObserveTasks(tr, man)
		if err != nil {
			return fmt.Errorf("eval: trace %d tasks: %w", tr.ID, err)
		}
		plan, err := core.PlanOptimal(evalObj, evalLadder, tasks)
		if err != nil {
			return fmt.Errorf("eval: trace %d plan: %w", tr.ID, err)
		}
		arts[ti] = &traceArtifacts{tr: tr, tc: tc, man: man, baseJ: baseJ, plan: plan}
		return nil
	}); err != nil {
		return nil, err
	}
	e.arts = arts
	return arts, nil
}

// replay runs rows × traces sessions on the worker pool, one unit per
// session, and returns their metrics by row, each row in trace order.
// Every session starts from its Table V trace's evaluation config —
// the memoized manifest, the compiled link and vibration signal, the
// evaluation models and rung table, the 30 s threshold — and set gives
// it the row's algorithm and any setting of its own. Units share no
// mutable state, and callers fold the rows in order, so every sum
// runs in the sequential evaluation's order at any worker count.
func (e *Env) replay(rows int, set func(row int, a *traceArtifacts, cfg *sim.Config)) ([][]*sim.Metrics, error) {
	arts, err := e.artifacts()
	if err != nil {
		return nil, err
	}
	nt := len(arts)
	flat := make([]*sim.Metrics, rows*nt)
	if err := pool.Run(len(flat), 0, func(unit int) error {
		a := arts[unit%nt]
		cfg := sim.Config{
			SessionParams:      sim.SessionParams{RungQoE: evalRungs},
			Manifest:           a.man,
			Link:               a.tc.Link(),
			VibrationAt:        a.tc.Vibration(0),
			Power:              evalPower,
			QoE:                evalQoE,
			BufferThresholdSec: player.DefaultBufferThresholdSec,
		}
		set(unit/nt, a, &cfg)
		m, err := sim.Run(cfg)
		if err != nil {
			return fmt.Errorf("eval: trace %d %s: %w", a.tr.ID, cfg.Algorithm.Name(), err)
		}
		flat[unit] = m
		return nil
	}); err != nil {
		return nil, err
	}
	metrics := make([][]*sim.Metrics, rows)
	for r := range metrics {
		metrics[r] = flat[r*nt : (r+1)*nt]
	}
	return metrics, nil
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
