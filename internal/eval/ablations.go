package eval

import (
	"fmt"

	"ecavs/internal/core"
	"ecavs/internal/netsim"
	"ecavs/internal/player"
	"ecavs/internal/pool"
	"ecavs/internal/sim"
)

// variantResult is one "Ours" variant averaged over the five traces:
// whole-phone saving, extra (above-baseline) saving and QoE
// degradation versus YouTube, and the mean number of rung switches.
type variantResult struct {
	save, extra, degr, switches float64
}

// runOursVariant replays the five traces with a customised "Ours"
// instance and averages them into a variantResult. The replays fan out
// over the worker pool (each unit builds its own algorithm instance);
// the averages are then accumulated sequentially in trace order, so
// the floating-point summation — and therefore the reported numbers —
// match the sequential evaluation exactly.
func (e *Env) runOursVariant(build func(obj core.Objective) *core.Online, session func(*sim.TraceSession)) (variantResult, error) {
	comp, err := e.Comparison()
	if err != nil {
		return variantResult{}, err
	}
	obj, err := core.NewObjective(e.Alpha, e.EvalPower, e.QoE)
	if err != nil {
		return variantResult{}, err
	}
	metrics := make([]*sim.Metrics, len(comp.Results))
	if err := pool.Run(len(comp.Results), 0, func(i int) error {
		r := comp.Results[i]
		man, err := e.Manifest(r.Trace)
		if err != nil {
			return err
		}
		ts := sim.TraceSession{
			Trace:        r.Trace,
			Manifest:     man,
			Algorithm:    build(obj),
			Power:        e.EvalPower,
			QoE:          e.QoE,
			ThresholdSec: player.DefaultBufferThresholdSec,
		}
		if session != nil {
			session(&ts)
		}
		m, err := ts.Run()
		if err != nil {
			return err
		}
		metrics[i] = m
		return nil
	}); err != nil {
		return variantResult{}, err
	}
	var sum variantResult
	var n float64
	for i, r := range comp.Results {
		m := metrics[i]
		yt := r.ByAlgorithm["Youtube"]
		sum.save += 1 - m.TotalJ()/yt.TotalJ()
		if ytExtra := yt.TotalJ() - r.BaseJ; ytExtra > 0 {
			sum.extra += 1 - m.ExtraJ(r.BaseJ)/ytExtra
		}
		sum.degr += 1 - m.MeanQoE/yt.MeanQoE
		sum.switches += float64(m.Switches)
		n++
	}
	return variantResult{sum.save / n, sum.extra / n, sum.degr / n, sum.switches / n}, nil
}

// AblationAlphaSweep sweeps the Eq. 11 weighting factor, tracing the
// energy/QoE Pareto front of the weighted-sum scalarisation.
func (e *Env) AblationAlphaSweep() (*Table, error) {
	t := &Table{
		ID:      "abl-alpha",
		Caption: "Ablation: objective weight alpha (energy/QoE Pareto front)",
		Header:  []string{"alpha", "whole-phone saving", "extra saving", "QoE degradation"},
		Notes: []string{
			"alpha = 0.5 is the paper's evaluation setting; smaller alpha favours QoE",
		},
	}
	savedAlpha := e.Alpha
	defer func() { e.Alpha = savedAlpha }()
	for _, alpha := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		e.Alpha = savedAlpha // Comparison cache key does not depend on alpha; keep env stable
		obj, err := core.NewObjective(alpha, e.EvalPower, e.QoE)
		if err != nil {
			return nil, err
		}
		v, err := e.runOursVariant(func(core.Objective) *core.Online {
			return core.NewOnline(obj)
		}, nil)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{f2(alpha), pct(v.save), pct(v.extra), pct(v.degr)})
	}
	return t, nil
}

// AblationNoContext disables context sensing: the online algorithm
// sees zero vibration, so only bandwidth and energy drive it.
func (e *Env) AblationNoContext() (*Table, error) {
	t := &Table{
		ID:      "abl-context",
		Caption: "Ablation: context-awareness off (vibration forced to 0)",
		Header:  []string{"variant", "whole-phone saving", "extra saving", "QoE degradation"},
		Notes: []string{
			"without vibration sensing the algorithm cannot discount high bitrates on a shaking phone",
		},
	}
	zero := 0.0
	for _, alpha := range []float64{e.Alpha, 0.2} {
		obj, err := core.NewObjective(alpha, e.EvalPower, e.QoE)
		if err != nil {
			return nil, err
		}
		withCtx, err := e.runOursVariant(func(core.Objective) *core.Online {
			return core.NewOnline(obj)
		}, nil)
		if err != nil {
			return nil, err
		}
		noCtx, err := e.runOursVariant(func(core.Objective) *core.Online {
			return core.NewOnline(obj)
		}, func(ts *sim.TraceSession) {
			ts.ForceVibration = &zero
		})
		if err != nil {
			return nil, err
		}
		label := fmt.Sprintf("alpha=%.1f", alpha)
		t.Rows = append(t.Rows,
			[]string{label + " context-aware", pct(withCtx.save), pct(withCtx.extra), pct(withCtx.degr)},
			[]string{label + " context-blind", pct(noCtx.save), pct(noCtx.extra), pct(noCtx.degr)},
		)
	}
	t.Notes = append(t.Notes,
		"at alpha=0.5 the energy term dominates either way; at alpha=0.2 context sensing is what buys the extra saving")
	return t, nil
}

// AblationNoGradualSwitch compares Algorithm 1's gradual switching
// against jumping straight to the reference rung.
func (e *Env) AblationNoGradualSwitch() (*Table, error) {
	t := &Table{
		ID:      "abl-gradual",
		Caption: "Ablation: gradual switching vs. direct-to-reference",
		Header:  []string{"variant", "saving", "QoE degradation", "avg switches"},
	}
	variants := []struct {
		name  string
		build func(obj core.Objective) *core.Online
	}{
		{name: "gradual (Algorithm 1)", build: func(obj core.Objective) *core.Online { return core.NewOnline(obj) }},
		{name: "direct-to-reference", build: func(obj core.Objective) *core.Online {
			return core.NewOnline(obj, core.WithDirectReference())
		}},
	}
	for _, v := range variants {
		r, err := e.runOursVariant(v.build, nil)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{v.name, pct(r.save), pct(r.degr), f1(r.switches)})
	}
	return t, nil
}

// AblationEstimators compares bandwidth estimators inside the online
// algorithm.
func (e *Env) AblationEstimators() (*Table, error) {
	t := &Table{
		ID:      "abl-estimator",
		Caption: "Ablation: bandwidth estimator in the online algorithm",
		Header:  []string{"estimator", "saving", "QoE degradation"},
		Notes:   []string{"the paper uses the harmonic mean of the last 20 throughputs (as FESTIVE does)"},
	}
	variants := []struct {
		name string
		make func() netsim.BandwidthEstimator
	}{
		{name: "harmonic(20)", make: func() netsim.BandwidthEstimator { return netsim.NewHarmonicMeanEstimator(20) }},
		{name: "harmonic(5)", make: func() netsim.BandwidthEstimator { return netsim.NewHarmonicMeanEstimator(5) }},
		{name: "ewma(0.3)", make: func() netsim.BandwidthEstimator { return netsim.NewEWMAEstimator(0.3) }},
		{name: "last-sample", make: func() netsim.BandwidthEstimator { return netsim.NewLastSampleEstimator() }},
	}
	for _, v := range variants {
		r, err := e.runOursVariant(func(obj core.Objective) *core.Online {
			return core.NewOnline(obj, core.WithEstimator(v.make()))
		}, nil)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{v.name, pct(r.save), pct(r.degr)})
	}
	return t, nil
}

// AblationVibrationWindow varies the online vibration-estimation
// window (the paper uses 0.2 x the 30 s threshold = 6 s).
func (e *Env) AblationVibrationWindow() (*Table, error) {
	t := &Table{
		ID:      "abl-window",
		Caption: "Ablation: vibration estimation window",
		Header:  []string{"window (s)", "saving", "QoE degradation"},
		Notes: []string{
			"the Table V traces' vibration is near-stationary, so the window choice barely matters there;",
			"it matters on rides with stops (see examples/busride)",
		},
	}
	for _, w := range []float64{1, 3, 6, 15, 30} {
		w := w
		r, err := e.runOursVariant(func(obj core.Objective) *core.Online { return core.NewOnline(obj) }, func(ts *sim.TraceSession) {
			ts.VibrationWindowSec = w
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%.0f", w), pct(r.save), pct(r.degr)})
	}
	return t, nil
}
