package eval

import (
	"fmt"

	"ecavs/internal/core"
	"ecavs/internal/netsim"
	"ecavs/internal/player"
	"ecavs/internal/pool"
	"ecavs/internal/sim"
)

// runOursVariant replays the five traces with a customised "Ours"
// instance and returns average saving/degradation versus YouTube. The
// replays fan out over the worker pool (each unit builds its own
// algorithm instance); the averages are then accumulated sequentially
// in trace order, so the floating-point summation — and therefore the
// reported numbers — match the sequential evaluation exactly.
func (e *Env) runOursVariant(build func(obj core.Objective) *core.Online, session func(*sim.TraceSession)) (save, extra, degr float64, err error) {
	comp, err := e.Comparison()
	if err != nil {
		return 0, 0, 0, err
	}
	obj, err := core.NewObjective(e.Alpha, e.EvalPower, e.QoE)
	if err != nil {
		return 0, 0, 0, err
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
		return 0, 0, 0, err
	}
	var n float64
	for i, r := range comp.Results {
		m := metrics[i]
		yt := r.ByAlgorithm["Youtube"]
		save += 1 - m.TotalJ()/yt.TotalJ()
		if ytExtra := yt.TotalJ() - r.BaseJ; ytExtra > 0 {
			extra += 1 - m.ExtraJ(r.BaseJ)/ytExtra
		}
		degr += 1 - m.MeanQoE/yt.MeanQoE
		n++
	}
	return save / n, extra / n, degr / n, nil
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
		save, extra, degr, err := e.runOursVariant(func(core.Objective) *core.Online {
			return core.NewOnline(obj)
		}, nil)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{f2(alpha), pct(save), pct(extra), pct(degr)})
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
		withCtx, extraW, degrW, err := e.runOursVariant(func(core.Objective) *core.Online {
			return core.NewOnline(obj)
		}, nil)
		if err != nil {
			return nil, err
		}
		noCtx, extraN, degrN, err := e.runOursVariant(func(core.Objective) *core.Online {
			return core.NewOnline(obj)
		}, func(ts *sim.TraceSession) {
			ts.ForceVibration = &zero
		})
		if err != nil {
			return nil, err
		}
		label := fmt.Sprintf("alpha=%.1f", alpha)
		t.Rows = append(t.Rows,
			[]string{label + " context-aware", pct(withCtx), pct(extraW), pct(degrW)},
			[]string{label + " context-blind", pct(noCtx), pct(extraN), pct(degrN)},
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
	comp, err := e.Comparison()
	if err != nil {
		return nil, err
	}
	for _, v := range variants {
		save, _, degr, err := e.runOursVariant(v.build, nil)
		if err != nil {
			return nil, err
		}
		// Count switches by re-running once more per trace.
		obj, err := core.NewObjective(e.Alpha, e.EvalPower, e.QoE)
		if err != nil {
			return nil, err
		}
		counts := make([]int, len(comp.Results))
		if err := pool.Run(len(comp.Results), 0, func(i int) error {
			r := comp.Results[i]
			man, err := e.Manifest(r.Trace)
			if err != nil {
				return err
			}
			m, err := sim.TraceSession{
				Trace: r.Trace, Manifest: man, Algorithm: v.build(obj),
				Power: e.EvalPower, QoE: e.QoE,
				ThresholdSec: player.DefaultBufferThresholdSec,
			}.Run()
			if err != nil {
				return err
			}
			counts[i] = m.Switches
			return nil
		}); err != nil {
			return nil, err
		}
		var switches, n float64
		for _, c := range counts {
			switches += float64(c)
			n++
		}
		t.Rows = append(t.Rows, []string{v.name, pct(save), pct(degr), f1(switches / n)})
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
		save, _, degr, err := e.runOursVariant(func(obj core.Objective) *core.Online {
			return core.NewOnline(obj, core.WithEstimator(v.make()))
		}, nil)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{v.name, pct(save), pct(degr)})
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
		save, _, degr, err := e.runOursVariant(func(obj core.Objective) *core.Online { return core.NewOnline(obj) }, func(ts *sim.TraceSession) {
			ts.VibrationWindowSec = w
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%.0f", w), pct(save), pct(degr)})
	}
	return t, nil
}
