package eval

import (
	"fmt"

	"ecavs/internal/abr"
	"ecavs/internal/core"
	"ecavs/internal/learn"
	"ecavs/internal/player"
	"ecavs/internal/power"
	"ecavs/internal/sim"
)

// ExtendedBaselines compares the paper's approaches against two
// additional baselines from its related work — BOLA (reference [5])
// and RobustMPC (reference [17]) — on the same five traces. Neither
// considers context, so the paper's conclusion should extend: they
// track bandwidth/buffer well but cannot discount high bitrates in
// vibrating, energy-expensive contexts.
func (e *Env) ExtendedBaselines() (*Table, error) {
	comp, err := e.Comparison()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "ext-baselines",
		Caption: "Extended comparison: BOLA and RobustMPC (beyond the paper)",
		Header:  []string{"approach", "avg energy (J)", "whole-phone saving", "QoE", "QoE degradation"},
		Notes: []string{
			"BOLA (Spiteri+ 2016) and RobustMPC (Yin+ 2015) are the paper's references [5] and [17]",
		},
	}

	// Averages for the paper's five approaches from the cached runs.
	addRow := func(name string, avgJ, save, q, degr float64) {
		t.Rows = append(t.Rows, []string{name, f1(avgJ), pct(save), f3(q), pct(degr)})
	}
	for _, name := range AlgorithmNames {
		var sumJ float64
		for _, r := range comp.Results {
			sumJ += r.ByAlgorithm[name].TotalJ()
		}
		whole, _ := comp.Savings(name)
		addRow(name, sumJ/float64(len(comp.Results)), whole, comp.AverageQoE(name), comp.QoEDegradation(name))
	}

	// The two new baselines, replayed fresh.
	builders := []struct {
		name string
		make func() abr.Algorithm
	}{
		{name: "BOLA", make: func() abr.Algorithm { return abr.NewBOLA() }},
		{name: "RobustMPC", make: func() abr.Algorithm { return abr.NewMPC() }},
	}
	metrics, err := e.replay(len(builders), func(row int, _ *traceArtifacts, cfg *sim.Config) {
		cfg.Algorithm = builders[row].make()
	})
	if err != nil {
		return nil, err
	}
	for bi, b := range builders {
		var sumJ, sumSave, sumQ, sumDegr float64
		for ti, r := range comp.Results {
			m := metrics[bi][ti]
			yt := r.ByAlgorithm["Youtube"]
			sumJ += m.TotalJ()
			sumSave += 1 - m.TotalJ()/yt.TotalJ()
			sumQ += m.MeanQoE
			sumDegr += 1 - m.MeanQoE/yt.MeanQoE
		}
		n := float64(len(comp.Results))
		addRow(b.name, sumJ/n, sumSave/n, sumQ/n, sumDegr/n)
	}
	return t, nil
}

// ExtendedLearned trains the tabular Q-learning agent (the Pensieve
// stand-in, reference [27]) on synthetic channels and evaluates it on
// the five traces against YouTube and Ours. Like the other
// bandwidth-only baselines it has no context signal, so it should land
// between YouTube and Ours on energy.
func (e *Env) ExtendedLearned() (*Table, error) {
	comp, err := e.Comparison()
	if err != nil {
		return nil, err
	}
	arts, err := e.artifacts()
	if err != nil {
		return nil, err
	}
	agent, err := learn.Train(learn.DefaultTrainConfig(evalLadder))
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "ext-learned",
		Caption: "Extended comparison: tabular Q-learning agent (Pensieve-style, beyond the paper)",
		Header:  []string{"trace", "QLearn energy (J)", "QLearn QoE", "Youtube energy (J)", "Ours energy (J)"},
		Notes: []string{
			"trained on synthetic room/vehicle channels with the MPC-family reward; no context signal",
			"table coverage: " + pct(agent.Table().CoverageFraction()),
			"a small tabular agent is deliberately conservative (stall-averse), so its QoE trails the model-based policies — the deep-RL original closes that gap with function approximation",
		},
	}
	// The shared agent carries replay state (Reset per run), so these
	// sessions stay sequential; the manifests come from the cache.
	for i, r := range comp.Results {
		m, err := sim.RunOnTrace(r.Trace, arts[i].man, agent)
		if err != nil {
			return nil, fmt.Errorf("eval: QLearn on trace %d: %w", r.Trace.ID, err)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("trace%d", r.Trace.ID),
			f1(m.TotalJ()),
			f3(m.MeanQoE),
			f1(r.ByAlgorithm["Youtube"].TotalJ()),
			f1(r.ByAlgorithm["Ours"].TotalJ()),
		})
	}
	return t, nil
}

// ExtendedBrightness runs the joint rate-and-brightness policy (the
// RnB extension, references [11, 12, 32]) over a grid of ambient-light
// and motion contexts, showing which (bitrate, backlight) pair the
// extended Eq. 11 objective selects in each.
func (e *Env) ExtendedBrightness() (*Table, error) {
	joint := core.NewJointOnline(evalObj)
	t := &Table{
		ID:      "ext-brightness",
		Caption: "Extended: joint rate-and-brightness adaptation per context (beyond the paper)",
		Header:  []string{"context", "ambient", "vibration", "signal (dBm)", "chosen bitrate (Mbps)", "chosen brightness"},
		Notes: []string{
			"extends the Eq. 11 objective over the backlight: screen power joins the energy term, legibility joins QoE",
		},
	}
	sizes := make([]float64, len(evalLadder))
	for i, rep := range evalLadder {
		sizes[i] = rep.BitrateMbps / 8 * 2
	}
	contexts := []struct {
		name           string
		ambient, vib   float64
		signal, bwMbps float64
	}{
		{name: "dark room", ambient: 0.0, vib: 0.2, signal: -88, bwMbps: 40},
		{name: "indoor cafe", ambient: 0.4, vib: 0.6, signal: -92, bwMbps: 30},
		{name: "night bus", ambient: 0.1, vib: 6.5, signal: -108, bwMbps: 15},
		{name: "daytime bus", ambient: 0.8, vib: 6.5, signal: -108, bwMbps: 15},
		{name: "sunny park", ambient: 1.0, vib: 0.3, signal: -95, bwMbps: 25},
	}
	for _, c := range contexts {
		ctx := abr.Context{
			Ladder:             evalLadder,
			SegmentSizesMB:     sizes,
			SegmentDurationSec: 2,
			BufferSec:          25,
			BufferThresholdSec: player.DefaultBufferThresholdSec,
			PrevRung:           7,
			SignalDBm:          c.signal,
			VibrationLevel:     c.vib,
		}
		d, err := joint.Choose(ctx, c.ambient, c.bwMbps)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			c.name, f2(c.ambient), f2(c.vib), f1(c.signal),
			f2(evalLadder[d.Rung].BitrateMbps), f2(d.Brightness),
		})
	}
	return t, nil
}

// AblationAbandonment quantifies the prefetching/abandonment tension
// (the motivation of the paper's reference [6]): the viewer quits a
// third of the way into each trace, and deeper prefetch buffers leave
// more downloaded-but-unwatched payload behind.
func (e *Env) AblationAbandonment() (*Table, error) {
	t := &Table{
		ID:      "abl-abandon",
		Caption: "Ablation: buffer depth vs. wasted download under early quits (Youtube policy)",
		Header:  []string{"buffer threshold (s)", "wasted (MB)", "wasted energy (J)", "total (J)"},
		Notes: []string{
			"viewer quits at 1/3 of each video; wasted energy = trailing buffered payload x energy/MB at the trace's mean signal",
		},
	}
	thresholds := []float64{10, 30, 60}
	metrics, err := e.replay(len(thresholds), func(row int, a *traceArtifacts, cfg *sim.Config) {
		cfg.Algorithm = abr.NewYoutube()
		cfg.VibrationAt = nil
		cfg.AbandonAtSec = a.tr.LengthSec / 3
		cfg.BufferThresholdSec = thresholds[row]
	})
	if err != nil {
		return nil, err
	}
	traces, err := e.Traces()
	if err != nil {
		return nil, err
	}
	for hi, threshold := range thresholds {
		var wastedMB, wastedJ, totJ float64
		for ti, tr := range traces {
			m := metrics[hi][ti]
			wastedMB += m.WastedMB
			wastedJ += m.WastedMB * evalPower.EnergyPerMBJ(tr.AvgSignalDBm())
			totJ += m.TotalJ()
		}
		n := float64(len(traces))
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0f", threshold), f1(wastedMB / n), f1(wastedJ / n), f1(totJ / n),
		})
	}
	return t, nil
}

// AblationTailEnergy enables the LTE RRC state machine and sweeps the
// download-pacing hysteresis, quantifying the tail-energy saving of
// bursty prefetching (the mechanism behind the paper's references
// [7, 29, 30]).
func (e *Env) AblationTailEnergy() (*Table, error) {
	t := &Table{
		ID:      "abl-tail",
		Caption: "Ablation: LTE tail energy vs. download-pacing hysteresis (Ours, RRC on)",
		Header:  []string{"resume threshold (s)", "radio-control (J)", "total (J)", "rebuffer (s)"},
		Notes: []string{
			"resume = 30 means no hysteresis (trickle right below the threshold);",
			"deeper drains give the radio long idle stretches, amortising the ~11.5 s LTE tail",
		},
	}
	rrc := power.DefaultRRC()
	resumes := []float64{30, 20, 10, 5}
	metrics, err := e.replay(len(resumes), func(row int, _ *traceArtifacts, cfg *sim.Config) {
		cfg.Algorithm = core.NewOnline(evalObj)
		cfg.ResumeThresholdSec = resumes[row]
		cfg.RRC = &rrc
	})
	if err != nil {
		return nil, err
	}
	for ri, resumeSec := range resumes {
		var ctlJ, totJ, rebufSec float64
		for _, m := range metrics[ri] {
			ctlJ += m.RadioCtlJ
			totJ += m.TotalJ()
			rebufSec += m.RebufferSec
		}
		n := float64(len(metrics[ri]))
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0f", resumeSec), f1(ctlJ / n), f1(totJ / n), f1(rebufSec / n),
		})
	}
	return t, nil
}
