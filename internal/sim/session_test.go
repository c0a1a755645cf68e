package sim

import (
	"testing"

	"ecavs/internal/abr"
	"ecavs/internal/core"
	"ecavs/internal/dash"
	"ecavs/internal/player"
	"ecavs/internal/power"
	"ecavs/internal/qoe"
	"ecavs/internal/trace"
)

func TestManifestForTrace(t *testing.T) {
	pm := power.EvalModel()
	traces, err := trace.GenerateTableV(pm.NominalThroughputMBps)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ManifestForTrace(traces[0], dash.EvalLadder())
	if err != nil {
		t.Fatal(err)
	}
	if m.Video().DurationSec != traces[0].LengthSec {
		t.Errorf("manifest duration = %v, want %v", m.Video().DurationSec, traces[0].LengthSec)
	}
	if _, err := ManifestForTrace(nil, dash.EvalLadder()); err == nil {
		t.Error("nil trace accepted")
	}
}

func TestRunOnTraceValidation(t *testing.T) {
	if _, err := RunOnTrace(nil, nil, nil, power.EvalModel(), qoe.Default(), 30); err == nil {
		t.Error("nil trace accepted")
	}
	bad := &trace.Trace{}
	if _, err := RunOnTrace(bad, nil, nil, power.EvalModel(), qoe.Default(), 30); err == nil {
		t.Error("invalid trace accepted")
	}
}

// The headline integration test: on the Table V traces, the paper's
// orderings must hold — YouTube spends the most energy and gets the
// best QoE; Ours and Optimal save drastically more energy than FESTIVE
// and BBA; Ours' energy is close to Optimal's; and on the combined
// saving/degradation ratio Ours beats both baselines.
func TestPaperOrderingsOnTableVTraces(t *testing.T) {
	if testing.Short() {
		t.Skip("full five-trace comparison is slow")
	}
	pm := power.EvalModel()
	qm := qoe.Default()
	ladder := dash.EvalLadder()
	traces, err := trace.GenerateTableV(pm.NominalThroughputMBps)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := core.NewObjective(core.DefaultAlpha, pm, qm)
	if err != nil {
		t.Fatal(err)
	}

	var sumSave, sumDegr [5]float64 // YT, FESTIVE, BBA, Ours, Optimal
	for _, tr := range traces {
		man, err := ManifestForTrace(tr, ladder)
		if err != nil {
			t.Fatal(err)
		}
		tasks, err := core.ObserveTasks(tr, man, player.DefaultBufferThresholdSec, 6)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := core.PlanOptimal(obj, ladder, tasks)
		if err != nil {
			t.Fatal(err)
		}
		algs := []abr.Algorithm{
			abr.NewYoutube(),
			abr.NewFESTIVE(),
			abr.NewBBA(),
			core.NewOnline(obj),
			core.NewPlannedAlgorithm("Optimal", plan),
		}
		results := make([]*Metrics, len(algs))
		for i, a := range algs {
			m, err := RunOnTrace(tr, man, a, pm, qm, player.DefaultBufferThresholdSec)
			if err != nil {
				t.Fatalf("trace %d %s: %v", tr.ID, a.Name(), err)
			}
			results[i] = m
		}
		yt := results[0]

		// YouTube downloads everything at 5.8 and spends the most.
		for i, m := range results[1:] {
			if m.TotalJ() > yt.TotalJ()*1.02 {
				t.Errorf("trace %d: %s energy %.0f J exceeds YouTube %.0f J",
					tr.ID, algs[i+1].Name(), m.TotalJ(), yt.TotalJ())
			}
			if m.MeanQoE > yt.MeanQoE*1.01 {
				t.Errorf("trace %d: %s QoE %.3f exceeds YouTube %.3f",
					tr.ID, algs[i+1].Name(), m.MeanQoE, yt.MeanQoE)
			}
		}
		// Ours and Optimal save far more than FESTIVE and BBA.
		for _, ctx := range []int{3, 4} {
			for _, base := range []int{1, 2} {
				if results[ctx].TotalJ() > results[base].TotalJ()*0.9 {
					t.Errorf("trace %d: %s (%.0f J) does not clearly beat %s (%.0f J)",
						tr.ID, algs[ctx].Name(), results[ctx].TotalJ(),
						algs[base].Name(), results[base].TotalJ())
				}
			}
		}
		// Ours tracks Optimal's energy within 20%.
		oursJ, optJ := results[3].TotalJ(), results[4].TotalJ()
		if oursJ > optJ*1.2 {
			t.Errorf("trace %d: Ours %.0f J strays from Optimal %.0f J", tr.ID, oursJ, optJ)
		}
		for i, m := range results {
			sumSave[i] += 1 - m.TotalJ()/yt.TotalJ()
			sumDegr[i] += 1 - m.MeanQoE/yt.MeanQoE
		}
	}

	// Aggregate shape (paper Figs. 5b, 6c, 7): Ours saves dramatically
	// more than the baselines while the combined ratio favours Ours.
	oursSave, festSave, bbaSave := sumSave[3]/5, sumSave[1]/5, sumSave[2]/5
	if oursSave < 0.30 {
		t.Errorf("Ours average saving = %.1f%%, want >= 30%% (paper: 33%%)", oursSave*100)
	}
	if festSave > oursSave/2 || bbaSave > oursSave/2 {
		t.Errorf("baselines save too much: FESTIVE %.1f%%, BBA %.1f%% vs Ours %.1f%%",
			festSave*100, bbaSave*100, oursSave*100)
	}
	oursRatio := oursSave / (sumDegr[3] / 5)
	festRatio := festSave / (sumDegr[1] / 5)
	bbaRatio := bbaSave / (sumDegr[2] / 5)
	if oursRatio <= festRatio || oursRatio <= bbaRatio {
		t.Errorf("saving/degradation ratio: Ours %.2f must beat FESTIVE %.2f and BBA %.2f",
			oursRatio, festRatio, bbaRatio)
	}
	// Optimal provides the upper bound on energy saving (within noise).
	if sumSave[4]/5 < oursSave-0.05 {
		t.Errorf("Optimal average saving %.1f%% below Ours %.1f%%", sumSave[4]/5*100, oursSave*100)
	}
}

func TestBaseEnergyJ(t *testing.T) {
	pm := power.EvalModel()
	qm := qoe.Default()
	traces, err := trace.GenerateTableV(pm.NominalThroughputMBps)
	if err != nil {
		t.Fatal(err)
	}
	tr := traces[0]
	man, err := ManifestForTrace(tr, dash.EvalLadder())
	if err != nil {
		t.Fatal(err)
	}
	baseJ, err := BaseEnergyJ(tr, man, pm, qm)
	if err != nil {
		t.Fatal(err)
	}
	// Base energy ≈ base power x trace length (downloads at 0.1 Mbps
	// are nearly free).
	approx := pm.BasePowerW * tr.LengthSec
	if baseJ < approx*0.95 || baseJ > approx*1.2 {
		t.Errorf("BaseEnergyJ = %.0f, want near %.0f", baseJ, approx)
	}
	// Every policy's energy is bounded below by the base energy.
	yt, err := RunOnTrace(tr, man, abr.NewYoutube(), pm, qm, 30)
	if err != nil {
		t.Fatal(err)
	}
	if yt.TotalJ() < baseJ {
		t.Errorf("YouTube %.0f J below base %.0f J", yt.TotalJ(), baseJ)
	}
}

// decisionSpy passes every decision to the algorithm it wraps and keeps
// each one's context and chosen rung, by segment.
type decisionSpy struct {
	abr.Algorithm
	ctx  map[int]abr.Context
	rung map[int]int
}

func (s *decisionSpy) ChooseRung(ctx abr.Context) (int, error) {
	rung, err := s.Algorithm.ChooseRung(ctx)
	s.ctx[ctx.SegmentIndex], s.rung[ctx.SegmentIndex] = ctx, rung
	return rung, err
}

// TestSegmentLogRecordsDecisionContext pins the segment log as the
// session's decision trace: on a trace whose signal and vibration vary,
// every entry carries the rung chosen for its segment and the buffer,
// signal and vibration of the context it was chosen in.
func TestSegmentLogRecordsDecisionContext(t *testing.T) {
	traces, err := trace.GenerateTableV(power.EvalModel().NominalThroughputMBps)
	if err != nil {
		t.Fatal(err)
	}
	tr := traces[2]
	man, err := ManifestForTrace(tr, dash.EvalLadder())
	if err != nil {
		t.Fatal(err)
	}
	comp, err := tr.Compiled()
	if err != nil {
		t.Fatal(err)
	}
	spy := &decisionSpy{Algorithm: abr.NewFESTIVE(), ctx: map[int]abr.Context{}, rung: map[int]int{}}
	m, err := Run(Config{
		Manifest:    man,
		Link:        comp.Link(),
		VibrationAt: comp.Vibration(0),
		Algorithm:   spy,
		Power:       power.EvalModel(),
		QoE:         qoe.Default(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Segments) == 0 || len(m.Segments) != len(spy.ctx) {
		t.Fatalf("%d log entries for %d decisions", len(m.Segments), len(spy.ctx))
	}
	signals, vibrations, buffers := map[float64]bool{}, map[float64]bool{}, map[float64]bool{}
	for i, log := range m.Segments {
		ctx, ok := spy.ctx[log.Index]
		if log.Index != i || !ok {
			t.Fatalf("log entry %d is segment %d (decided: %v)", i, log.Index, ok)
		}
		if log.Rung != spy.rung[i] || log.BufferSec != ctx.BufferSec ||
			log.SignalDBm != ctx.SignalDBm || log.Vibration != ctx.VibrationLevel {
			t.Errorf("segment %d: log rung %d buffer %v signal %v vibration %v, decision rung %d buffer %v signal %v vibration %v",
				i, log.Rung, log.BufferSec, log.SignalDBm, log.Vibration,
				spy.rung[i], ctx.BufferSec, ctx.SignalDBm, ctx.VibrationLevel)
		}
		signals[log.SignalDBm], vibrations[log.Vibration], buffers[log.BufferSec] = true, true, true
	}
	if len(signals) < 2 || len(vibrations) < 2 || len(buffers) < 2 {
		t.Errorf("context never varied: %d signals, %d vibrations, %d buffer levels", len(signals), len(vibrations), len(buffers))
	}
}
