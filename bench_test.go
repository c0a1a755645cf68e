// Benchmarks regenerating every table and figure of the paper's
// evaluation (one benchmark per artifact; see DESIGN.md's experiment
// index) plus microbenchmarks for the simulator's hot paths. The
// expensive five-trace comparison is computed once per process and
// cached in the shared eval.Env, so per-iteration work measures the
// report-generation path the way cmd/experiments exercises it.
package ecavs_test

import (
	"sync"
	"testing"

	"ecavs"
	"ecavs/internal/abr"
	"ecavs/internal/campaign"
	"ecavs/internal/core"
	"ecavs/internal/dash"
	"ecavs/internal/eval"
	"ecavs/internal/netsim"
	"ecavs/internal/power"
	"ecavs/internal/qoe"
	"ecavs/internal/sim"
	"ecavs/internal/trace"
	"ecavs/internal/vibration"
)

var (
	benchEnvOnce sync.Once
	benchEnv     *eval.Env
)

// env returns the shared experiment environment with the comparison
// pre-computed, so artifact benchmarks measure report generation.
func env(b *testing.B) *eval.Env {
	b.Helper()
	benchEnvOnce.Do(func() {
		benchEnv = eval.NewEnv()
		if _, err := benchEnv.Comparison(); err != nil {
			b.Fatalf("prime comparison: %v", err)
		}
	})
	return benchEnv
}

// benchExperiment runs one registry experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e := env(b)
	ex, err := eval.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table, err := ex.Run(e)
		if err != nil {
			b.Fatal(err)
		}
		if len(table.Rows) == 0 {
			b.Fatal("empty report")
		}
	}
}

// One benchmark per paper artifact.

func BenchmarkFig1aEnergyVsSignal(b *testing.B)     { benchExperiment(b, "fig1a") }
func BenchmarkFig1bQoEEnergyVsBitrate(b *testing.B) { benchExperiment(b, "fig1b") }
func BenchmarkFig2aSpatialTemporal(b *testing.B)    { benchExperiment(b, "fig2a") }
func BenchmarkFig2bQualityCurveFit(b *testing.B)    { benchExperiment(b, "fig2b") }
func BenchmarkFig2cImpairmentSurface(b *testing.B)  { benchExperiment(b, "fig2c") }
func BenchmarkTable2Ladder(b *testing.B)            { benchExperiment(b, "tab2") }
func BenchmarkTable3Coefficients(b *testing.B)      { benchExperiment(b, "tab3") }
func BenchmarkTable5Traces(b *testing.B)            { benchExperiment(b, "tab5") }
func BenchmarkTable6PowerValidation(b *testing.B)   { benchExperiment(b, "tab6") }
func BenchmarkFig5aEnergyComparison(b *testing.B)   { benchExperiment(b, "fig5a") }
func BenchmarkFig5bEnergySaving(b *testing.B)       { benchExperiment(b, "fig5b") }
func BenchmarkFig5cBaseExtra(b *testing.B)          { benchExperiment(b, "fig5c") }
func BenchmarkFig6aQoEComparison(b *testing.B)      { benchExperiment(b, "fig6a") }
func BenchmarkFig6bAverageQoE(b *testing.B)         { benchExperiment(b, "fig6b") }
func BenchmarkFig6cQoEDegradation(b *testing.B)     { benchExperiment(b, "fig6c") }
func BenchmarkFig7SavingRatio(b *testing.B)         { benchExperiment(b, "fig7") }

// Ablation benchmarks (design choices called out in DESIGN.md).

func BenchmarkAblationAlphaSweep(b *testing.B)      { benchExperiment(b, "abl-alpha") }
func BenchmarkAblationNoContext(b *testing.B)       { benchExperiment(b, "abl-context") }
func BenchmarkAblationNoGradualSwitch(b *testing.B) { benchExperiment(b, "abl-gradual") }
func BenchmarkAblationEstimators(b *testing.B)      { benchExperiment(b, "abl-estimator") }
func BenchmarkAblationVibrationWindow(b *testing.B) { benchExperiment(b, "abl-window") }
func BenchmarkAblationTailEnergy(b *testing.B)      { benchExperiment(b, "abl-tail") }
func BenchmarkAblationAbandonment(b *testing.B)     { benchExperiment(b, "abl-abandon") }
func BenchmarkAblationSegmentDuration(b *testing.B) { benchExperiment(b, "abl-segdur") }
func BenchmarkExtendedBaselines(b *testing.B)       { benchExperiment(b, "ext-baselines") }
func BenchmarkExtendedLearned(b *testing.B)         { benchExperiment(b, "ext-learned") }
func BenchmarkExtendedBrightness(b *testing.B)      { benchExperiment(b, "ext-brightness") }
func BenchmarkExtendedFairness(b *testing.B)        { benchExperiment(b, "ext-fairness") }
func BenchmarkExtendedRobustness(b *testing.B)      { benchExperiment(b, "ext-robustness") }

// BenchmarkComparisonCold measures the full five-trace, five-algorithm
// evaluation from a cold environment — the parallel engine's headline
// workload. Each iteration builds a fresh Env so nothing is cached;
// on a multi-core machine the trace×algorithm sessions fan out over
// the worker pool.
func BenchmarkComparisonCold(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := eval.NewEnv()
		c, err := e.Comparison()
		if err != nil {
			b.Fatal(err)
		}
		if len(c.Results) == 0 {
			b.Fatal("empty comparison")
		}
	}
}

// End-to-end session benchmarks: one full trace replay per iteration.

func benchTrace(b *testing.B) *trace.Trace {
	b.Helper()
	traces, err := ecavs.GenerateTableVTraces()
	if err != nil {
		b.Fatal(err)
	}
	return traces[0]
}

func BenchmarkSessionYoutube(b *testing.B) {
	tr := benchTrace(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ecavs.Stream(tr, ecavs.NewYoutube()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSessionOnline(b *testing.B) {
	tr := benchTrace(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alg, err := ecavs.NewOnline(ecavs.DefaultAlpha)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ecavs.Stream(tr, alg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimalPlanner(b *testing.B) {
	tr := benchTrace(b)
	obj, err := core.NewObjective(core.DefaultAlpha, power.EvalModel(), qoe.Default())
	if err != nil {
		b.Fatal(err)
	}
	man, err := sim.ManifestForTrace(tr, dash.EvalLadder())
	if err != nil {
		b.Fatal(err)
	}
	tasks, err := core.ObserveTasks(tr, man)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.PlanOptimal(obj, dash.EvalLadder(), tasks); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionAllocs pins the allocation-free hot path: one
// metrics-only trace replay per iteration with every derived input
// (manifest, algorithm state) prebuilt where the campaign runner would
// prebuild it. The allocs/op figure is the tracked budget — it is what
// keeps a million-session campaign out of the garbage collector.
func BenchmarkSessionAllocs(b *testing.B) {
	tr := benchTrace(b)
	man, err := sim.ManifestForTrace(tr, dash.EvalLadder())
	if err != nil {
		b.Fatal(err)
	}
	comp, err := tr.Compiled()
	if err != nil {
		b.Fatal(err)
	}
	pm, qm := power.EvalModel(), qoe.Default()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := sim.Run(sim.Config{
			SessionParams: sim.SessionParams{MetricsOnly: true},
			Manifest:      man,
			Link:          comp.Link(),
			VibrationAt:   comp.Vibration(0),
			Algorithm:     abr.NewFESTIVE(),
			Power:         pm,
			QoE:           qm,
		})
		if err != nil {
			b.Fatal(err)
		}
		if m.TotalJ() <= 0 {
			b.Fatal("degenerate session")
		}
	}
}

// sessionAllocBudget is the tracked allocation budget for one
// metrics-only session (see BenchmarkSessionAllocs).
const sessionAllocBudget = 15

// TestSessionAllocsTelemetryDisabled pins the zero-overhead contract
// from the observability layer: a metrics-only session, which keeps no
// segment log, stays inside the allocation budget.
func TestSessionAllocsTelemetryDisabled(t *testing.T) {
	tr := benchTrace2(t)
	man, err := sim.ManifestForTrace(tr, dash.EvalLadder())
	if err != nil {
		t.Fatal(err)
	}
	comp, err := tr.Compiled()
	if err != nil {
		t.Fatal(err)
	}
	pm, qm := power.EvalModel(), qoe.Default()
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := sim.Run(sim.Config{
			SessionParams: sim.SessionParams{MetricsOnly: true},
			Manifest:      man,
			Link:          comp.Link(),
			VibrationAt:   comp.Vibration(0),
			Algorithm:     abr.NewFESTIVE(),
			Power:         pm,
			QoE:           qm,
		}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > sessionAllocBudget {
		t.Errorf("disabled-telemetry session allocates %.1f/run, budget %d", allocs, sessionAllocBudget)
	}
}

// TestDecisionAllocs pins every policy's steady-state decision at zero
// allocations: once primed with five download observations and one
// decision (which sizes any scratch and, for Online, compiles the
// ladder's rung table), choosing a rung and observing the download
// allocate nothing, on the 14-rung evaluation ladder with and — for
// BOLA, which then derives nominal sizes — without per-rung sizes.
func TestDecisionAllocs(t *testing.T) {
	obj, err := core.NewObjective(core.DefaultAlpha, power.EvalModel(), qoe.Default())
	if err != nil {
		t.Fatal(err)
	}
	ladder := dash.EvalLadder()
	sizes := make([]float64, len(ladder))
	for i, r := range ladder {
		sizes[i] = r.BitrateMbps / 8 * 2
	}
	ctx := abr.Context{
		SegmentIndex:       10,
		Ladder:             ladder,
		SegmentSizesMB:     sizes,
		SegmentDurationSec: 2,
		PrevRung:           7,
		BufferSec:          12,
		BufferThresholdSec: 30,
		SignalDBm:          -105,
		VibrationLevel:     6,
	}
	noSizes := ctx
	noSizes.SegmentSizesMB = nil
	for _, tc := range []struct {
		name string
		alg  abr.Algorithm
		ctx  abr.Context
	}{
		{"Youtube", abr.NewYoutube(), ctx},
		{"FESTIVE", abr.NewFESTIVE(), ctx},
		{"BBA", abr.NewBBA(), ctx},
		{"BOLA", abr.NewBOLA(), ctx},
		{"BOLA without sizes", abr.NewBOLA(), noSizes},
		{"RobustMPC", abr.NewMPC(), ctx},
		{"Ours", core.NewOnline(obj), ctx},
		{"Ours direct", core.NewOnline(obj, core.WithDirectReference()), ctx},
	} {
		for _, th := range []float64{6, 9, 4, 12, 7} {
			tc.alg.ObserveDownload(th)
		}
		if _, err := tc.alg.ChooseRung(tc.ctx); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := tc.alg.ChooseRung(tc.ctx); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			tc.alg.ObserveDownload(8)
		})
		if allocs != 0 {
			t.Errorf("%s: a steady-state decision allocates %.1f objects, want 0", tc.name, allocs)
		}
	}
}

// benchTrace2 is benchTrace for tests (testing.TB would also do, but
// the benchmark helpers predate the telemetry pin and take *testing.B).
func benchTrace2(t *testing.T) *trace.Trace {
	t.Helper()
	traces, err := ecavs.GenerateTableVTraces()
	if err != nil {
		t.Fatal(err)
	}
	return traces[0]
}

// BenchmarkCampaign10k runs a full 10000-session Monte-Carlo campaign
// per iteration (mixed algorithms, abandonment and vibration draws)
// and reports throughput as sessions/sec. The traces are shorter than
// the Table V commutes so the benchmark finishes in seconds; per-trace
// cost scales linearly with length.
func BenchmarkCampaign10k(b *testing.B) {
	rate := power.EvalModel().NominalThroughputMBps
	specs := []trace.Spec{
		{ID: 1, Name: "bench-bus", LengthSec: 180, DataSizeMB: 59, TargetVibration: 6.8,
			SignalMeanDBm: -107, SignalVolatilityDB: 3, SignalSwingDB: 5,
			CapAt90Mbps: 40, CapDecadeDB: 25, Seed: 201},
		{ID: 2, Name: "bench-train", LengthSec: 240, DataSizeMB: 80, TargetVibration: 2.5,
			SignalMeanDBm: -94, SignalVolatilityDB: 1.5, SignalSwingDB: 2,
			CapAt90Mbps: 40, CapDecadeDB: 25, Seed: 202},
	}
	traces := make([]*trace.Trace, 0, len(specs))
	for _, s := range specs {
		tr, err := trace.Generate(s, rate)
		if err != nil {
			b.Fatal(err)
		}
		traces = append(traces, tr)
	}
	cfg := campaign.Config{
		Traces:          traces,
		Sessions:        10_000,
		Seed:            1,
		AbandonProb:     0.25,
		VibrationJitter: 0.3,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := campaign.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Algorithms) == 0 {
			b.Fatal("empty campaign result")
		}
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(cfg.Sessions)*float64(b.N)/sec, "sessions/sec")
	}
}

// Microbenchmarks for the hot paths.

func BenchmarkOnlineDecision(b *testing.B) {
	obj, err := core.NewObjective(core.DefaultAlpha, power.EvalModel(), qoe.Default())
	if err != nil {
		b.Fatal(err)
	}
	alg := core.NewOnline(obj)
	alg.ObserveDownload(15)
	ladder := dash.EvalLadder()
	sizes := make([]float64, len(ladder))
	for i, r := range ladder {
		sizes[i] = r.BitrateMbps / 8 * 2
	}
	ctx := abr.Context{
		SegmentIndex:       10,
		Ladder:             ladder,
		SegmentSizesMB:     sizes,
		SegmentDurationSec: 2,
		PrevRung:           7,
		BufferSec:          25,
		BufferThresholdSec: 30,
		SignalDBm:          -105,
		VibrationLevel:     6,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := alg.ChooseRung(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChannelAdvance(b *testing.B) {
	pm := power.EvalModel()
	ch, err := netsim.NewChannel(netsim.VehicleSignal, pm.NominalThroughputMBps, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.Advance(0.1)
		_ = ch.ThroughputMBps()
	}
}

func BenchmarkVibrationLevel(b *testing.B) {
	gen, err := vibration.NewGenerator(vibration.DefaultSampleRateHz, 3)
	if err != nil {
		b.Fatal(err)
	}
	samples := gen.Generate(vibration.Bus, 0, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if vibration.Level(samples) <= 0 {
			b.Fatal("degenerate level")
		}
	}
}

func BenchmarkHarmonicMeanEstimator(b *testing.B) {
	e := netsim.NewHarmonicMeanEstimator(20)
	for i := 0; i < 20; i++ {
		e.Push(float64(i%7) + 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Push(float64(i%9) + 1)
		if _, ok := e.Estimate(); !ok {
			b.Fatal("no estimate")
		}
	}
}

func BenchmarkPowerMonitor(b *testing.B) {
	mo := power.NewMonitor(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := mo.Observe(2.5, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkManifestGeneration(b *testing.B) {
	video, err := dash.VideoByTitle("Battle")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dash.NewManifest(video, dash.EvalLadder(), dash.ManifestConfig{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTraceGeneration(b *testing.B) {
	pm := power.EvalModel()
	spec := trace.TableVSpecs()[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.Generate(spec, pm.NominalThroughputMBps); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSegmentQoE(b *testing.B) {
	m := qoe.Default()
	seg := qoe.Segment{BitrateMbps: 3.0, PrevBitrateMbps: 1.5, Vibration: 6, RebufferSec: 0.1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.SegmentQoE(seg) <= 0 {
			b.Fatal("degenerate QoE")
		}
	}
}

func BenchmarkSegmentEnergy(b *testing.B) {
	m := power.EvalModel()
	task := power.SegmentTask{BitrateMbps: 3.0, DurationSec: 2, SignalDBm: -105, BufferSec: 25}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.SegmentEnergy(task).TotalJ() <= 0 {
			b.Fatal("degenerate energy")
		}
	}
}
