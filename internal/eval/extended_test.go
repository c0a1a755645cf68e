package eval

import (
	"testing"

	"ecavs/internal/abr"
	"ecavs/internal/core"
	"ecavs/internal/player"
	"ecavs/internal/sim"
	"ecavs/internal/trace"
)

func TestExtendedBaselines(t *testing.T) {
	if testing.Short() {
		t.Skip("extended comparison replays many sessions")
	}
	tbl, err := sharedEnv.ExtendedBaselines()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 7 {
		t.Fatalf("rows = %d, want 7 (five paper approaches + BOLA + RobustMPC)", len(tbl.Rows))
	}
	saving := map[string]float64{}
	degr := map[string]float64{}
	for _, row := range tbl.Rows {
		saving[row[0]] = cell(t, row[2])
		degr[row[0]] = cell(t, row[4])
	}
	// The context-blind newcomers behave like FESTIVE/BBA: modest
	// savings, far below the context-aware approaches.
	for _, name := range []string{"BOLA", "RobustMPC"} {
		if saving[name] >= saving["Ours"]/2 {
			t.Errorf("%s saving %v%% rivals Ours %v%%; it has no context signal", name, saving[name], saving["Ours"])
		}
		if saving[name] < -3 {
			t.Errorf("%s burns %v%% more than Youtube", name, -saving[name])
		}
		if degr[name] > 10 {
			t.Errorf("%s degrades QoE by %v%%", name, degr[name])
		}
	}
}

func TestExtendedLearned(t *testing.T) {
	if testing.Short() {
		t.Skip("training + evaluation is slow")
	}
	tbl, err := sharedEnv.ExtendedLearned()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 traces", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		qlearnJ := cell(t, row[1])
		ytJ := cell(t, row[3])
		if qlearnJ > ytJ*1.05 {
			t.Errorf("%s: QLearn %v J exceeds Youtube %v J", row[0], qlearnJ, ytJ)
		}
		if q := cell(t, row[2]); q < 1 || q > 5 {
			t.Errorf("%s: QLearn QoE %v off the scale", row[0], q)
		}
	}
}

func TestExtendedBrightness(t *testing.T) {
	tbl, err := sharedEnv.ExtendedBrightness()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 contexts", len(tbl.Rows))
	}
	byName := map[string][]string{}
	for _, row := range tbl.Rows {
		byName[row[0]] = row
	}
	dark := cell(t, byName["dark room"][5])
	sunny := cell(t, byName["sunny park"][5])
	if dark >= sunny {
		t.Errorf("dark-room brightness %v >= sunny %v", dark, sunny)
	}
	// The bus contexts stream lower bitrates than the quiet contexts.
	busBR := cell(t, byName["night bus"][4])
	roomBR := cell(t, byName["dark room"][4])
	if busBR > roomBR {
		t.Errorf("bus bitrate %v exceeds room bitrate %v", busBR, roomBR)
	}
	// Ambient, not motion, drives brightness: the two bus rows differ
	// only in light and must order accordingly.
	if cell(t, byName["night bus"][5]) >= cell(t, byName["daytime bus"][5]) {
		t.Error("night-bus brightness should undercut daytime-bus brightness")
	}
}

func TestFig5cAndFig6c(t *testing.T) {
	if testing.Short() {
		t.Skip("needs the full comparison")
	}
	fig5c, err := sharedEnv.Fig5c()
	if err != nil {
		t.Fatal(err)
	}
	if len(fig5c.Rows) != 5 {
		t.Fatalf("fig5c rows = %d, want 5 approaches", len(fig5c.Rows))
	}
	for _, row := range fig5c.Rows {
		base := cell(t, row[1])
		extra := cell(t, row[2])
		total := cell(t, row[3])
		if diff := base + extra - total; diff > 0.2 || diff < -0.2 {
			t.Errorf("%s: base %v + extra %v != total %v", row[0], base, extra, total)
		}
	}
	fig6c, err := sharedEnv.Fig6c()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range fig6c.Rows {
		if d := cell(t, row[1]); d < -1 || d > 50 {
			t.Errorf("%s degradation = %v%% out of range", row[0], d)
		}
	}
}

func TestAblationSegmentDuration(t *testing.T) {
	if testing.Short() {
		t.Skip("segment-duration sweep replays sessions")
	}
	tbl, err := sharedEnv.AblationSegmentDuration()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 durations", len(tbl.Rows))
	}
	// Longer segments use the ramped link more efficiently: effective
	// throughput rises and download energy falls monotonically.
	prevEff, prevDl := -1.0, 1e18
	for _, row := range tbl.Rows {
		eff := cell(t, row[1])
		dl := cell(t, row[2])
		if eff <= prevEff {
			t.Errorf("effective throughput not increasing: %v after %v", eff, prevEff)
		}
		if dl >= prevDl {
			t.Errorf("download energy not decreasing: %v after %v", dl, prevDl)
		}
		if rebuf := cell(t, row[4]); rebuf > 1 {
			t.Errorf("segment %s s caused %v s of stalls", row[0], rebuf)
		}
		prevEff, prevDl = eff, dl
	}
}

func TestExtendedRobustness(t *testing.T) {
	if testing.Short() {
		t.Skip("three campaigns replay many sessions")
	}
	tbl, err := sharedEnv.ExtendedRobustness()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 campaigns", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		save := cell(t, row[1])
		fest := cell(t, row[3])
		if save < 35 {
			t.Errorf("campaign %s: Ours saving %v%% collapsed", row[0], save)
		}
		if fest > save/2 {
			t.Errorf("campaign %s: FESTIVE %v%% rivals Ours %v%%", row[0], fest, save)
		}
	}
}

// TestOursSavesOnEveryReseededTrace replays YouTube and Ours (alpha
// 0.5) on twenty re-seeded sets of the five Table V traces, set c adding
// 1000c to every trace's seed (sets 0-2 are ext-robustness's
// campaigns), and requires Ours to save whole-phone energy on every
// trace, not only on average.
func TestOursSavesOnEveryReseededTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("twenty trace sets replay 200 sessions")
	}
	e := NewEnv()
	obj, err := core.NewObjective(0.5, e.EvalPower, e.QoE)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 20; c++ {
		for _, spec := range trace.TableVSpecs() {
			spec.Seed += int64(1000 * c)
			tr, err := trace.Generate(spec, e.EvalPower.NominalThroughputMBps)
			if err != nil {
				t.Fatal(err)
			}
			man, err := sim.ManifestForTrace(tr, e.Ladder)
			if err != nil {
				t.Fatal(err)
			}
			yt, err := sim.RunOnTrace(tr, man, abr.NewYoutube(), e.EvalPower, e.QoE, player.DefaultBufferThresholdSec)
			if err != nil {
				t.Fatal(err)
			}
			ours, err := sim.RunOnTrace(tr, man, core.NewOnline(obj), e.EvalPower, e.QoE, player.DefaultBufferThresholdSec)
			if err != nil {
				t.Fatal(err)
			}
			if save := 1 - ours.TotalJ()/yt.TotalJ(); !(save > 0) {
				t.Errorf("set %d trace %d: Ours saves %.2f%% against YouTube, want more than 0", c, spec.ID, 100*save)
			}
		}
	}
}

func TestExtendedFairness(t *testing.T) {
	tbl, err := sharedEnv.ExtendedFairness()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 policies", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		fair := cell(t, row[1])
		if fair < 0.85 || fair > 1.0+1e-9 {
			t.Errorf("%s fairness = %v, want within [0.85, 1]", row[0], fair)
		}
		br := cell(t, row[2])
		if br > 4.2 {
			t.Errorf("%s mean bitrate %v exceeds the 4 Mbps fair share", row[0], br)
		}
		if br < 1.5 {
			t.Errorf("%s mean bitrate %v suggests starvation", row[0], br)
		}
	}
}

func TestAblationAbandonment(t *testing.T) {
	if testing.Short() {
		t.Skip("abandonment ablation replays many sessions")
	}
	tbl, err := sharedEnv.AblationAbandonment()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 thresholds", len(tbl.Rows))
	}
	// Wasted payload grows monotonically with buffer depth.
	prev := -1.0
	for _, row := range tbl.Rows {
		wasted := cell(t, row[1])
		if wasted <= prev {
			t.Errorf("wasted MB not increasing with buffer depth: %v after %v", wasted, prev)
		}
		prev = wasted
	}
}

func TestAblationTailEnergy(t *testing.T) {
	if testing.Short() {
		t.Skip("tail ablation replays many sessions")
	}
	tbl, err := sharedEnv.AblationTailEnergy()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 resume levels", len(tbl.Rows))
	}
	// Deepest hysteresis must spend clearly less radio-control energy
	// than no hysteresis, without introducing stalls.
	first := cell(t, tbl.Rows[0][1])
	last := cell(t, tbl.Rows[len(tbl.Rows)-1][1])
	if last >= first*0.8 {
		t.Errorf("deep hysteresis control energy %v J not clearly below trickle %v J", last, first)
	}
	for _, row := range tbl.Rows {
		if rebuf := cell(t, row[3]); rebuf > 0.5 {
			t.Errorf("resume=%s caused %v s of rebuffering", row[0], rebuf)
		}
	}
}
