package ecavs

import (
	"testing"
)

func TestFacadeModels(t *testing.T) {
	if err := DefaultQoE().Validate(); err != nil {
		t.Errorf("DefaultQoE invalid: %v", err)
	}
	if err := DefaultPower().Validate(); err != nil {
		t.Errorf("DefaultPower invalid: %v", err)
	}
	if err := EvalPower().Validate(); err != nil {
		t.Errorf("EvalPower invalid: %v", err)
	}
	if len(EvalLadder()) != 14 || len(TableIILadder()) != 6 {
		t.Error("ladder sizes wrong")
	}
}

func TestFacadeObjectiveValidation(t *testing.T) {
	if _, err := NewObjective(2); err == nil {
		t.Error("alpha out of range accepted")
	}
	if _, err := NewOnline(-1); err == nil {
		t.Error("NewOnline accepted bad alpha")
	}
}

func TestFacadeStreamEndToEnd(t *testing.T) {
	traces, err := GenerateTableVTraces()
	if err != nil {
		t.Fatal(err)
	}
	tr := traces[0]

	ours, err := NewOnline(DefaultAlpha)
	if err != nil {
		t.Fatal(err)
	}
	yt := NewYoutube()

	mOurs, err := Stream(tr, ours)
	if err != nil {
		t.Fatal(err)
	}
	mYT, err := Stream(tr, yt)
	if err != nil {
		t.Fatal(err)
	}
	if mOurs.TotalJ() >= mYT.TotalJ() {
		t.Errorf("Ours %.0f J should undercut Youtube %.0f J", mOurs.TotalJ(), mYT.TotalJ())
	}

	baseJ, err := BaseEnergyJ(tr)
	if err != nil {
		t.Fatal(err)
	}
	if baseJ <= 0 || baseJ > mOurs.TotalJ() {
		t.Errorf("base energy %.0f J out of range (ours %.0f J)", baseJ, mOurs.TotalJ())
	}
}

func TestFacadeStreamOptions(t *testing.T) {
	traces, err := GenerateTableVTraces()
	if err != nil {
		t.Fatal(err)
	}
	tr := traces[0]
	m, err := Stream(tr, NewYoutube(),
		WithBufferThreshold(15),
		WithPacingHysteresis(5),
		WithLTETailEnergy(),
	)
	if err != nil {
		t.Fatal(err)
	}
	if m.RadioCtlJ <= 0 {
		t.Error("LTE tail option did not account radio-control energy")
	}
	// Invalid threshold option is ignored (keeps the default).
	if _, err := Stream(tr, NewYoutube(), WithBufferThreshold(-1)); err != nil {
		t.Errorf("negative threshold option broke Stream: %v", err)
	}
}

func TestFacadeLoadTrace(t *testing.T) {
	traces, err := GenerateTableVTraces()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := traces[1].Save(dir); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTrace(dir, traces[1].ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != traces[1].Name {
		t.Errorf("loaded trace name = %q, want %q", got.Name, traces[1].Name)
	}
	if _, err := LoadTrace(dir, 99); err == nil {
		t.Error("missing trace id accepted")
	}
}

func TestFacadeOptimalPlan(t *testing.T) {
	traces, err := GenerateTableVTraces()
	if err != nil {
		t.Fatal(err)
	}
	alg, plan, err := PlanOptimalForTrace(traces[0], DefaultAlpha)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Rungs) == 0 {
		t.Fatal("empty plan")
	}
	m, err := Stream(traces[0], alg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Algorithm != "Optimal" {
		t.Errorf("Algorithm = %q", m.Algorithm)
	}
}

func TestFacadeNilGuards(t *testing.T) {
	if _, err := Stream(nil, NewYoutube()); err == nil {
		t.Error("nil trace accepted")
	}
	traces, err := GenerateTableVTraces()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Stream(traces[0], nil); err == nil {
		t.Error("nil algorithm accepted")
	}
	if _, err := BaseEnergyJ(nil); err == nil {
		t.Error("nil trace accepted by BaseEnergyJ")
	}
	if _, _, err := PlanOptimalForTrace(nil, 0.5); err == nil {
		t.Error("nil trace accepted by PlanOptimalForTrace")
	}
}

func TestFacadeBaselines(t *testing.T) {
	if NewBBA().Name() != "BBA" {
		t.Error("BBA name wrong")
	}
	if NewFESTIVE().Name() != "FESTIVE" {
		t.Error("FESTIVE name wrong")
	}
	if NewYoutube().Name() != "Youtube" {
		t.Error("Youtube name wrong")
	}
	if NewBOLA().Name() != "BOLA" {
		t.Error("BOLA name wrong")
	}
	if NewRobustMPC().Name() != "RobustMPC" {
		t.Error("RobustMPC name wrong")
	}
}
