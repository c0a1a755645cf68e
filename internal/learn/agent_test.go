package learn

import (
	"errors"
	"testing"

	"ecavs/internal/abr"
	"ecavs/internal/dash"
	"ecavs/internal/netsim"
	"ecavs/internal/power"
	"ecavs/internal/qoe"
	"ecavs/internal/sim"
	"ecavs/internal/trace"
)

func newTestAgent(t *testing.T, rungs int) *Agent {
	t.Helper()
	a, err := NewAgent(DefaultStateSpace(rungs), DefaultHyper(), DefaultReward(), 1)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func agentCtx(buffer float64, prev int) abr.Context {
	ladder := dash.EvalLadder()
	sizes := make([]float64, len(ladder))
	for i, rep := range ladder {
		sizes[i] = rep.BitrateMbps / 8 * 2
	}
	return abr.Context{
		Ladder:             ladder,
		SegmentSizesMB:     sizes,
		SegmentDurationSec: 2,
		BufferSec:          buffer,
		BufferThresholdSec: 30,
		PrevRung:           prev,
	}
}

func TestNewAgentValidation(t *testing.T) {
	bad := DefaultHyper()
	bad.Gamma = 1
	if _, err := NewAgent(DefaultStateSpace(14), bad, DefaultReward(), 1); err == nil {
		t.Error("invalid hyper accepted")
	}
	if _, err := NewAgent(StateSpace{}, DefaultHyper(), DefaultReward(), 1); err == nil {
		t.Error("invalid space accepted")
	}
}

func TestAgentNamesAndModes(t *testing.T) {
	a := newTestAgent(t, 14)
	if !a.training || a.Name() != "QLearn(train)" {
		t.Errorf("training agent = %v %q", a.training, a.Name())
	}
	a.Freeze()
	if a.training || a.Name() != "QLearn" {
		t.Errorf("frozen agent = %v %q", a.training, a.Name())
	}
}

func TestAgentErrors(t *testing.T) {
	a := newTestAgent(t, 14)
	if _, err := a.ChooseRung(abr.Context{}); !errors.Is(err, ErrBadContext) {
		t.Errorf("err = %v, want ErrBadContext", err)
	}
	// Ladder size mismatch.
	mismatch := newTestAgent(t, 6)
	if _, err := mismatch.ChooseRung(agentCtx(10, -1)); err == nil {
		t.Error("ladder mismatch accepted")
	}
}

func TestAgentChoosesValidRungs(t *testing.T) {
	a := newTestAgent(t, 14)
	for i := 0; i < 200; i++ {
		rung, err := a.ChooseRung(agentCtx(float64(i%35), i%14))
		if err != nil {
			t.Fatal(err)
		}
		if rung < 0 || rung >= 14 {
			t.Fatalf("rung %d out of range", rung)
		}
		a.ObserveDownload(10)
	}
}

func TestAgentLearnsFromOutcomes(t *testing.T) {
	a := newTestAgent(t, 14)
	// Drive many decisions with a consistent outcome; the table must
	// accumulate visits.
	for i := 0; i < 500; i++ {
		if _, err := a.ChooseRung(agentCtx(20, 7)); err != nil {
			t.Fatal(err)
		}
		a.ObserveDownload(12)
	}
	if a.Table().CoverageFraction() <= 0 {
		t.Error("no states were updated during training")
	}
}

func TestAgentResetKeepsTable(t *testing.T) {
	a := newTestAgent(t, 14)
	for i := 0; i < 50; i++ {
		if _, err := a.ChooseRung(agentCtx(20, 7)); err != nil {
			t.Fatal(err)
		}
		a.ObserveDownload(12)
	}
	cov := a.Table().CoverageFraction()
	a.Reset()
	if got := a.Table().CoverageFraction(); got != cov {
		t.Errorf("Reset wiped the table: coverage %v -> %v", cov, got)
	}
}

func TestTrainValidation(t *testing.T) {
	if _, err := Train(TrainConfig{}); err == nil {
		t.Error("empty config accepted")
	}
	cfg := DefaultTrainConfig(nil)
	cfg.Episodes = 1
	cfg.EpisodeSec = 10
	if _, err := Train(cfg); !errors.Is(err, dash.ErrEmptyLadder) {
		t.Errorf("err = %v, want ErrEmptyLadder", err)
	}
}

// Training produces a sane greedy policy: on a strong stable channel
// with a full buffer it streams meaningfully above the floor, and it
// completes a whole Table V trace without errors.
func TestTrainedAgentBehaviour(t *testing.T) {
	if testing.Short() {
		t.Skip("training runs dozens of episodes")
	}
	ladder := dash.EvalLadder()
	agent, err := Train(DefaultTrainConfig(ladder))
	if err != nil {
		t.Fatal(err)
	}
	if agent.training {
		t.Fatal("Train returned an unfrozen agent")
	}
	if cov := agent.Table().CoverageFraction(); cov < 0.05 {
		t.Errorf("coverage = %.3f, want >= 0.05", cov)
	}

	// Relative sanity: the greedy policy streams at least as high in a
	// comfortable state (fast link, deep buffer) as in a precarious one
	// (slow link, shallow buffer), and above the floor in comfort.
	agent.Reset()
	for i := 0; i < 5; i++ {
		agent.ObserveDownload(35)
	}
	comfortable, err := agent.ChooseRung(agentCtx(28, 7))
	if err != nil {
		t.Fatal(err)
	}
	agent.Reset()
	for i := 0; i < 5; i++ {
		agent.ObserveDownload(0.5)
	}
	precarious, err := agent.ChooseRung(agentCtx(2, 7))
	if err != nil {
		t.Fatal(err)
	}
	if comfortable < precarious {
		t.Errorf("comfortable rung %d below precarious rung %d", comfortable, precarious)
	}
	if comfortable == 0 {
		t.Error("trained agent sits on the floor even with 35 Mbps and a full buffer")
	}

	// Full trace replay through the simulator.
	pm := power.EvalModel()
	traces, err := trace.GenerateTableV(pm.NominalThroughputMBps)
	if err != nil {
		t.Fatal(err)
	}
	man, err := sim.ManifestForTrace(traces[0], ladder)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.RunOnTrace(traces[0], man, agent, pm, qoe.Default(), 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Segments) == 0 || m.MeanQoE <= 0 {
		t.Errorf("degenerate trained-agent session: %+v", m)
	}
	// It must not stall catastrophically (the reward punishes stalls).
	if m.RebufferSec > 10 {
		t.Errorf("trained agent stalled %.1f s", m.RebufferSec)
	}
}

// The agent works over the live HTTP client too (interface parity).
func TestAgentDropInForNetsimChannel(t *testing.T) {
	agent := newTestAgent(t, 14)
	agent.Freeze()
	pm := power.EvalModel()
	link, err := netsim.NewChannel(netsim.RoomSignal, pm.NominalThroughputMBps, 4)
	if err != nil {
		t.Fatal(err)
	}
	video := dash.Video{Title: "t", SpatialInfo: 45, TemporalInfo: 15, DurationSec: 30}
	man, err := dash.NewManifest(video, dash.EvalLadder(), dash.ManifestConfig{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(sim.Config{
		Manifest: man, Link: link, Algorithm: agent,
		Power: pm, QoE: qoe.Default(),
	}); err != nil {
		t.Fatal(err)
	}
}
