// Package ecavs is the public facade of the energy-aware and
// context-aware video streaming library — a from-scratch reproduction
// of Chen, Tan and Cao, "Energy-Aware and Context-Aware Video Streaming
// on Smartphones" (IEEE ICDCS 2019).
//
// The facade wires the substrates together for the common workflows:
//
//   - build the paper's QoE and power models (DefaultQoE, DefaultPower,
//     EvalPower),
//   - generate or load the Table V evaluation traces
//     (GenerateTableVTraces),
//   - construct bitrate-adaptation policies — the paper's online
//     algorithm (NewOnline), its offline optimal planner
//     (PlanOptimalForTrace), and the baselines (NewYoutube, NewFESTIVE,
//     NewBBA) — and
//   - replay a policy over a trace (Stream) to obtain energy and QoE
//     metrics.
//
// The deeper layers live under internal/ (qoe, power, vibration,
// netsim, dash, player, sim, abr, core, eval); see DESIGN.md for the
// system inventory and the per-experiment index.
package ecavs

import (
	"errors"
	"fmt"

	"ecavs/internal/abr"
	"ecavs/internal/core"
	"ecavs/internal/dash"
	"ecavs/internal/player"
	"ecavs/internal/power"
	"ecavs/internal/qoe"
	"ecavs/internal/sim"
	"ecavs/internal/trace"
)

// Re-exported core types. These aliases are usable by code living in
// this module (examples, benchmarks, forks); a packaged release would
// promote the internal packages wholesale.
type (
	// QoEModel is the paper's context-aware QoE model (Section III-B).
	QoEModel = qoe.Model
	// PowerModel is the paper's two-mode power model (Section III-C).
	PowerModel = power.Model
	// Ladder is a DASH bitrate ladder.
	Ladder = dash.Ladder
	// Manifest is a segmented, VBR-sized video.
	Manifest = dash.Manifest
	// Trace is one recorded viewing session (network + signal + accel).
	Trace = trace.Trace
	// Metrics summarises a simulated streaming session.
	Metrics = sim.Metrics
	// Algorithm is a per-segment bitrate selection policy.
	Algorithm = abr.Algorithm
	// Objective is the Eq. 11 weighted-sum scalarisation.
	Objective = core.Objective
	// Plan is an offline-optimal bitrate schedule.
	Plan = core.Plan
)

// DefaultAlpha is the paper's evaluation weighting (energy and QoE
// count equally).
const DefaultAlpha = core.DefaultAlpha

// DefaultBufferThresholdSec is the paper's 30 s player buffer
// threshold.
const DefaultBufferThresholdSec = player.DefaultBufferThresholdSec

// DefaultQoE returns the Table III QoE model.
func DefaultQoE() QoEModel { return qoe.Default() }

// DefaultPower returns the Table VI / Fig. 1a power calibration.
func DefaultPower() PowerModel { return power.Default() }

// EvalPower returns the trace-evaluation power model (Figs. 5-7).
func EvalPower() PowerModel { return power.EvalModel() }

// EvalLadder returns the fourteen-rung Section V-A bitrate ladder.
func EvalLadder() Ladder { return dash.EvalLadder() }

// TableIILadder returns the six-rung Table II ladder.
func TableIILadder() Ladder { return dash.TableIILadder() }

// GenerateTableVTraces synthesises the five Table V evaluation traces
// against the evaluation power model's link calibration.
func GenerateTableVTraces() ([]*Trace, error) {
	pm := power.EvalModel()
	return trace.GenerateTableV(pm.NominalThroughputMBps)
}

// NewObjective builds the Eq. 11 objective with the given energy
// weight alpha in [0, 1].
func NewObjective(alpha float64) (Objective, error) {
	return core.NewObjective(alpha, power.EvalModel(), qoe.Default())
}

// NewYoutube returns the fixed-1080p baseline.
func NewYoutube() Algorithm { return abr.NewYoutube() }

// NewFESTIVE returns the throughput-based FESTIVE baseline.
func NewFESTIVE() Algorithm { return abr.NewFESTIVE() }

// NewBBA returns the buffer-based BBA baseline.
func NewBBA() Algorithm { return abr.NewBBA() }

// NewBOLA returns the Lyapunov buffer-based BOLA baseline (the paper's
// reference [5]).
func NewBOLA() Algorithm { return abr.NewBOLA() }

// NewRobustMPC returns the model-predictive-control baseline (the
// paper's reference [17]).
func NewRobustMPC() Algorithm { return abr.NewMPC() }

// NewOnline returns the paper's online bitrate-selection algorithm
// (Algorithm 1) at the given energy weight.
func NewOnline(alpha float64) (Algorithm, error) {
	obj, err := NewObjective(alpha)
	if err != nil {
		return nil, err
	}
	return core.NewOnline(obj), nil
}

// PlanOptimalForTrace runs the offline shortest-path planner
// (Section IV-A) over a trace and returns an Algorithm replaying the
// optimal schedule, plus the plan itself.
func PlanOptimalForTrace(tr *Trace, alpha float64) (Algorithm, Plan, error) {
	if tr == nil {
		return nil, Plan{}, errors.New("ecavs: nil trace")
	}
	obj, err := NewObjective(alpha)
	if err != nil {
		return nil, Plan{}, err
	}
	ladder := dash.EvalLadder()
	man, err := sim.ManifestForTrace(tr, ladder)
	if err != nil {
		return nil, Plan{}, err
	}
	tasks, err := core.ObserveTasks(tr, man)
	if err != nil {
		return nil, Plan{}, err
	}
	plan, err := core.PlanOptimal(obj, ladder, tasks)
	if err != nil {
		return nil, Plan{}, err
	}
	return core.NewPlannedAlgorithm("Optimal", plan), plan, nil
}

// StreamOption customises a Stream session's simulator config.
type StreamOption func(*sim.Config)

// WithBufferThreshold overrides the 30 s pacing threshold.
func WithBufferThreshold(sec float64) StreamOption {
	return func(c *sim.Config) {
		if sec > 0 {
			c.BufferThresholdSec = sec
		}
	}
}

// WithPacingHysteresis pauses downloads at the buffer threshold and
// resumes only once the buffer drains to resumeSec — bursty
// prefetching that amortises the LTE tail.
func WithPacingHysteresis(resumeSec float64) StreamOption {
	return func(c *sim.Config) { c.ResumeThresholdSec = resumeSec }
}

// WithLTETailEnergy enables the RRC radio-state machine so promotion,
// tail, and idle paging energy appear in Metrics.RadioCtlJ.
func WithLTETailEnergy() StreamOption {
	return func(c *sim.Config) {
		rrc := power.DefaultRRC()
		c.RRC = &rrc
	}
}

// Stream replays a policy over a trace with the paper's evaluation
// setup (fourteen-rung ladder, 30 s buffer threshold, evaluation power
// model) and returns the session metrics, whose Segments log every
// decision: the buffer, signal and vibration it saw, and the outcome.
func Stream(tr *Trace, alg Algorithm, opts ...StreamOption) (*Metrics, error) {
	if tr == nil {
		return nil, errors.New("ecavs: nil trace")
	}
	if alg == nil {
		return nil, errors.New("ecavs: nil algorithm")
	}
	man, err := sim.ManifestForTrace(tr, dash.EvalLadder())
	if err != nil {
		return nil, fmt.Errorf("ecavs: manifest: %w", err)
	}
	comp, err := tr.Compiled()
	if err != nil {
		return nil, err
	}
	cfg := sim.Config{
		Manifest:           man,
		Link:               comp.Link(),
		VibrationAt:        comp.Vibration(0),
		Algorithm:          alg,
		Power:              power.EvalModel(),
		QoE:                qoe.Default(),
		BufferThresholdSec: player.DefaultBufferThresholdSec,
	}
	for _, o := range opts {
		o(&cfg)
	}
	// Compile the per-rung QoE table after the options ran, in case one
	// swapped the model; the table must match the session's QoE.
	if cfg.RungQoE == nil {
		cfg.RungQoE = cfg.QoE.CompileRungs(man.Ladder().Bitrates())
	}
	return sim.Run(cfg)
}

// LoadTrace reads a trace previously written by Trace.Save (or
// cmd/tracegen) from dir.
func LoadTrace(dir string, id int) (*Trace, error) {
	return trace.Load(dir, id)
}

// BaseEnergyJ returns the Section V-B base energy for a trace: the
// session cost with every segment at the lowest bitrate.
func BaseEnergyJ(tr *Trace) (float64, error) {
	if tr == nil {
		return 0, errors.New("ecavs: nil trace")
	}
	man, err := sim.ManifestForTrace(tr, dash.EvalLadder())
	if err != nil {
		return 0, err
	}
	return sim.BaseEnergyJ(tr, man)
}
