// Package core implements the paper's contribution: the energy-aware
// and context-aware bitrate selection problem (Section III-D), its
// optimal shortest-path solution (Section IV-A), and the online
// bitrate-selection algorithm (Section IV-B, Algorithm 1).
package core

import (
	"errors"
	"fmt"

	"ecavs/internal/power"
	"ecavs/internal/qoe"
)

// DefaultAlpha is the evaluation's weighting factor (Section V-A):
// energy and QoE matter equally.
const DefaultAlpha = 0.5

// Objective is the weighted-sum scalarisation of Eq. 11. For one task
// and one candidate bitrate it scores
//
//	alpha * E(r)/E(rmax) - (1-alpha) * QoE(r)/QoE(rmax)
//
// where rmax is the ladder's top rung; smaller is better. Alpha < 0.5
// favours QoE, alpha > 0.5 favours energy saving.
type Objective struct {
	// Alpha is the energy weight in [0, 1].
	Alpha float64
	// Power is the energy model used to estimate E(r).
	Power power.Model
	// QoE is the quality model used to estimate QoE(r).
	QoE qoe.Model
}

// ErrBadAlpha is returned for weights outside [0, 1].
var ErrBadAlpha = errors.New("core: alpha must lie in [0, 1]")

// NewObjective validates and returns an Objective.
func NewObjective(alpha float64, p power.Model, q qoe.Model) (Objective, error) {
	if alpha < 0 || alpha > 1 {
		return Objective{}, fmt.Errorf("%w: %v", ErrBadAlpha, alpha)
	}
	if err := p.Validate(); err != nil {
		return Objective{}, err
	}
	if err := q.Validate(); err != nil {
		return Objective{}, err
	}
	return Objective{Alpha: alpha, Power: p, QoE: q}, nil
}

// Estimate holds one rung's predicted task energy and QoE, the two
// terms Eq. 11 weighs.
type Estimate struct {
	// EnergyJ is the predicted task energy (Eq. 10).
	EnergyJ float64
	// QoE is the predicted task QoE (Eq. 1).
	QoE float64
}

// Cost scores a candidate against the reference (top-rung) estimate
// per Eq. 11. Smaller is better. ref.EnergyJ and ref.QoE must be
// positive; degenerate references score the candidate neutrally. It
// takes the objective by pointer: scoring calls it once per rung, and
// even inlined a value receiver would copy the whole Objective.
func (o *Objective) Cost(est, ref Estimate) float64 {
	if ref.EnergyJ <= 0 || ref.QoE <= 0 {
		return 0
	}
	return o.Alpha*est.EnergyJ/ref.EnergyJ - (1-o.Alpha)*est.QoE/ref.QoE
}

// taskScorer is the one implementation of a ladder rung's Eq. 6
// energy, Eq. 1 QoE and Eq. 11 cost: Online and the joint policy score
// each decision through it, and the optimal planner scores every
// (task, previous rung) row of its DP through it. A rung's energy does
// not depend on the previous segment's bitrate, so beginTask computes
// it once per task and every previous-rung row shares it. The buffers
// are reused across tasks, so scoring allocates nothing after init; a
// scorer belongs to one goroutine.
type taskScorer struct {
	obj      Objective
	bitrates []float64
	// rungs is the ladder's compiled Eq. 1 curve table: Q0(r_j), the
	// regrouped impairment coefficients and the clamp. Its queries are
	// bit-identical to the model's curve functions, so the scorer
	// evaluates no transcendentals and its terms equal the test
	// oracle's (Objective.ScoreRungsInto) bit for bit.
	rungs *qoe.RungTable
	// The current task's previous-rung-independent per-rung terms:
	// energy and stall time from the power model and the perceived
	// quality at the task's vibration level.
	energyJ   []float64
	rebufSec  []float64
	perceived []float64
}

// init compiles the rung table for the ladder's bitrates, which the
// scorer keeps without copying, and sizes the per-rung terms from one
// backing array. energyJ heads that array and keeps its capacity, so a
// scorer re-initialised for a ladder no longer than its last one (an
// HTTP session's ladder is new each session) reuses it.
func (s *taskScorer) init(obj Objective, bitrates []float64) {
	k := len(bitrates)
	terms := s.energyJ[:cap(s.energyJ)]
	if len(terms) < 3*k {
		terms = make([]float64, 3*k)
	}
	*s = taskScorer{
		obj:       obj,
		bitrates:  bitrates,
		rungs:     obj.QoE.CompileRungs(bitrates),
		energyJ:   terms[0*k : 1*k],
		rebufSec:  terms[1*k : 2*k : 2*k],
		perceived: terms[2*k : 3*k : 3*k],
	}
}

// beginTask computes the task's previous-rung-independent per-rung
// terms. t.SizesMB must parallel the ladder.
func (s *taskScorer) beginTask(t TaskObservation) {
	task := power.SegmentTask{
		DurationSec:    t.DurationSec,
		SignalDBm:      t.SignalDBm,
		ThroughputMBps: t.BandwidthMbps / 8,
		BufferSec:      t.BufferSec,
	}
	pm, rt, v := &s.obj.Power, s.rungs, t.Vibration
	sizes, energyJ, rebufSec, perceived := t.SizesMB, s.energyJ, s.rebufSec, s.perceived
	for j, r := range s.bitrates {
		task.BitrateMbps, task.SizeMB = r, sizes[j]
		b := pm.SegmentEnergy(task)
		energyJ[j] = b.TotalJ()
		rebufSec[j] = b.RebufferSec
		perceived[j] = rt.Perceived(j, v)
	}
}

// qoeInto fills q[j] with rung j's Eq. 1 QoE for the current task
// after previous rung p; p == len(bitrates) means there was no previous
// segment, so no switch penalty applies. beginTask must have been
// called for the task first.
func (s *taskScorer) qoeInto(p int, q []float64) {
	rt := s.rungs
	prev, q0Prev := 0.0, 0.0
	if p < len(s.bitrates) {
		prev, q0Prev = s.bitrates[p], rt.OriginalQuality(p)
	}
	qm := s.obj.QoE
	perceived, rebufSec := s.perceived, s.rebufSec
	for j := range q {
		q[j] = qm.SegmentQoEParts(perceived[j], rt.OriginalQuality(j), prev, q0Prev, rebufSec[j])
	}
}

// scoreInto fills costs[j] with rung j's Eq. 11 cost for the current
// task after previous rung p, as in qoeInto, against the top rung.
func (s *taskScorer) scoreInto(p int, costs []float64) {
	s.qoeInto(p, costs)
	obj, energyJ := &s.obj, s.energyJ
	k := len(costs)
	ref := Estimate{EnergyJ: energyJ[k-1], QoE: costs[k-1]}
	for j, q := range costs {
		costs[j] = obj.Cost(Estimate{EnergyJ: energyJ[j], QoE: q}, ref)
	}
}

// ArgminCost returns the index of the smallest cost (ties go to the
// lower rung, i.e. the more energy-frugal choice).
func ArgminCost(costs []float64) int {
	best := 0
	for j := 1; j < len(costs); j++ {
		if costs[j] < costs[best] {
			best = j
		}
	}
	return best
}
