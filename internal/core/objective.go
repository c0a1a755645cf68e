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

// Candidate describes one (task, bitrate) pair to score.
type Candidate struct {
	// BitrateMbps is the candidate encoded bitrate.
	BitrateMbps float64
	// SizeMB is the segment payload at this bitrate.
	SizeMB float64
	// DurationSec is the segment playback duration.
	DurationSec float64
	// SignalDBm is the expected signal strength during download.
	SignalDBm float64
	// BandwidthMbps is the predicted link rate.
	BandwidthMbps float64
	// BufferSec is the playable buffer when the download starts.
	BufferSec float64
	// Vibration is the expected Eq. 5 vibration level.
	Vibration float64
	// PrevBitrateMbps is the previous segment's bitrate (0 = none).
	PrevBitrateMbps float64
}

// Estimate holds a candidate's predicted energy and QoE.
type Estimate struct {
	// EnergyJ is the predicted task energy (Eq. 10).
	EnergyJ float64
	// QoE is the predicted task QoE (Eq. 1).
	QoE float64
}

// Estimate predicts a candidate's energy and QoE using the models.
func (o Objective) Estimate(c Candidate) Estimate {
	thMBps := c.BandwidthMbps / 8
	b := o.Power.SegmentEnergy(power.SegmentTask{
		BitrateMbps:    c.BitrateMbps,
		DurationSec:    c.DurationSec,
		SizeMB:         c.SizeMB,
		SignalDBm:      c.SignalDBm,
		ThroughputMBps: thMBps,
		BufferSec:      c.BufferSec,
	})
	q := o.QoE.SegmentQoE(qoe.Segment{
		BitrateMbps:     c.BitrateMbps,
		PrevBitrateMbps: c.PrevBitrateMbps,
		Vibration:       c.Vibration,
		RebufferSec:     b.RebufferSec,
	})
	return Estimate{EnergyJ: b.TotalJ(), QoE: q}
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

// ScoreRungsCompiled scores every ladder rung of one task (the reference
// is the top rung) through a compiled per-rung QoE table instead of the
// model's transcendental curve functions: the
// candidate bitrates are the table's rungs and prevRung indexes the
// previous segment's rung in the same table (negative = first segment,
// no switch penalty). base.BitrateMbps, base.SizeMB and
// base.PrevBitrateMbps are ignored. The table must have been compiled
// from o.QoE with the same ladder bitrates; given that, the costs and
// estimates are bit-identical to the test oracle ScoreRungsInto, which
// evaluates the curves directly (pinned by
// TestScoreRungsCompiledBitIdentical), while evaluating zero math.Pow
// calls per decision.
func (o *Objective) ScoreRungsCompiled(base Candidate, rt *qoe.RungTable, prevRung int, sizesMB, costs []float64, ests []Estimate) error {
	k := rt.Len()
	if k == 0 || len(sizesMB) != k {
		return errors.New("core: sizes must be non-empty and parallel the rung table")
	}
	if len(costs) != k || len(ests) != k {
		return errors.New("core: cost and estimate buffers must parallel the rung table")
	}
	if rt.Model() != o.QoE {
		return errors.New("core: rung table compiled from a different QoE model")
	}
	if prevRung >= k {
		return fmt.Errorf("core: previous rung %d outside table of %d rungs", prevRung, k)
	}
	// The decision's terms are set up once: the task, of which each rung
	// changes only the bitrate and size, and the previous rung's
	// bitrate and quality for the switch penalty. Energies come first,
	// each rung's stall parked in its QoE slot; the Eq. 1 pass reads
	// the stalls back with rt.SegmentQoE's arithmetic (qm equals
	// rt.Model(), checked above), inlined.
	task := power.SegmentTask{
		DurationSec:    base.DurationSec,
		SignalDBm:      base.SignalDBm,
		ThroughputMBps: base.BandwidthMbps / 8,
		BufferSec:      base.BufferSec,
	}
	for j := 0; j < k; j++ {
		task.BitrateMbps, task.SizeMB = rt.Bitrate(j), sizesMB[j]
		b := o.Power.SegmentEnergy(task)
		ests[j] = Estimate{EnergyJ: b.TotalJ(), QoE: b.RebufferSec}
	}
	prevBitrate, q0Prev := 0.0, 0.0
	if prevRung >= 0 {
		prevBitrate, q0Prev = rt.Bitrate(prevRung), rt.OriginalQuality(prevRung)
	}
	qm := o.QoE
	for j := range ests {
		ests[j].QoE = qm.SegmentQoEParts(rt.Perceived(j, base.Vibration), rt.OriginalQuality(j), prevBitrate, q0Prev, ests[j].QoE)
	}
	ref := ests[k-1]
	for j := range ests {
		costs[j] = o.Cost(ests[j], ref)
	}
	return nil
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
