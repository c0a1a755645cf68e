// Package learn implements a reinforcement-learned bitrate controller
// in the spirit of Pensieve (Mao et al., SIGCOMM 2017 — the paper's
// reference [27]), scaled down to a dependency-free tabular Q-learning
// agent: the state is (buffer bin, bandwidth bin, previous rung), the
// action is the next rung, and the reward is the linear QoE used by
// the MPC line of work (bitrate − rebuffer penalty − switch penalty).
//
// The agent trains *through* the standard abr.Algorithm interface by
// replaying simulated sessions: each ChooseRung call finalises the
// previous decision's Q-update using the measured throughput fed back
// via ObserveDownload. A frozen (greedy) agent is a drop-in Algorithm
// for the simulator and the HTTP client alike.
package learn

import (
	"errors"
	"fmt"
	"math"
)

// StateSpace discretises the observation into a table index.
type StateSpace struct {
	// BufferBins splits [0, BufferMaxSec] evenly.
	BufferBins int
	// BufferMaxSec is the top of the buffer range.
	BufferMaxSec float64
	// BandwidthBins splits bandwidth on a log scale over
	// [BandwidthMinMbps, BandwidthMaxMbps].
	BandwidthBins    int
	BandwidthMinMbps float64
	BandwidthMaxMbps float64
	// Rungs is the ladder size (actions and the prev-rung axis).
	Rungs int
}

// DefaultStateSpace sizes the table for the evaluation ladder.
func DefaultStateSpace(rungs int) StateSpace {
	return StateSpace{
		BufferBins:       12,
		BufferMaxSec:     36,
		BandwidthBins:    10,
		BandwidthMinMbps: 0.1,
		BandwidthMaxMbps: 100,
		Rungs:            rungs,
	}
}

// Validate reports whether the space is usable.
func (s StateSpace) Validate() error {
	if s.BufferBins < 1 || s.BandwidthBins < 1 || s.Rungs < 1 {
		return errors.New("learn: bins and rungs must be positive")
	}
	if s.BufferMaxSec <= 0 {
		return errors.New("learn: buffer range must be positive")
	}
	if s.BandwidthMinMbps <= 0 || s.BandwidthMaxMbps <= s.BandwidthMinMbps {
		return errors.New("learn: bandwidth range must be positive and ordered")
	}
	return nil
}

// Size returns the number of states.
func (s StateSpace) Size() int {
	return s.BufferBins * s.BandwidthBins * s.Rungs
}

// Encode maps an observation to a state index; inputs are clamped into
// range, and prevRung < 0 (startup) maps to rung 0.
func (s StateSpace) Encode(bufferSec, bwMbps float64, prevRung int) int {
	b := int(bufferSec / s.BufferMaxSec * float64(s.BufferBins))
	if b < 0 {
		b = 0
	}
	if b >= s.BufferBins {
		b = s.BufferBins - 1
	}
	if bwMbps < s.BandwidthMinMbps {
		bwMbps = s.BandwidthMinMbps
	}
	if bwMbps > s.BandwidthMaxMbps {
		bwMbps = s.BandwidthMaxMbps
	}
	logSpan := math.Log(s.BandwidthMaxMbps / s.BandwidthMinMbps)
	w := int(math.Log(bwMbps/s.BandwidthMinMbps) / logSpan * float64(s.BandwidthBins))
	if w >= s.BandwidthBins {
		w = s.BandwidthBins - 1
	}
	if prevRung < 0 {
		prevRung = 0
	}
	if prevRung >= s.Rungs {
		prevRung = s.Rungs - 1
	}
	return (b*s.BandwidthBins+w)*s.Rungs + prevRung
}

// QTable is the learned action-value table.
type QTable struct {
	space StateSpace
	q     [][]float64 // [state][action]
	seen  []int       // visit counts per state (diagnostics)
}

// NewQTable allocates a zeroed table.
func NewQTable(space StateSpace) (*QTable, error) {
	if err := space.Validate(); err != nil {
		return nil, err
	}
	q := make([][]float64, space.Size())
	for i := range q {
		q[i] = make([]float64, space.Rungs)
	}
	return &QTable{space: space, q: q, seen: make([]int, space.Size())}, nil
}

// Best returns the greedy action and its value for a state.
func (t *QTable) Best(state int) (action int, value float64) {
	row := t.q[state]
	best := 0
	for a := 1; a < len(row); a++ {
		if row[a] > row[best] {
			best = a
		}
	}
	return best, row[best]
}

// Update applies the Q-learning rule
// Q(s,a) += lr * (r + gamma*max_a' Q(s',a') - Q(s,a)).
func (t *QTable) Update(state, action, nextState int, reward, lr, gamma float64) {
	_, nextBest := t.Best(nextState)
	t.q[state][action] += lr * (reward + gamma*nextBest - t.q[state][action])
	t.seen[state]++
}

// CoverageFraction reports the fraction of states visited at least
// once during training.
func (t *QTable) CoverageFraction() float64 {
	visited := 0
	for _, n := range t.seen {
		if n > 0 {
			visited++
		}
	}
	return float64(visited) / float64(len(t.seen))
}

// Reward weighs the per-segment outcome, mirroring the MPC-family QoE.
type Reward struct {
	// RebufferPenaltyPerSec scales predicted stall seconds.
	RebufferPenaltyPerSec float64
	// SwitchPenaltyPerMbps scales |bitrate change|.
	SwitchPenaltyPerMbps float64
}

// DefaultReward returns the MPC-paper weights.
func DefaultReward() Reward {
	return Reward{RebufferPenaltyPerSec: 4.3, SwitchPenaltyPerMbps: 1.0}
}

// Score computes the reward of choosing bitrate br (Mbps) with the
// previous bitrate prevBR, when the segment's download was expected to
// stall stallSec seconds.
func (r Reward) Score(br, prevBR, stallSec float64) float64 {
	return br - r.RebufferPenaltyPerSec*stallSec - r.SwitchPenaltyPerMbps*math.Abs(br-prevBR)
}

// epsilonSchedule decays exploration linearly over training.
type epsilonSchedule struct {
	start, end float64
	steps      int
	done       int
}

func (e *epsilonSchedule) next() float64 {
	if e.steps <= 0 {
		return e.end
	}
	frac := float64(e.done) / float64(e.steps)
	if frac > 1 {
		frac = 1
	}
	e.done++
	return e.start + (e.end-e.start)*frac
}

// Hyper bundles the training hyper-parameters.
type Hyper struct {
	// LearningRate is the Q-update step size.
	LearningRate float64
	// Gamma is the discount factor.
	Gamma float64
	// EpsilonStart/EpsilonEnd bound the linear exploration decay.
	EpsilonStart, EpsilonEnd float64
	// DecaySteps is the number of decisions over which epsilon decays.
	DecaySteps int
}

// DefaultHyper returns a stable small-table configuration.
func DefaultHyper() Hyper {
	return Hyper{
		LearningRate: 0.15,
		Gamma:        0.9,
		EpsilonStart: 0.4,
		EpsilonEnd:   0.02,
		DecaySteps:   20000,
	}
}

// Validate reports whether the hyper-parameters are usable.
func (h Hyper) Validate() error {
	if h.LearningRate <= 0 || h.LearningRate > 1 {
		return errors.New("learn: learning rate must be in (0, 1]")
	}
	if h.Gamma < 0 || h.Gamma >= 1 {
		return errors.New("learn: gamma must be in [0, 1)")
	}
	if h.EpsilonStart < 0 || h.EpsilonStart > 1 || h.EpsilonEnd < 0 || h.EpsilonEnd > h.EpsilonStart {
		return fmt.Errorf("learn: epsilon schedule %v -> %v invalid", h.EpsilonStart, h.EpsilonEnd)
	}
	return nil
}
