package learn

import (
	"errors"
	"math/rand"

	"ecavs/internal/abr"
	"ecavs/internal/netsim"
)

// Agent is the Q-learning bitrate controller. In training mode it
// explores epsilon-greedily and updates its table online; frozen, it
// acts greedily and is a plain abr.Algorithm.
//
// Construct with NewAgent; the zero value is unusable.
type Agent struct {
	table  *QTable
	hyper  Hyper
	reward Reward
	eps    epsilonSchedule
	rng    *rand.Rand
	est    netsim.BandwidthEstimator

	training bool

	// pending decision awaiting its outcome.
	hasPending  bool
	pendState   int
	pendAction  int
	pendBuffer  float64
	pendBR      float64
	pendPrevBR  float64
	pendSizeMB  float64
	lastThMbps  float64
	haveOutcome bool
}

var _ abr.Algorithm = (*Agent)(nil)

// NewAgent returns a training-mode agent over a fresh table.
func NewAgent(space StateSpace, hyper Hyper, reward Reward, seed int64) (*Agent, error) {
	if err := hyper.Validate(); err != nil {
		return nil, err
	}
	table, err := NewQTable(space)
	if err != nil {
		return nil, err
	}
	return &Agent{
		table:    table,
		hyper:    hyper,
		reward:   reward,
		eps:      epsilonSchedule{start: hyper.EpsilonStart, end: hyper.EpsilonEnd, steps: hyper.DecaySteps},
		rng:      rand.New(rand.NewSource(seed)),
		est:      netsim.NewHarmonicMeanEstimator(5),
		training: true,
	}, nil
}

// Freeze switches the agent to greedy (evaluation) mode.
func (a *Agent) Freeze() { a.training = false }

// Table exposes the learned table (e.g. for coverage diagnostics).
func (a *Agent) Table() *QTable { return a.table }

// Name implements abr.Algorithm.
func (a *Agent) Name() string {
	if a.training {
		return "QLearn(train)"
	}
	return "QLearn"
}

// ErrBadContext is returned for contexts without a ladder.
var ErrBadContext = errors.New("learn: context missing ladder")

// ChooseRung implements abr.Algorithm. In training mode it first
// finalises the previous decision's Q-update using the throughput that
// ObserveDownload delivered.
func (a *Agent) ChooseRung(ctx abr.Context) (int, error) {
	k := len(ctx.Ladder)
	if k == 0 {
		return 0, ErrBadContext
	}
	if k != a.table.space.Rungs {
		return 0, errors.New("learn: ladder size does not match the trained table")
	}
	bw, ok := a.est.Estimate()
	if !ok {
		bw = a.table.space.BandwidthMinMbps
	}
	state := a.table.space.Encode(ctx.BufferSec, bw, ctx.PrevRung)

	if a.training && a.hasPending && a.haveOutcome {
		// Outcome of the pending decision: stall it (approximately)
		// caused, from the measured throughput.
		dl := 0.0
		if a.lastThMbps > 0 {
			dl = a.pendSizeMB / (a.lastThMbps / 8)
		}
		stall := dl - a.pendBuffer
		if stall < 0 {
			stall = 0
		}
		r := a.reward.Score(a.pendBR, a.pendPrevBR, stall)
		a.table.Update(a.pendState, a.pendAction, state, r, a.hyper.LearningRate, a.hyper.Gamma)
		a.hasPending = false
		a.haveOutcome = false
	}

	var action int
	if a.training && a.rng.Float64() < a.eps.next() {
		action = a.rng.Intn(k)
	} else {
		action, _ = a.table.Best(state)
	}

	if a.training {
		size := ctx.Ladder[action].BitrateMbps / 8 * ctx.SegmentDurationSec
		if len(ctx.SegmentSizesMB) == k {
			size = ctx.SegmentSizesMB[action]
		}
		prevBR := 0.0
		if ctx.PrevRung >= 0 && ctx.PrevRung < k {
			prevBR = ctx.Ladder[ctx.PrevRung].BitrateMbps
		}
		a.hasPending = true
		a.haveOutcome = false
		a.pendState = state
		a.pendAction = action
		a.pendBuffer = ctx.BufferSec
		a.pendBR = ctx.Ladder[action].BitrateMbps
		a.pendPrevBR = prevBR
		a.pendSizeMB = size
	}
	return action, nil
}

// ObserveDownload implements abr.Algorithm.
func (a *Agent) ObserveDownload(thMbps float64) {
	a.est.Push(thMbps)
	a.lastThMbps = thMbps
	if a.hasPending {
		a.haveOutcome = true
	}
}

// Reset implements abr.Algorithm: it clears per-session state but
// keeps the learned table (an episode boundary, not amnesia).
func (a *Agent) Reset() {
	a.est.Reset()
	a.hasPending = false
	a.haveOutcome = false
	a.lastThMbps = 0
}
