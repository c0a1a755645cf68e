// Package campaign runs Monte-Carlo fleets of streaming sessions: N
// seeded session configurations (trace × algorithm × viewer-context
// draws) run on a bounded worker pool, with results folded in session
// order into O(1)-memory streaming aggregates instead of being
// retained per session. It is the scale layer above internal/sim — a
// million sessions cost a million session replays but constant memory.
package campaign

import (
	"errors"
	"fmt"
	"runtime"

	"ecavs/internal/abr"
	"ecavs/internal/core"
	"ecavs/internal/dash"
	"ecavs/internal/netsim"
	"ecavs/internal/player"
	"ecavs/internal/pool"
	"ecavs/internal/power"
	"ecavs/internal/qoe"
	"ecavs/internal/rng"
	"ecavs/internal/sim"
	"ecavs/internal/stats"
	"ecavs/internal/trace"
)

// AlgorithmSpec names an ABR policy and builds fresh instances of it.
// Each session gets its own instance (algorithms carry mutable
// estimator state and must not be shared across concurrent replays).
type AlgorithmSpec struct {
	Name string
	New  func() (abr.Algorithm, error)
}

// DefaultAlgorithms returns the campaign's standard policy set: the
// three baselines plus the paper's online algorithm at the given
// objective weight. The offline Optimal planner is deliberately
// absent — it needs a per-trace plan precomputation that does not
// amortize across random viewer-context draws.
func DefaultAlgorithms(pm power.Model, qm qoe.Model, alpha float64) ([]AlgorithmSpec, error) {
	obj, err := core.NewObjective(alpha, pm, qm)
	if err != nil {
		return nil, err
	}
	return []AlgorithmSpec{
		{Name: "Youtube", New: func() (abr.Algorithm, error) { return abr.NewYoutube(), nil }},
		{Name: "FESTIVE", New: func() (abr.Algorithm, error) { return abr.NewFESTIVE(), nil }},
		{Name: "BBA", New: func() (abr.Algorithm, error) { return abr.NewBBA() }},
		{Name: "Ours", New: func() (abr.Algorithm, error) { return core.NewOnline(obj), nil }},
	}, nil
}

// Config describes a campaign.
type Config struct {
	// Traces are the session contexts sessions draw from (uniformly,
	// per-session seeded). Required.
	Traces []*trace.Trace
	// Ladder is the encoding ladder (default dash.EvalLadder).
	Ladder dash.Ladder
	// Algorithms are the compared policies; sessions cycle through them
	// round-robin so every policy sees the same number of sessions
	// (default DefaultAlgorithms at core.DefaultAlpha).
	Algorithms []AlgorithmSpec
	// Sessions is the total session count across all algorithms.
	Sessions int
	// Seed makes the whole campaign reproducible: session u's draws
	// come from an independent generator derived from (Seed, u), so
	// results are identical for a fixed (Seed, Shards) on any machine
	// and at any GOMAXPROCS.
	Seed int64
	// Shards is the aggregation partition: session u is folded into
	// shard u mod Shards, in session order, and the shard aggregates
	// merge in shard order. Percentile estimates (and float rounding
	// in the merged means) depend on it. It does not set the worker
	// count: sessions run on GOMAXPROCS workers whatever Shards is.
	// Zero means 1.
	Shards int
	// AbandonProb is the per-session probability of an early quit; an
	// abandoning viewer leaves uniformly between 10% and 90% of the
	// video.
	AbandonProb float64
	// VibrationJitter scales each session's sensed vibration by a
	// uniform draw in [1-j, 1+j] — the viewer-context spread (pocket vs
	// hand vs mount) that a single recorded trace cannot supply.
	VibrationJitter float64
	// OutageProb is the per-session probability of a seeded outage
	// process being overlaid on the link (tunnels and dead zones the
	// recorded trace did not capture). Zero disables outage draws
	// entirely, leaving the per-session random streams — and therefore
	// all previous campaign results — unchanged.
	OutageProb float64
	// Outage parameterises the outage process for affected sessions;
	// its Seed field is ignored (each session draws its own from the
	// campaign stream). The zero value means netsim.DefaultOutage().
	Outage netsim.OutageConfig
	// Power and QoE are the models (defaults power.EvalModel,
	// qoe.Default).
	Power power.Model
	QoE   qoe.Model
	// ThresholdSec is the buffer threshold beta (default
	// player.DefaultBufferThresholdSec).
	ThresholdSec float64
	// Live, when non-nil, receives one observation per finished session
	// for live telemetry (see NewLive). It never feeds back into the
	// simulation: results stay bit-identical with or without it, and a
	// nil Live costs the hot path a single pointer comparison.
	Live *Live
}

// Dist summarizes one metric's distribution over a campaign. P50 and
// P95 come from per-shard P² estimators merged by count-weighted
// average — a streaming approximation, converging as sessions grow.
type Dist struct {
	Mean float64 `json:"mean"`
	Std  float64 `json:"std"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
}

// AlgoSummary is one policy's aggregate outcome. OutageSessions counts
// sessions that hit at least one injected outage, Outages the total
// outage count, and OutageSec the per-session down time distribution
// (over all sessions, outage-free ones contributing zero).
type AlgoSummary struct {
	Name           string `json:"name"`
	Sessions       int64  `json:"sessions"`
	Abandoned      int64  `json:"abandoned"`
	OutageSessions int64  `json:"outage_sessions"`
	Outages        int64  `json:"outages"`
	EnergyJ        Dist   `json:"energy_j"`
	QoE            Dist   `json:"qoe"`
	RebufferSec    Dist   `json:"rebuffer_sec"`
	Switches       Dist   `json:"switches"`
	OutageSec      Dist   `json:"outage_sec"`
}

// Result is a campaign's full outcome. Memory is O(algorithms), not
// O(sessions).
//
// WallSec and SessionsPerSec are timing annotations for tooling
// (cmd/campaign fills them in for its -json output); Run itself leaves
// them zero so its result stays a pure function of (Config, Seed,
// Shards) — the determinism tests DeepEqual entire Results.
type Result struct {
	Sessions   int           `json:"sessions"`
	Seed       int64         `json:"seed"`
	Shards     int           `json:"shards"`
	Algorithms []AlgoSummary `json:"algorithms"`

	WallSec        float64 `json:"wall_sec,omitempty"`
	SessionsPerSec float64 `json:"sessions_per_sec,omitempty"`
}

// metricAgg streams one metric: exact moments plus two quantile
// markers.
type metricAgg struct {
	acc      stats.Accumulator
	p50, p95 *stats.P2
}

func newMetricAgg() metricAgg {
	return metricAgg{p50: stats.NewP2(0.50), p95: stats.NewP2(0.95)}
}

func (m *metricAgg) add(x float64) {
	m.acc.Add(x)
	m.p50.Add(x)
	m.p95.Add(x)
}

// algoAgg is one shard's aggregate for one policy.
type algoAgg struct {
	energy, qoe, rebuf, switches, outageSec metricAgg
	abandoned                               int64
	outageSessions, outages                 int64
}

func newShardAgg(algos int) []algoAgg {
	aggs := make([]algoAgg, algos)
	for i := range aggs {
		aggs[i] = algoAgg{
			energy:    newMetricAgg(),
			qoe:       newMetricAgg(),
			rebuf:     newMetricAgg(),
			switches:  newMetricAgg(),
			outageSec: newMetricAgg(),
		}
	}
	return aggs
}

func (a *algoAgg) observe(m *sim.Metrics) {
	a.energy.add(m.TotalJ())
	a.qoe.add(m.MeanQoE)
	a.rebuf.add(m.RebufferSec)
	a.switches.add(float64(m.Switches))
	a.outageSec.add(m.OutageSec)
	if m.Abandoned {
		a.abandoned++
	}
	if m.OutageCount > 0 {
		a.outageSessions++
		a.outages += int64(m.OutageCount)
	}
}

// fleet is what every session of one campaign shares: the validated
// Config with its defaults filled in, and the per-trace manifests and
// compiled traces, derived once and read-only from then on.
type fleet struct {
	cfg       Config
	manifests []*dash.Manifest
	compiled  []*trace.Compiled
	rungQoE   *qoe.RungTable
}

// newFleet validates cfg, fills in its defaults and derives what the
// sessions share.
func newFleet(cfg Config) (*fleet, error) {
	if cfg.Sessions <= 0 {
		return nil, errors.New("campaign: Sessions must be positive")
	}
	if len(cfg.Traces) == 0 {
		return nil, errors.New("campaign: no traces")
	}
	if cfg.AbandonProb < 0 || cfg.AbandonProb > 1 {
		return nil, errors.New("campaign: AbandonProb outside [0, 1]")
	}
	if cfg.VibrationJitter < 0 || cfg.VibrationJitter >= 1 {
		return nil, errors.New("campaign: VibrationJitter outside [0, 1)")
	}
	if cfg.OutageProb < 0 || cfg.OutageProb > 1 {
		return nil, errors.New("campaign: OutageProb outside [0, 1]")
	}
	if cfg.Outage == (netsim.OutageConfig{}) {
		cfg.Outage = netsim.DefaultOutage()
	}
	if cfg.OutageProb > 0 {
		if err := cfg.Outage.Validate(); err != nil {
			return nil, fmt.Errorf("campaign: %w", err)
		}
	}
	if cfg.Power == (power.Model{}) {
		cfg.Power = power.EvalModel()
	}
	if cfg.QoE == (qoe.Model{}) {
		cfg.QoE = qoe.Default()
	}
	if len(cfg.Ladder) == 0 {
		cfg.Ladder = dash.EvalLadder()
	}
	if len(cfg.Algorithms) == 0 {
		var err error
		if cfg.Algorithms, err = DefaultAlgorithms(cfg.Power, cfg.QoE, core.DefaultAlpha); err != nil {
			return nil, err
		}
	}
	if cfg.ThresholdSec <= 0 {
		cfg.ThresholdSec = player.DefaultBufferThresholdSec
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.Shards > cfg.Sessions {
		cfg.Shards = cfg.Sessions
	}

	// Manifests and compiled traces are derived once per trace and
	// shared read-only across all sessions: every session gets the same
	// immutable *trace.Compiled (prefix-summed vibration, shared link
	// points), so the compile cost is amortized over the whole
	// campaign. One QoE rung table covers every session — all manifests
	// share the ladder. trace.CompileStats exposes the amortization to
	// the telemetry gauges.
	f := &fleet{
		cfg:       cfg,
		manifests: make([]*dash.Manifest, len(cfg.Traces)),
		compiled:  make([]*trace.Compiled, len(cfg.Traces)),
		rungQoE:   cfg.QoE.CompileRungs(cfg.Ladder.Bitrates()),
	}
	for i, tr := range cfg.Traces {
		man, err := sim.ManifestForTrace(tr, cfg.Ladder)
		if err != nil {
			return nil, fmt.Errorf("campaign: trace %d manifest: %w", tr.ID, err)
		}
		f.manifests[i] = man
		if f.compiled[i], err = tr.Compiled(); err != nil {
			return nil, fmt.Errorf("campaign: trace %d compile: %w", tr.ID, err)
		}
	}
	return f, nil
}

// session replays session u and returns its metrics. They point into
// the session's own scratch, so a caller that keeps them keeps that
// alive; copy them out instead. Session u runs policy u mod
// len(Algorithms), and its draws depend only on (Seed, u).
func (f *fleet) session(u int) (*sim.Metrics, error) {
	cfg := &f.cfg
	// Session u's stream is seeded with draw u of the campaign seed's
	// stream, so neighbouring sessions land in unrelated stream
	// positions.
	draws := rng.New(rng.At(uint64(cfg.Seed), u))
	spec := cfg.Algorithms[u%len(cfg.Algorithms)]
	// Fixed draw order keeps the stream layout documented: trace,
	// abandon gate, abandon point, vibration scale, then — only when
	// outages are enabled — outage gate and outage seed. Gating the
	// extra draws on OutageProb keeps every pre-outage configuration's
	// results bit-identical.
	ti := int(draws.Float64() * float64(len(cfg.Traces)))
	if ti >= len(cfg.Traces) {
		ti = len(cfg.Traces) - 1
	}
	abandonGate := draws.Float64()
	abandonFrac := draws.Float64()
	vibFrac := draws.Float64()
	outageGate := 1.0
	var outageSeed uint64
	if cfg.OutageProb > 0 {
		outageGate = draws.Float64()
		outageSeed = draws.Uint64()
	}

	alg, err := spec.New()
	if err != nil {
		return nil, fmt.Errorf("campaign: session %d %s: %w", u, spec.Name, err)
	}
	comp := f.compiled[ti]
	ses := sim.Config{
		SessionParams:      sim.SessionParams{MetricsOnly: true, RungQoE: f.rungQoE},
		Manifest:           f.manifests[ti],
		Link:               comp.Link(),
		VibrationAt:        comp.Vibration(0),
		Algorithm:          alg,
		Power:              cfg.Power,
		QoE:                cfg.QoE,
		BufferThresholdSec: cfg.ThresholdSec,
	}
	if abandonGate < cfg.AbandonProb {
		ses.AbandonAtSec = (0.1 + 0.8*abandonFrac) * cfg.Traces[ti].LengthSec
	}
	if j := cfg.VibrationJitter; j > 0 {
		ses.VibrationScale = 1 + j*(2*vibFrac-1)
	}
	if outageGate < cfg.OutageProb {
		oc := cfg.Outage
		oc.Seed = int64(outageSeed)
		ses.Outage = &oc
	}
	m, err := sim.Run(ses)
	if err != nil {
		return nil, fmt.Errorf("campaign: session %d %s on trace %d: %w", u, spec.Name, cfg.Traces[ti].ID, err)
	}
	return m, nil
}

// windowPerWorker sizes Run's session windows: GOMAXPROCS × 64
// sessions, enough to keep every worker busy between folds, while the
// window's metrics take a few tens of KB at any campaign size.
const windowPerWorker = 64

// Run executes the campaign and returns its aggregate result.
//
// Sessions run on GOMAXPROCS workers, one window of consecutive
// sessions at a time, and each copies its metrics into its own slot of
// the window. After each window the calling goroutine folds the slots
// in session order, session u into shard u mod Shards, so every shard
// sees its sessions in the same order at any worker count.
func Run(cfg Config) (*Result, error) {
	f, err := newFleet(cfg)
	if err != nil {
		return nil, err
	}
	cfg = f.cfg
	algos, shards := cfg.Algorithms, cfg.Shards
	cfg.Live.init(algos, cfg.Sessions)

	shardAggs := make([][]algoAgg, shards)
	for i := range shardAggs {
		shardAggs[i] = newShardAgg(len(algos))
	}
	workers := runtime.GOMAXPROCS(0)
	window := make([]sim.Metrics, min(cfg.Sessions, windowPerWorker*workers))
	for base := 0; base < cfg.Sessions; base += len(window) {
		slots := window[:min(len(window), cfg.Sessions-base)]
		err := pool.Run(len(slots), workers, func(slot int) error {
			m, err := f.session(base + slot)
			if err != nil {
				return err
			}
			slots[slot] = *m
			return nil
		})
		var pe *pool.PanicError
		if errors.As(err, &pe) {
			// Name the session, not its slot in the window.
			pe.Unit += base
			err = fmt.Errorf("campaign: session %d: %w", pe.Unit, err)
		}
		if err != nil {
			return nil, err
		}
		for slot := range slots {
			u := base + slot
			ai := u % len(algos)
			shardAggs[u%shards][ai].observe(&slots[slot])
			cfg.Live.observe(ai, &slots[slot])
		}
	}

	res := &Result{Sessions: cfg.Sessions, Seed: cfg.Seed, Shards: shards}
	for ai, spec := range algos {
		var (
			energy, qoeAcc, rebuf, switches, outageSec stats.Accumulator
			abandoned, outageSessions, outages         int64
		)
		perShard := func(pick func(*algoAgg) *metricAgg) (p50, p95 float64) {
			var s50, s95 float64
			var n int64
			for _, aggs := range shardAggs {
				m := pick(&aggs[ai])
				if c := m.p50.N(); c > 0 {
					s50 += m.p50.Value() * float64(c)
					s95 += m.p95.Value() * float64(c)
					n += c
				}
			}
			if n == 0 {
				return 0, 0
			}
			return s50 / float64(n), s95 / float64(n)
		}
		for _, aggs := range shardAggs {
			a := &aggs[ai]
			energy.Merge(a.energy.acc)
			qoeAcc.Merge(a.qoe.acc)
			rebuf.Merge(a.rebuf.acc)
			switches.Merge(a.switches.acc)
			outageSec.Merge(a.outageSec.acc)
			abandoned += a.abandoned
			outageSessions += a.outageSessions
			outages += a.outages
		}
		dist := func(acc *stats.Accumulator, pick func(*algoAgg) *metricAgg) Dist {
			p50, p95 := perShard(pick)
			return Dist{Mean: acc.Mean(), Std: acc.StdDev(), Min: acc.Min(), Max: acc.Max(), P50: p50, P95: p95}
		}
		res.Algorithms = append(res.Algorithms, AlgoSummary{
			Name:           spec.Name,
			Sessions:       energy.N(),
			Abandoned:      abandoned,
			OutageSessions: outageSessions,
			Outages:        outages,
			EnergyJ:        dist(&energy, func(a *algoAgg) *metricAgg { return &a.energy }),
			QoE:            dist(&qoeAcc, func(a *algoAgg) *metricAgg { return &a.qoe }),
			RebufferSec:    dist(&rebuf, func(a *algoAgg) *metricAgg { return &a.rebuf }),
			Switches:       dist(&switches, func(a *algoAgg) *metricAgg { return &a.switches }),
			OutageSec:      dist(&outageSec, func(a *algoAgg) *metricAgg { return &a.outageSec }),
		})
	}
	return res, nil
}
