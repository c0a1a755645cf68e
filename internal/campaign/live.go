package campaign

import (
	"sync/atomic"
	"time"

	"ecavs/internal/sim"
	"ecavs/internal/telemetry"
	"ecavs/internal/trace"
)

// Live publishes a running campaign's progress as telemetry: live
// session counts, throughput, ETA, and per-algorithm running means of
// QoE and energy. Attach one to Config.Live and scrape the registry
// while Run is in flight — the campaign stops being a black box
// without giving up determinism (observation never touches the
// per-session random streams, pinned by TestRunLiveIsInert).
//
// The observation hot path is a handful of atomic adds per session;
// with Config.Live nil the campaign runner pays a single pointer
// comparison, keeping the disabled path bit-identical and
// allocation-free.
type Live struct {
	reg *telemetry.Registry

	completed *telemetry.Counter
	abandoned *telemetry.Counter
	target    *telemetry.Gauge

	// startNanos and baseline anchor the throughput window to the
	// latest Run (a Live survives reuse; counters accumulate).
	startNanos atomic.Int64
	baseline   atomic.Int64
	targetN    atomic.Int64

	algos []liveAlgo
}

// liveAlgo tracks one policy's running aggregates. The struct embeds
// atomics, so the slice is allocated once and never copied.
type liveAlgo struct {
	sessions  *telemetry.Counter
	qoeSum    telemetry.Gauge // unregistered accumulators feeding the means
	energySum telemetry.Gauge
	qoeMean   *telemetry.Gauge
	energyJ   *telemetry.Gauge
}

// NewLive returns a live-progress publisher registering its series in
// reg. A nil reg gets a private registry — the accessor methods
// (Completed, SessionsPerSec, ETASec) still work, which is what a
// progress printer without a metrics endpoint needs.
func NewLive(reg *telemetry.Registry) *Live {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	l := &Live{
		reg: reg,
		completed: reg.Counter("campaign_sessions_completed_total",
			"Sessions finished so far across all algorithms."),
		abandoned: reg.Counter("campaign_sessions_abandoned_total",
			"Sessions whose viewer quit early."),
		target: reg.Gauge("campaign_sessions_target",
			"Total sessions this campaign will run."),
	}
	reg.GaugeFunc("campaign_sessions_per_sec",
		"Completion throughput since the campaign started.", l.SessionsPerSec)
	reg.GaugeFunc("campaign_eta_seconds",
		"Estimated seconds until the campaign completes.", l.ETASec)
	// Compiled-trace amortization (process-wide): a healthy campaign
	// compiles once per distinct trace while hits grow with sessions.
	reg.GaugeFunc("campaign_trace_compiles_total",
		"Trace compilations performed process-wide (one per distinct trace).",
		func() float64 {
			compiles, _ := trace.CompileStats()
			return float64(compiles)
		})
	reg.GaugeFunc("campaign_trace_compile_hits_total",
		"Compiled-trace cache hits process-wide (sessions reusing a shared compilation).",
		func() float64 {
			_, hits := trace.CompileStats()
			return float64(hits)
		})
	return l
}

// Registry returns the registry the live series are registered in.
func (l *Live) Registry() *telemetry.Registry {
	if l == nil {
		return nil
	}
	return l.reg
}

// init re-anchors the publisher to a starting campaign: target size,
// per-algorithm series, and the throughput window.
func (l *Live) init(algos []AlgorithmSpec, sessions int) {
	if l == nil {
		return
	}
	qoeVec := l.reg.GaugeVec("campaign_qoe_mean",
		"Running mean per-session QoE, by algorithm.", "algorithm")
	energyVec := l.reg.GaugeVec("campaign_energy_j_mean",
		"Running mean per-session energy in joules, by algorithm.", "algorithm")
	sessionsVec := l.reg.CounterVec("campaign_algorithm_sessions_total",
		"Sessions finished, by algorithm.", "algorithm")
	l.algos = make([]liveAlgo, len(algos))
	for i, spec := range algos {
		l.algos[i].sessions = sessionsVec.With(spec.Name)
		l.algos[i].qoeMean = qoeVec.With(spec.Name)
		l.algos[i].energyJ = energyVec.With(spec.Name)
	}
	l.target.Set(float64(sessions))
	l.targetN.Store(int64(sessions))
	l.baseline.Store(l.completed.Value())
	l.startNanos.Store(time.Now().UnixNano())
}

// observe folds one finished session into the live aggregates. Run
// calls it from its folding goroutine, in session order, while scrapes
// read the series concurrently; a nil receiver is a no-op.
func (l *Live) observe(ai int, m *sim.Metrics) {
	if l == nil {
		return
	}
	l.completed.Inc()
	if m.Abandoned {
		l.abandoned.Inc()
	}
	a := &l.algos[ai]
	a.sessions.Inc()
	a.qoeSum.Add(m.MeanQoE)
	a.energySum.Add(m.TotalJ())
	// Running means recomputed from the atomic sums; a scrape between
	// the adds and the sets reads a mean one session behind (the exact
	// distributions come from Result).
	if n := float64(a.sessions.Value()); n > 0 {
		a.qoeMean.Set(a.qoeSum.Value() / n)
		a.energyJ.Set(a.energySum.Value() / n)
	}
}

// Completed reports sessions finished since the Live was created.
func (l *Live) Completed() int64 {
	if l == nil {
		return 0
	}
	return l.completed.Value()
}

// SessionsPerSec reports completion throughput since the current
// campaign started (zero before any session finishes).
func (l *Live) SessionsPerSec() float64 {
	if l == nil {
		return 0
	}
	elapsed := time.Duration(time.Now().UnixNano() - l.startNanos.Load()).Seconds()
	if elapsed <= 0 {
		return 0
	}
	return float64(l.completed.Value()-l.baseline.Load()) / elapsed
}

// ETASec estimates seconds to completion from the current throughput
// (zero once done or before throughput is measurable).
func (l *Live) ETASec() float64 {
	if l == nil {
		return 0
	}
	rate := l.SessionsPerSec()
	if rate <= 0 {
		return 0
	}
	remaining := float64(l.targetN.Load() - (l.completed.Value() - l.baseline.Load()))
	if remaining <= 0 {
		return 0
	}
	return remaining / rate
}
