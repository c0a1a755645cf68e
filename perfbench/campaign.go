package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"time"

	"ecavs/internal/abr"
	"ecavs/internal/campaign"
	"ecavs/internal/core"
	"ecavs/internal/dash"
	"ecavs/internal/netsim"
	"ecavs/internal/player"
	"ecavs/internal/power"
	"ecavs/internal/qoe"
	"ecavs/internal/sim"
	"ecavs/internal/trace"
	"ecavs/internal/vibration"
)

// The campaign workload exists to measure the simulation stack alone:
// compiled-trace queries, Eq. 1/Eq. 6 scoring, the paper's online
// algorithm and the baselines, the session loop and the sharded
// campaign runner do all the work and no socket opens, so a change to
// the serving path must leave it unchanged. One op is one campaign.Run
// batch of fixed size over the five Table V traces, in a closed loop
// with a pinned shard count. Abandonment, vibration jitter and outages
// are all on, so every branch of the session loop runs.

// batchParams fix what one batch computes; a golden result holds only
// for the parameters it was recorded under.
type batchParams struct {
	Sessions        int     `json:"sessions"`
	Shards          int     `json:"shards"`
	AbandonProb     float64 `json:"abandon_prob"`
	VibrationJitter float64 `json:"vibration_jitter"`
	OutageProb      float64 `json:"outage_prob"`
}

// campaignParams sizes the workload.
type campaignParams struct {
	batchParams
	warmup int // batches run during set-up
	replay int // sessions replayed through sim.Run in a traced run
}

var campaignDefaults = campaignParams{
	batchParams: batchParams{
		Sessions:        480,
		Shards:          1,
		AbandonProb:     0.25,
		VibrationJitter: 0.3,
		OutageProb:      0.2,
	},
	warmup: 1,
	replay: 400,
}

// goldenFile holds campaign.Result for every seed it was recorded at,
// under the batch parameters in its header (regenerate with
// `go test -run TestCampaignGolden -update`).
type goldenFile struct {
	Params  batchParams                `json:"params"`
	Results map[string]json.RawMessage `json:"results"`
}

//go:embed testdata/campaign_golden.json
var goldenJSON []byte

type campaignInst struct {
	p   campaignParams
	cfg campaign.Config
	rec *recorder
	// golden is the expected batch result, goldenTree the same as
	// decoded JSON (the fields it was recorded with). Both stay nil
	// until the first batch when the seed has no committed golden.
	golden     *campaign.Result
	goldenTree any
	source     string // where golden came from

	// What the replay needs, kept from construction.
	traces    []*trace.Trace
	manifests []*dash.Manifest
	compiled  []*trace.Compiled
	algos     []campaign.AlgorithmSpec
	pm        power.Model
	qm        qoe.Model
	rungQoE   *qoe.RungTable
	seed      int64

	coreTally, abrTally tally
}

func newCampaign(p campaignParams, seed int64, rec *recorder) (*campaignInst, error) {
	pm, qm := power.EvalModel(), qoe.Default()
	traces, err := trace.GenerateTableV(pm.NominalThroughputMBps)
	if err != nil {
		return nil, err
	}
	algos, err := campaign.DefaultAlgorithms(pm, qm, core.DefaultAlpha)
	if err != nil {
		return nil, err
	}
	c := &campaignInst{p: p, rec: rec, traces: traces, algos: algos, pm: pm, qm: qm, seed: seed}
	c.cfg = campaign.Config{
		Traces:          traces,
		Algorithms:      algos,
		Sessions:        p.Sessions,
		Seed:            seed,
		Shards:          p.Shards,
		AbandonProb:     p.AbandonProb,
		VibrationJitter: p.VibrationJitter,
		OutageProb:      p.OutageProb,
	}
	if rec != nil {
		c.cfg.Algorithms = c.wrap(algos)
	}
	if c.golden, c.goldenTree, err = lookupGolden(p, seed); err != nil {
		return nil, err
	}
	c.source = "committed"
	if c.golden == nil {
		c.source = "first batch of the run"
	}
	for i := 0; i < p.warmup; i++ {
		if _, err := campaign.Run(c.cfg); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// lookupGolden returns the committed result for seed, as the result
// type and as decoded JSON, or nils when the golden file was recorded
// under other parameters or without this seed.
func lookupGolden(p campaignParams, seed int64) (*campaign.Result, any, error) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, nil, fmt.Errorf("golden file: %w", err)
	}
	raw, ok := g.Results[strconv.FormatInt(seed, 10)]
	if !ok || g.Params != p.batchParams {
		return nil, nil, nil
	}
	var res campaign.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, nil, fmt.Errorf("golden file, seed %d: %w", seed, err)
	}
	var tree any
	if err := json.Unmarshal(raw, &tree); err != nil {
		return nil, nil, fmt.Errorf("golden file, seed %d: %w", seed, err)
	}
	return &res, tree, nil
}

// wrap puts the benchmark's abr.Algorithm wrapper around every instance
// the specs build, which counts the measured batches' decisions.
func (c *campaignInst) wrap(specs []campaign.AlgorithmSpec) []campaign.AlgorithmSpec {
	out := make([]campaign.AlgorithmSpec, len(specs))
	for i, s := range specs {
		build := s.New
		out[i] = campaign.AlgorithmSpec{Name: s.Name, New: func() (abr.Algorithm, error) {
			a, err := build()
			if err != nil {
				return nil, err
			}
			return c.timed(a, nil, 0), nil
		}}
	}
	return out
}

// timed wraps one algorithm; with a recorder every decision is a span
// under parent.
func (c *campaignInst) timed(a abr.Algorithm, rec *recorder, parent int64) *timedAlg {
	t := &timedAlg{Algorithm: a, tally: &c.abrTally, name: "abr.decide", rec: rec, parent: parent}
	if _, ok := a.(*core.Online); ok {
		t.tally, t.name = &c.coreTally, "core.decide"
	}
	return t
}

func (c *campaignInst) measure(deadline time.Time) (*phase, error) {
	p := &phase{meta: map[string]any{"campaign": map[string]any{
		"params": c.p.batchParams, "golden": c.source,
	}}}
	// Count only the measured batches' decisions, not the warm-up's.
	for _, t := range []*tally{&c.coreTally, &c.abrTally} {
		t.calls.Store(0)
		t.ns.Store(0)
	}
	for time.Now().Before(deadline) {
		start := time.Now()
		res, err := campaign.Run(c.cfg)
		el := time.Since(start)
		c.rec.addAt("campaign.run", c.rec.newID(), 0, start, start.Add(el))
		p.attempted++
		if err != nil {
			p.fail(err.Error())
			continue
		}
		if err := c.check(res); err != nil {
			p.fail(err.Error())
			continue
		}
		p.pass(start.Add(el), float64(el)/1e6)
	}
	return p, nil
}

// check compares a batch's result with the golden for the pinned
// (seed, shards) and with what the configuration guarantees.
func (c *campaignInst) check(res *campaign.Result) error {
	if res.Sessions != c.p.Sessions || len(res.Algorithms) != len(c.algos) {
		return fmt.Errorf("result covers %d sessions over %d algorithms", res.Sessions, len(res.Algorithms))
	}
	var sessions, abandoned, outages int64
	for _, a := range res.Algorithms {
		sessions += a.Sessions
		abandoned += a.Abandoned
		outages += a.OutageSessions
	}
	if sessions != int64(c.p.Sessions) || abandoned == 0 || outages == 0 {
		return fmt.Errorf("result has %d sessions, %d abandoned, %d with outages", sessions, abandoned, outages)
	}
	if c.golden == nil {
		tree, err := generic(res)
		if err != nil {
			return err
		}
		c.golden, c.goldenTree = res, tree
		return nil
	}
	if reflect.DeepEqual(res, c.golden) {
		return nil
	}
	// A result type that gained fields since the golden was recorded
	// still passes when every recorded field holds its recorded value.
	have, err := generic(res)
	if err != nil {
		return err
	}
	if path := subsetDiff(c.goldenTree, have, "result"); path != "" {
		return fmt.Errorf("campaign result differs from the golden at %s", path)
	}
	return nil
}

func generic(v any) (any, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("encode result: %w", err)
	}
	var out any
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("decode result: %w", err)
	}
	return out, nil
}

// subsetDiff returns the path of the first value in want that have
// lacks or holds differently, or "" when want ⊆ have.
func subsetDiff(want, have any, path string) string {
	switch w := want.(type) {
	case map[string]any:
		h, ok := have.(map[string]any)
		if !ok {
			return path
		}
		for k, wv := range w {
			hv, ok := h[k]
			if !ok {
				return path + "." + k
			}
			if d := subsetDiff(wv, hv, path+"."+k); d != "" {
				return d
			}
		}
		return ""
	case []any:
		h, ok := have.([]any)
		if !ok || len(h) != len(w) {
			return path
		}
		for i := range w {
			if d := subsetDiff(w[i], h[i], fmt.Sprintf("%s[%d]", path, i)); d != "" {
				return d
			}
		}
		return ""
	default:
		if !reflect.DeepEqual(want, have) {
			return path
		}
		return ""
	}
}

func (c *campaignInst) close() {}

// layers reports the traced phase. Decision counts and costs come from
// the wrapped algorithms inside the measured campaign.Run batches; the
// session breakdown comes from replaying sampled sessions through
// sim.Run, because campaign.Run offers no seam inside a session.
func (c *campaignInst) layers(p *phase, spans []span) (map[string]float64, []layerTime) {
	out := map[string]float64{}
	batches := float64(p.attempted)
	// Read the batches' tallies before the replay adds its own decisions.
	out["abr.decisions_per_op"] = float64(c.coreTally.calls.Load()+c.abrTally.calls.Load()) / batches
	rp, err := c.replaySessions()
	if err != nil {
		p.fail("replay: " + err.Error())
		return out, selfTimes(spans)
	}
	for k, v := range rp.metrics() {
		out[k] = v
	}
	// The replay recorded its spans beside the measured batches'.
	spans, _ = c.rec.snapshot()
	layers := selfTimes(spans)
	for i := range layers {
		if layers[i].Name == "sim.session" {
			// Query and link costs were timed by replay, outside the
			// session span; take them out of the session's self time.
			layers[i].SelfNs -= rp.queryNs + rp.linkNs
		}
	}
	layers = append(layers,
		layerTime{Name: "trace.query (replayed)", Count: int(rp.queries), TotalNs: rp.queryNs, SelfNs: rp.queryNs},
		layerTime{Name: "netsim.link (replayed)", Count: int(rp.linkCalls), TotalNs: rp.linkNs, SelfNs: rp.linkNs})
	return out, layers
}

// replay is what replaying sampled sessions measured.
type replay struct {
	sessions, segments, abandoned, outaged int64
	queries, linkCalls                     int64
	plainNs, queryNs, linkNs               int64
	coreCalls, abrCalls, coreNs, abrNs     int64
}

func (r *replay) metrics() map[string]float64 {
	n, plain := float64(r.sessions), float64(r.plainNs)
	return map[string]float64{
		"trace.queries_per_session":     float64(r.queries) / n,
		"trace.query_ns":                float64(r.queryNs) / float64(max(r.queries, 1)),
		"netsim.link_calls_per_session": float64(r.linkCalls) / n,
		"netsim.link_share":             float64(r.linkNs) / plain,
		"core.decide_ns":                float64(r.coreNs) / float64(max(r.coreCalls, 1)),
		"abr.decide_ns":                 float64(r.abrNs) / float64(max(r.abrCalls, 1)),
		"core.decide_share":             float64(r.coreNs) / plain,
		"abr.decide_share":              float64(r.abrNs) / plain,
		"sim.self_share":                1 - float64(r.queryNs+r.linkNs+r.coreNs+r.abrNs)/plain,
		"sim.segments_per_session":      float64(r.segments) / n,
		"sim.abandoned_share":           float64(r.abandoned) / n,
		"sim.outage_share":              float64(r.outaged) / n,
	}
}

// replaySessions draws sessions the way the campaign configuration
// does (trace, algorithm round-robin, abandonment, vibration scale,
// outage) from the benchmark's own seeded stream, and runs each
// through sim.Run twice: plain, for its duration, and instrumented,
// for its decision spans and its trace-query, link-call and algorithm
// call logs. The logs are then replayed through the public Cursor,
// Link and abr.Algorithm APIs to time calls too short to time one by
// one: a trace query takes ~10 ns, a baseline's decision less than the
// pair of clock reads around it.
func (c *campaignInst) replaySessions() (*replay, error) {
	if c.manifests == nil {
		c.manifests = make([]*dash.Manifest, len(c.traces))
		c.compiled = make([]*trace.Compiled, len(c.traces))
		for i, tr := range c.traces {
			m, err := sim.ManifestForTrace(tr, dash.EvalLadder())
			if err != nil {
				return nil, err
			}
			c.manifests[i] = m
			if c.compiled[i], err = tr.Compiled(); err != nil {
				return nil, err
			}
		}
		c.rungQoE = c.qm.CompileRungs(dash.EvalLadder().Bitrates())
	}
	rec := c.rec
	rp := &replay{}
	rng := newSplitmix(uint64(c.seed) ^ 0x5e55)
	window := vibration.DefaultWindowSec
	for u := 0; u < c.p.replay; u++ {
		ti := int(rng.float() * float64(len(c.traces)))
		abandonGate, abandonFrac, vibFrac := rng.float(), rng.float(), rng.float()
		outageGate, outageSeed := rng.float(), rng.next()
		base := sim.Config{
			SessionParams:      sim.SessionParams{MetricsOnly: true, RungQoE: c.rungQoE},
			Manifest:           c.manifests[ti],
			Power:              c.pm,
			QoE:                c.qm,
			BufferThresholdSec: player.DefaultBufferThresholdSec,
		}
		if abandonGate < c.p.AbandonProb {
			base.AbandonAtSec = (0.1 + 0.8*abandonFrac) * c.traces[ti].LengthSec
		}
		if j := c.p.VibrationJitter; j > 0 {
			base.VibrationScale = 1 + j*(2*vibFrac-1)
		}
		if outageGate < c.p.OutageProb {
			oc := netsim.DefaultOutage()
			oc.Seed = int64(outageSeed)
			base.Outage = &oc
		}
		comp, spec := c.compiled[ti], c.algos[u%len(c.algos)]

		plain := base
		cur := comp.Cursor()
		plain.Link = comp.Link()
		plain.VibrationAt = func(t float64) float64 { return cur.VibrationAt(t, window) }
		alg, err := spec.New()
		if err != nil {
			return nil, err
		}
		plain.Algorithm = alg
		start := time.Now()
		want, err := sim.Run(plain)
		rp.plainNs += int64(time.Since(start))
		if err != nil {
			return nil, err
		}

		inst := base
		var queries []float64
		cur2 := comp.Cursor()
		inst.VibrationAt = func(t float64) float64 {
			queries = append(queries, t)
			return cur2.VibrationAt(t, window)
		}
		link := &loggedLink{Link: comp.Link()}
		inst.Link = link
		alg, err = spec.New()
		if err != nil {
			return nil, err
		}
		op, sid := rec.newID(), rec.newID()
		ta := c.timed(alg, rec, sid)
		ta.op = op
		calls := &loggedAlg{Algorithm: ta}
		inst.Algorithm = calls
		sStart := rec.now()
		got, err := sim.Run(inst)
		rec.add(span{ID: sid, Op: op, Name: "sim.session", Start: sStart, End: rec.now()})
		if err != nil {
			return nil, err
		}
		if !reflect.DeepEqual(want, got) {
			return nil, errors.New("instrumented session diverged from the plain one")
		}

		rp.sessions++
		rp.segments += int64(ta.calls)
		rp.queries += int64(len(queries))
		rp.linkCalls += int64(len(link.log))
		if got.Abandoned {
			rp.abandoned++
		}
		if got.OutageCount > 0 {
			rp.outaged++
		}
		decideNs, err := replayDecisions(spec, calls.log)
		if err != nil {
			return nil, err
		}
		if ta.tally == &c.coreTally {
			rp.coreCalls += int64(ta.calls)
			rp.coreNs += decideNs
		} else {
			rp.abrCalls += int64(ta.calls)
			rp.abrNs += decideNs
		}
		rp.queryNs += replayQueries(comp, queries, window)
		rp.linkNs += replayLink(comp, link.log)
	}
	return rp, nil
}

// replayDecisions runs a session's logged algorithm calls, in order,
// through a fresh instance from spec and returns how long they took.
// The instance must choose every rung the session's did.
func replayDecisions(spec campaign.AlgorithmSpec, log []algCall) (int64, error) {
	alg, err := spec.New()
	if err != nil {
		return 0, err
	}
	same := true
	start := time.Now()
	for i := range log {
		call := &log[i]
		if call.observe {
			alg.ObserveDownload(call.mbps)
			continue
		}
		rung, _ := alg.ChooseRung(call.ctx)
		same = same && rung == call.rung
	}
	el := time.Since(start)
	if !same {
		return 0, fmt.Errorf("%s: replayed decisions differ from the session's", spec.Name)
	}
	return int64(el), nil
}

func replayQueries(comp *trace.Compiled, ts []float64, window float64) int64 {
	cur := comp.Cursor()
	var sink float64
	start := time.Now()
	for _, t := range ts {
		sink += cur.VibrationAt(t, window)
	}
	el := time.Since(start)
	_ = sink
	return int64(el)
}

func replayLink(comp *trace.Compiled, log []linkOp) int64 {
	var l netsim.Link = comp.Link()
	var sink float64
	start := time.Now()
	for _, op := range log {
		switch op.kind {
		case linkNow:
			sink += l.Now()
		case linkSignal:
			sink += l.SignalDBm()
		case linkThroughput:
			sink += l.ThroughputMBps()
		case linkAdvance:
			l.Advance(op.dt)
		}
	}
	el := time.Since(start)
	_ = sink
	return int64(el)
}

const (
	linkNow = iota
	linkSignal
	linkThroughput
	linkAdvance
)

type linkOp struct {
	kind int
	dt   float64
}

// loggedLink records every call a session makes on its trace link.
type loggedLink struct {
	netsim.Link
	log []linkOp
}

func (l *loggedLink) Now() float64 {
	l.log = append(l.log, linkOp{kind: linkNow})
	return l.Link.Now()
}

func (l *loggedLink) SignalDBm() float64 {
	l.log = append(l.log, linkOp{kind: linkSignal})
	return l.Link.SignalDBm()
}

func (l *loggedLink) ThroughputMBps() float64 {
	l.log = append(l.log, linkOp{kind: linkThroughput})
	return l.Link.ThroughputMBps()
}

func (l *loggedLink) Advance(dt float64) {
	l.log = append(l.log, linkOp{kind: linkAdvance, dt: dt})
	l.Link.Advance(dt)
}

// algCall is one call a session made on its algorithm: a decision and
// the rung chosen, or an observed download.
type algCall struct {
	ctx     abr.Context
	rung    int
	observe bool
	mbps    float64
}

// loggedAlg records every call a session makes on its algorithm.
type loggedAlg struct {
	abr.Algorithm
	log []algCall
}

func (a *loggedAlg) ChooseRung(ctx abr.Context) (int, error) {
	rung, err := a.Algorithm.ChooseRung(ctx)
	a.log = append(a.log, algCall{ctx: ctx, rung: rung})
	return rung, err
}

func (a *loggedAlg) ObserveDownload(mbps float64) {
	a.log = append(a.log, algCall{observe: true, mbps: mbps})
	a.Algorithm.ObserveDownload(mbps)
}
