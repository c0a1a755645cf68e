package campaign

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"ecavs/internal/abr"
	"ecavs/internal/core"
	"ecavs/internal/netsim"
	"ecavs/internal/pool"
	"ecavs/internal/power"
	"ecavs/internal/qoe"
	"ecavs/internal/trace"
)

// testTraces generates two short session contexts (cheap enough that
// the determinism test can afford dozens of replays).
func testTraces(t *testing.T) []*trace.Trace {
	t.Helper()
	rate := power.EvalModel().NominalThroughputMBps
	specs := []trace.Spec{
		{ID: 1, Name: "short-bus", LengthSec: 60, DataSizeMB: 20, TargetVibration: 6.5,
			SignalMeanDBm: -106, SignalVolatilityDB: 3, SignalSwingDB: 5,
			CapAt90Mbps: 40, CapDecadeDB: 25, Seed: 11},
		{ID: 2, Name: "short-train", LengthSec: 80, DataSizeMB: 27, TargetVibration: 2.5,
			SignalMeanDBm: -95, SignalVolatilityDB: 1.5, SignalSwingDB: 2,
			CapAt90Mbps: 40, CapDecadeDB: 25, Seed: 12},
	}
	out := make([]*trace.Trace, 0, len(specs))
	for _, s := range specs {
		tr, err := trace.Generate(s, rate)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tr)
	}
	return out
}

// panicAlgorithm panics on its Nth decision — a stand-in for an
// algorithm bug triggered by one rare trace configuration.
type panicAlgorithm struct {
	abr.Fixed
	decisions, panicAt int
}

func (p *panicAlgorithm) Name() string { return "panicky" }

func (p *panicAlgorithm) ChooseRung(ctx abr.Context) (int, error) {
	p.decisions++
	if p.decisions == p.panicAt {
		panic("scripted algorithm panic")
	}
	return p.Fixed.ChooseRung(ctx)
}

// TestRunSurvivesPanickingSession is the satellite contract: one
// poisoned session unit must fail the campaign with a typed, diagnosable
// error — not crash the process that is running 10k other sessions.
func TestRunSurvivesPanickingSession(t *testing.T) {
	cfg := Config{
		Traces:   testTraces(t),
		Sessions: 16,
		Seed:     7,
		Shards:   4,
		Algorithms: []AlgorithmSpec{
			{Name: "Youtube", New: func() (abr.Algorithm, error) { return abr.NewYoutube(), nil }},
			{Name: "panicky", New: func() (abr.Algorithm, error) {
				return &panicAlgorithm{Fixed: abr.Fixed{Rung: 0}, panicAt: 3}, nil
			}},
		},
	}
	_, err := Run(cfg)
	if err == nil {
		t.Fatal("campaign with a panicking algorithm returned nil error")
	}
	var pe *pool.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a wrapped *pool.PanicError", err)
	}
	if pe.Value != "scripted algorithm panic" {
		t.Errorf("PanicError.Value = %v", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Error("PanicError carries no stack")
	}
}

func TestRunDeterministic(t *testing.T) {
	traces := testTraces(t)
	cfg := Config{
		Traces:          traces,
		Sessions:        24,
		Seed:            7,
		Shards:          4,
		AbandonProb:     0.3,
		VibrationJitter: 0.25,
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same (Seed, Shards) produced different results:\n%+v\nvs\n%+v", a, b)
	}
}

// With failure injection enabled the campaign must stay a pure
// function of (Config, Seed, Shards): same inputs, bit-identical
// aggregates — including the outage counters.
func TestRunDeterministicWithOutages(t *testing.T) {
	traces := testTraces(t)
	cfg := Config{
		Traces:          traces,
		Sessions:        24,
		Seed:            9,
		Shards:          4,
		AbandonProb:     0.2,
		VibrationJitter: 0.25,
		OutageProb:      0.7,
		Outage:          netsim.OutageConfig{MeanUpSec: 20, MeanDownSec: 5, DownRateFrac: 0.05, SignalDropDB: 12},
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same (Seed, Shards) with outages produced different results:\n%+v\nvs\n%+v", a, b)
	}
	var hit, total int64
	for _, s := range a.Algorithms {
		hit += s.OutageSessions
		total += s.Outages
	}
	if hit == 0 || total == 0 {
		t.Errorf("outage prob 0.7 over 24 sessions injected nothing (%d sessions hit, %d outages)", hit, total)
	}
}

// TestRunIndependentOfGOMAXPROCS pins that the worker count, which is
// GOMAXPROCS, never reaches a result: at 1, 2 and 8 workers, a campaign
// of several session windows returns DeepEqual results for each
// partition, the default one included, and a campaign that fails names
// the same session.
func TestRunIndependentOfGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	procs := []int{1, 2, 8}
	traces := testTraces(t)
	for _, shards := range []int{0, 1, 3} {
		cfg := Config{
			Traces:          traces,
			Sessions:        150,
			Seed:            11,
			Shards:          shards,
			AbandonProb:     0.3,
			VibrationJitter: 0.25,
			OutageProb:      0.4,
		}
		var want *Result
		for _, p := range procs {
			runtime.GOMAXPROCS(p)
			got, err := Run(cfg)
			if err != nil {
				t.Fatalf("shards %d, GOMAXPROCS %d: %v", shards, p, err)
			}
			if want == nil {
				want = got
			} else if !reflect.DeepEqual(got, want) {
				t.Errorf("shards %d: GOMAXPROCS %d result differs from GOMAXPROCS %d:\n%+v\nvs\n%+v", shards, p, procs[0], got, want)
			}
		}
	}

	// Sessions 69 and 139 run the panicking policy. Session 69 lies in
	// the second window at one worker and in the first at more, and is
	// the lowest failing session either way.
	algos := make([]AlgorithmSpec, 70)
	for i := range algos {
		algos[i] = AlgorithmSpec{Name: "Youtube", New: func() (abr.Algorithm, error) { return abr.NewYoutube(), nil }}
	}
	algos[69] = AlgorithmSpec{Name: "panicky", New: func() (abr.Algorithm, error) {
		return &panicAlgorithm{Fixed: abr.Fixed{Rung: 0}, panicAt: 3}, nil
	}}
	for _, p := range procs {
		runtime.GOMAXPROCS(p)
		_, err := Run(Config{Traces: traces, Sessions: 150, Seed: 11, Algorithms: algos})
		var pe *pool.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("GOMAXPROCS %d: err = %v, want a wrapped *pool.PanicError", p, err)
		}
		if pe.Unit != 69 || !strings.HasPrefix(err.Error(), "campaign: session 69: ") {
			t.Errorf("GOMAXPROCS %d: PanicError.Unit = %d, error %.40q; want session 69", p, pe.Unit, err.Error())
		}
	}
}

// Enabling outages must not perturb sessions that the gate leaves
// untouched: with OutageProb 0 the result is bit-identical to a config
// that never mentions outages at all.
func TestRunOutageProbZeroIsInert(t *testing.T) {
	traces := testTraces(t)
	base := Config{Traces: traces, Sessions: 16, Seed: 7, Shards: 2, AbandonProb: 0.3, VibrationJitter: 0.25}
	withCfg := base
	withCfg.Outage = netsim.OutageConfig{MeanUpSec: 10, MeanDownSec: 5}
	a, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(withCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("an unused outage config changed campaign results")
	}
}

func TestRunShardCountPreservesMoments(t *testing.T) {
	traces := testTraces(t)
	base := Config{Traces: traces, Sessions: 16, Seed: 3, AbandonProb: 0.5, VibrationJitter: 0.2}

	one := base
	one.Shards = 1
	four := base
	four.Shards = 4
	a, err := Run(one)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(four)
	if err != nil {
		t.Fatal(err)
	}
	// The session set is identical (draws depend only on Seed and the
	// session index), so exact moments must agree up to merge-order
	// float rounding. Percentiles are shard-dependent estimates and are
	// not compared.
	for i := range a.Algorithms {
		sa, sb := a.Algorithms[i], b.Algorithms[i]
		if sa.Sessions != sb.Sessions || sa.Abandoned != sb.Abandoned {
			t.Errorf("%s: counts differ across shard counts: %+v vs %+v", sa.Name, sa, sb)
		}
		pairs := [][2]Dist{
			{sa.EnergyJ, sb.EnergyJ}, {sa.QoE, sb.QoE},
			{sa.RebufferSec, sb.RebufferSec}, {sa.Switches, sb.Switches},
		}
		for _, p := range pairs {
			if rel := math.Abs(p[0].Mean - p[1].Mean); rel > 1e-9*(1+math.Abs(p[0].Mean)) {
				t.Errorf("%s: mean differs across shard counts: %v vs %v", sa.Name, p[0].Mean, p[1].Mean)
			}
			if p[0].Min != p[1].Min || p[0].Max != p[1].Max {
				t.Errorf("%s: min/max differ across shard counts", sa.Name)
			}
		}
	}
}

func TestRunRoundRobinCounts(t *testing.T) {
	traces := testTraces(t)
	res, err := Run(Config{Traces: traces, Sessions: 10, Seed: 1, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Algorithms) != 4 {
		t.Fatalf("got %d algorithms, want the 4 defaults", len(res.Algorithms))
	}
	var total int64
	for i, s := range res.Algorithms {
		want := int64(10 / 4)
		if i < 10%4 {
			want++
		}
		if s.Sessions != want {
			t.Errorf("%s ran %d sessions, want %d", s.Name, s.Sessions, want)
		}
		total += s.Sessions
	}
	if total != 10 {
		t.Errorf("total sessions %d, want 10", total)
	}
}

func TestRunAbandonmentCertain(t *testing.T) {
	traces := testTraces(t)
	// ThresholdSec 5 keeps the download paced close to playback, so
	// every session's playback reaches its quit point while the
	// download loop is still live (with the default 30 s threshold a
	// short video can be fully buffered before the viewer quits, which
	// the simulator reports as a completed session).
	res, err := Run(Config{Traces: traces, Sessions: 8, Seed: 5, Shards: 2, AbandonProb: 1, ThresholdSec: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Algorithms {
		if s.Abandoned != s.Sessions {
			t.Errorf("%s: %d of %d sessions abandoned, want all", s.Name, s.Abandoned, s.Sessions)
		}
	}
}

func TestRunValidation(t *testing.T) {
	traces := testTraces(t)
	cases := []Config{
		{Traces: traces}, // no sessions
		{Sessions: 4},    // no traces
		{Traces: traces, Sessions: 4, AbandonProb: 1.5},   // bad probability
		{Traces: traces, Sessions: 4, VibrationJitter: 1}, // bad jitter
		{Traces: traces, Sessions: 4, OutageProb: -0.1},   // bad outage probability
		{Traces: traces, Sessions: 4, OutageProb: 0.5, // bad outage process
			Outage: netsim.OutageConfig{MeanUpSec: -1, MeanDownSec: 2}},
	}
	for i, cfg := range cases {
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d: expected a validation error", i)
		}
	}
}

// TestRunStreamsGolden pins one small campaign's outcome bit for bit.
// Every input the per-session streams decide — trace choice, abandon
// gate and point, vibration scale, outage gate and outage seed — lands
// in these figures, so they move if any session's stream does.
func TestRunStreamsGolden(t *testing.T) {
	res, err := Run(Config{
		Traces:   testTraces(t),
		Sessions: 24,
		Seed:     42,
		Shards:   2,
		Algorithms: []AlgorithmSpec{
			{Name: "Youtube", New: func() (abr.Algorithm, error) { return abr.NewYoutube(), nil }},
			{Name: "Fixed1", New: func() (abr.Algorithm, error) { return &abr.Fixed{Rung: 1}, nil }},
		},
		AbandonProb:     0.3,
		VibrationJitter: 0.3,
		OutageProb:      0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	var got []float64
	for _, a := range res.Algorithms {
		got = append(got, float64(a.Abandoned), float64(a.OutageSessions), float64(a.Outages),
			a.EnergyJ.Mean, a.QoE.Mean, a.OutageSec.Mean)
	}
	want := []float64{2, 2, 3, 138.3387181421949, 4.188062225922081, 2.9616921028365724, 0, 3, 9, 69.63932438762247, 1.7361042601518457, 4.154140415510294}
	if len(got) != len(want) {
		t.Fatalf("figures = %#v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("figure %d = %v, want %v (all: %#v)", i, got[i], want[i], got)
		}
	}
}

// TestSessionMetricsDigest pins every field of every session in the
// benchmark's campaign batch (perfbench's campaign workload: the
// Table V traces, the default policies, seed 1, 480 sessions with
// abandonment, vibration jitter and outages on). The campaign goldens
// aggregate only energy, QoE, rebuffering, switches and outage time, so
// a change to any other per-session figure — DownloadedMB, WastedMB,
// MeanBitrateMbps — would pass them. Here each session's sim.Metrics
// is hashed field by field in session order, floats by their bits; a
// field added to or deleted from sim.Metrics moves the constant on its
// own.
func TestSessionMetricsDigest(t *testing.T) {
	pm, qm := power.EvalModel(), qoe.Default()
	traces, err := trace.GenerateTableV(pm.NominalThroughputMBps)
	if err != nil {
		t.Fatal(err)
	}
	algos, err := DefaultAlgorithms(pm, qm, core.DefaultAlpha)
	if err != nil {
		t.Fatal(err)
	}
	f, err := newFleet(Config{
		Traces:          traces,
		Algorithms:      algos,
		Sessions:        480,
		Seed:            1,
		Shards:          1,
		AbandonProb:     0.25,
		VibrationJitter: 0.3,
		OutageProb:      0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	for u := 0; u < f.cfg.Sessions; u++ {
		m, err := f.session(u)
		if err != nil {
			t.Fatal(err)
		}
		v := reflect.ValueOf(*m)
		for i := 0; i < v.NumField(); i++ {
			switch fv := v.Field(i); fv.Kind() {
			case reflect.Float64:
				put(math.Float64bits(fv.Float()))
			case reflect.Int:
				put(uint64(fv.Int()))
			case reflect.Bool:
				if fv.Bool() {
					put(1)
				} else {
					put(0)
				}
			case reflect.String:
				put(uint64(fv.Len()))
				h.Write([]byte(fv.String()))
			case reflect.Slice:
				// Metrics-only sessions keep no segment log.
				if fv.Len() != 0 {
					t.Fatalf("session %d: %s holds %d entries in a metrics-only session", u, v.Type().Field(i).Name, fv.Len())
				}
				put(0)
			default:
				t.Fatalf("sim.Metrics.%s: kind %s is not hashed; extend the digest", v.Type().Field(i).Name, fv.Kind())
			}
		}
	}
	const want = uint64(0x940bd55cd36d16e0)
	if got := h.Sum64(); got != want {
		t.Errorf("digest of %d sessions = %#016x, want %#016x", f.cfg.Sessions, got, want)
	}
}
