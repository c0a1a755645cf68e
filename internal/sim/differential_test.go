package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"ecavs/internal/abr"
	"ecavs/internal/core"
	"ecavs/internal/dash"
	"ecavs/internal/netsim"
	"ecavs/internal/power"
	"ecavs/internal/qoe"
	"ecavs/internal/trace"
)

// sameMetrics reports whether a and b are equal, every float by value
// and by its printed shortest form, which also tells −0 from +0.
func sameMetrics(a, b *Metrics) bool {
	return reflect.DeepEqual(a, b) && fmt.Sprint(*a) == fmt.Sprint(*b)
}

// Knob bits of a differential case; the low five bits pick the link
// kind (bits 0–1) and the policy (bits 2–4).
const (
	knobOutage uint32 = 1 << (5 + iota)
	knobRamp
	knobRRC
	knobHysteresis
	knobQuit
	knobVibScale
	knobMetricsOnly
	knobRungTable
	knobThreshold
	knobCount = 9
)

// diffPolicies builds each policy a differential case can run: every
// campaign.DefaultAlgorithms policy (Youtube, FESTIVE, BBA and the
// paper's Online at core.DefaultAlpha) plus BOLA and MPC.
var diffPolicies = []func(obj core.Objective) abr.Algorithm{
	func(core.Objective) abr.Algorithm { return abr.NewYoutube() },
	func(core.Objective) abr.Algorithm { return abr.NewFESTIVE() },
	func(core.Objective) abr.Algorithm { return abr.NewBBA() },
	func(obj core.Objective) abr.Algorithm { return core.NewOnline(obj) },
	func(core.Objective) abr.Algorithm { return abr.NewBOLA() },
	func(core.Objective) abr.Algorithm { return abr.NewMPC() },
}

// diffTraces are the Table V traces re-seeded, eight of each, cut to
// 30–90 s so a session runs in milliseconds.
var diffTraces = sync.OnceValue(func() []*trace.Trace {
	pm := power.EvalModel()
	var trs []*trace.Trace
	for i, spec := range trace.TableVSpecs() {
		for k := 0; k < 8; k++ {
			sp := spec
			sp.Seed = int64(7919*i + 104729*k + 1)
			sp.LengthSec = float64(30 + 10*((i+k)%7))
			sp.DataSizeMB = spec.DataSizeMB * sp.LengthSec / spec.LengthSec
			tr, err := trace.Generate(sp, pm.NominalThroughputMBps)
			if err != nil {
				panic(err)
			}
			trs = append(trs, tr)
		}
	}
	return trs
})

var diffObjective = sync.OnceValue(func() core.Objective {
	obj, err := core.NewObjective(core.DefaultAlpha, power.EvalModel(), qoe.Default())
	if err != nil {
		panic(err)
	}
	return obj
})

// diffCase returns a builder of one session's Config, fresh link and
// algorithm on each call, from a seed and knob bits. The link is a
// re-seeded Table V trace, an OU channel or a Gilbert–Elliott link
// whose bad state may be dead for longer than the 120 s guard; each
// knob turns one session option on, with parameters drawn from seed.
func diffCase(seed uint64, knobs uint32) (func() Config, error) {
	r := rand.New(rand.NewSource(int64(seed)))
	pm, qm := power.EvalModel(), qoe.Default()
	newAlg := diffPolicies[int(knobs>>2&7)%len(diffPolicies)]
	base := Config{Power: pm, QoE: qm}
	var newLink func() netsim.Link
	switch knobs & 3 % 3 {
	case 0:
		trs := diffTraces()
		tr := trs[r.Intn(len(trs))]
		comp, err := tr.Compiled()
		if err != nil {
			return nil, err
		}
		if base.Manifest, err = ManifestForTrace(tr, dash.EvalLadder()); err != nil {
			return nil, err
		}
		base.VibrationAt = comp.Vibration(0)
		newLink = func() netsim.Link { return comp.Link() }
	case 1:
		signal := netsim.RoomSignal
		if r.Intn(2) == 0 {
			signal = netsim.VehicleSignal
		}
		chSeed := r.Int63()
		newLink = func() netsim.Link {
			ch, _ := netsim.NewChannel(signal, pm.NominalThroughputMBps, chSeed)
			return ch
		}
	default:
		cfg := netsim.DefaultGilbertElliott()
		cfg.MeanGoodSec, cfg.MeanBadSec = 2+40*r.Float64(), 1+40*r.Float64()
		if r.Intn(2) == 0 {
			cfg.BadRateMBps = 0
		}
		geSeed := r.Int63()
		newLink = func() netsim.Link {
			g, _ := netsim.NewGilbertElliott(cfg, geSeed)
			return g
		}
	}
	if base.Manifest == nil {
		video := dash.Video{Title: "diff", SpatialInfo: 45, TemporalInfo: 15, DurationSec: float64(20 + r.Intn(70))}
		segSec := []float64{1, 2, 2, 3.7, 4}[r.Intn(5)]
		var err error
		base.Manifest, err = dash.NewManifest(video, dash.TableIILadder(), dash.ManifestConfig{SegmentSec: segSec, VBRJitter: 0.3 * r.Float64(), Seed: r.Int63()})
		if err != nil {
			return nil, err
		}
		if r.Intn(2) == 0 {
			phase := r.Float64()
			base.VibrationAt = func(t float64) float64 { return 4 + 3*math.Sin(t/7+phase) }
		}
	}
	if knobs&knobOutage != 0 {
		base.Outage = &netsim.OutageConfig{
			MeanUpSec:    3 + 60*r.Float64(),
			MeanDownSec:  0.5 + 15*r.Float64(),
			DownRateFrac: []float64{0, 0.05, 0.3}[r.Intn(3)],
			SignalDropDB: 20 * r.Float64(),
			Seed:         r.Int63(),
		}
	}
	if knobs&knobRamp != 0 {
		base.TCPRampSec = 0.05 + 2*r.Float64()
	}
	if knobs&knobRRC != 0 {
		rrc := power.DefaultRRC()
		base.RRC = &rrc
	}
	if knobs&knobThreshold != 0 {
		base.BufferThresholdSec = 4 + 40*r.Float64()
	}
	if knobs&knobHysteresis != 0 {
		threshold := base.BufferThresholdSec
		if threshold <= 0 {
			threshold = 30
		}
		base.ResumeThresholdSec = threshold * (0.2 + 0.75*r.Float64())
	}
	if knobs&knobQuit != 0 {
		base.AbandonAtSec = base.Manifest.Video().DurationSec * (0.05 + 0.9*r.Float64())
	}
	if knobs&knobVibScale != 0 {
		base.VibrationScale = 0.3 + 2*r.Float64()
	}
	base.MetricsOnly = knobs&knobMetricsOnly != 0
	if knobs&knobRungTable != 0 {
		base.RungQoE = qm.CompileRungs(base.Manifest.Ladder().Bitrates())
	}
	return func() Config {
		cfg := base
		cfg.Link = newLink()
		cfg.Algorithm = newAlg(diffObjective())
		return cfg
	}, nil
}

// checkRunMatchesStepper runs one case through Run and the reference
// stepper, and fails unless both return the same metrics and error.
func checkRunMatchesStepper(tb testing.TB, seed uint64, knobs uint32) error {
	tb.Helper()
	mk, err := diffCase(seed, knobs)
	if err != nil {
		tb.Fatal(err)
	}
	got, err := Run(mk())
	want, errWant := runStepper(mk())
	if fmt.Sprint(err) != fmt.Sprint(errWant) {
		tb.Fatalf("seed %d knobs %#x: Run error %v, stepper error %v", seed, knobs, err, errWant)
	}
	if err == nil && !sameMetrics(got, want) {
		tb.Fatalf("seed %d knobs %#x: Run and the stepper differ\n run:  %+v\n step: %+v", seed, knobs, *got, *want)
	}
	return err
}

// TestRunMatchesStepper runs 2,000 random sessions through Run and the
// reference stepper and requires the same metrics, bit for bit, and the
// same errors. Every knob is on in about half the cases, and each of
// the three link kinds meets each policy with full logs and with
// metrics only.
func TestRunMatchesStepper(t *testing.T) {
	const cases = 2000
	r := rand.New(rand.NewSource(28))
	var on [knobCount]int
	seen := map[uint32]bool{}
	stalled := 0
	for i := 0; i < cases; i++ {
		knobs := r.Uint32() & (1<<(5+knobCount) - 1)
		if err := checkRunMatchesStepper(t, uint64(i), knobs); errors.Is(err, netsim.ErrStalledLink) {
			stalled++
		}
		for k := range on {
			if knobs&(knobOutage<<k) != 0 {
				on[k]++
			}
		}
		seen[knobs&3%3|(knobs>>2&7)%uint32(len(diffPolicies))<<2|knobs&knobMetricsOnly] = true
	}
	for k, n := range on {
		if n == 0 || n == cases {
			t.Errorf("knob %d on in %d of %d cases", k, n, cases)
		}
	}
	if want := 3 * len(diffPolicies) * 2; len(seen) != want {
		t.Errorf("%d link × policy × log combinations ran, want %d", len(seen), want)
	}
	if stalled == 0 {
		t.Error("no case reached the dead-link guard")
	}
}

// FuzzRunMatchesStepper is TestRunMatchesStepper's check on fuzzed
// cases. The seed corpus runs each link kind and each policy, with
// every knob off, every knob on, and alternate knobs, and one
// Gilbert–Elliott link that stays dead past the 120 s guard.
func FuzzRunMatchesStepper(f *testing.F) {
	all := uint32(1<<knobCount-1) << 5
	patterns := []uint32{0, all, all & 0x5555_5555, all & 0xAAAA_AAAA}
	for i := 0; i < 3*len(diffPolicies); i++ {
		f.Add(uint64(i), uint32(i%3)|uint32(i%len(diffPolicies))<<2|patterns[i%len(patterns)])
	}
	f.Add(uint64(178), uint32(2))
	f.Fuzz(func(t *testing.T, seed uint64, knobs uint32) {
		checkRunMatchesStepper(t, seed, knobs)
	})
}
