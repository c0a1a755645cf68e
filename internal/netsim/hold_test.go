package netsim

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// holdCases build each Link kind from a seed, twice over the same seed
// giving two links in the same state. Trace points land on and off the
// 0.1 s grid, repeat timestamps and include dead rates; the sojourns
// are short, so states flip within a few runs.
var holdCases = []struct {
	name string
	make func(seed int64) Link
}{
	{"trace", func(seed int64) Link { return holdTrace(seed) }},
	{"outage/trace", func(seed int64) Link { return holdOutage(holdTrace(seed), seed) }},
	{"outage/channel", func(seed int64) Link { return holdOutage(holdChannel(seed), seed) }},
	{"channel", func(seed int64) Link { return holdChannel(seed) }},
	{"gilbert", func(seed int64) Link {
		r := rand.New(rand.NewSource(seed))
		cfg := DefaultGilbertElliott()
		cfg.MeanGoodSec, cfg.MeanBadSec = 0.05+3*r.Float64(), 0.05+2*r.Float64()
		if r.Intn(3) == 0 {
			cfg.BadRateMBps = 0
		}
		g, err := NewGilbertElliott(cfg, seed)
		if err != nil {
			panic(err)
		}
		return g
	}},
}

func holdTrace(seed int64) *TraceLink {
	r := rand.New(rand.NewSource(seed))
	gaps := []float64{0, 0.1, 0.25, 1, 1, 1, 2.05}
	pts := make([]TracePoint, 2+r.Intn(60))
	for i := range pts {
		if i > 0 {
			pts[i].TimeSec = pts[i-1].TimeSec + gaps[r.Intn(len(gaps))]
		}
		pts[i].SignalDBm = -80 - 40*r.Float64()
		if r.Intn(8) > 0 {
			pts[i].ThroughputMBps = 3 * r.Float64()
		}
	}
	l, err := ReplayTraceLink(pts)
	if err != nil {
		panic(err)
	}
	return l
}

func holdChannel(seed int64) *Channel {
	ch, err := NewChannel(VehicleSignal, flatRate(2), seed)
	if err != nil {
		panic(err)
	}
	return ch
}

func holdOutage(l Link, seed int64) *OutageLink {
	r := rand.New(rand.NewSource(^seed))
	o, err := WithOutages(l, OutageConfig{
		MeanUpSec:    0.05 + 4*r.Float64(),
		MeanDownSec:  0.05 + 2*r.Float64(),
		DownRateFrac: 0.5 * r.Float64(),
		SignalDropDB: 20 * r.Float64(),
		Seed:         seed,
	})
	if err != nil {
		panic(err)
	}
	return o
}

// sameLink reports whether a and b read bit-equal clocks, rates and,
// for outage links, outage counts and down time.
func sameLink(a, b Link) bool {
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if !eq(a.Now(), b.Now()) || !eq(a.ThroughputMBps(), b.ThroughputMBps()) || !eq(a.SignalDBm(), b.SignalDBm()) {
		return false
	}
	if oa, ok := a.(*OutageLink); ok {
		ca, sa := oa.Outages()
		cb, sb := b.(*OutageLink).Outages()
		return ca == cb && eq(sa, sb)
	}
	return true
}

// TestLinkHoldContract checks the run contract on every Link from
// random states: for each k < n, the rates after k calls of Advance(dt)
// are the th and sig Hold returned, with 1 ≤ n ≤ limit, and
// AdvanceSteps(n, dt) leaves the clock, both rates and the outage
// record bit-equal to n calls of Advance(dt). One link of each pair
// only holds and runs, the other only steps, so a Hold that moved
// state or drew from a random stream would split them.
func TestLinkHoldContract(t *testing.T) {
	dts := []float64{0.1, 0.1, 0.1, 0.05, 0.3, 1, 0, -0.1}
	for _, c := range holdCases {
		t.Run(c.name, func(t *testing.T) {
			long := 0
			for seed := int64(0); seed < 150; seed++ {
				r := rand.New(rand.NewSource(seed))
				runs, steps := c.make(seed), c.make(seed)
				for i := r.Intn(40); i > 0; i-- { // a random state
					dt := 0.5 * r.Float64()
					runs.Advance(dt)
					steps.Advance(dt)
				}
				for round := 0; round < 30; round++ {
					dt := dts[r.Intn(len(dts))]
					limit := 1 + r.Intn(300)
					n, th, sig := runs.Hold(dt, limit)
					if n < 1 || n > limit {
						t.Fatalf("seed %d round %d: Hold(%v, %d) n = %d", seed, round, dt, limit, n)
					}
					if n > 1 && dt > 0 {
						long++
					}
					for k := 0; k < n; k++ {
						if steps.ThroughputMBps() != th || steps.SignalDBm() != sig {
							t.Fatalf("seed %d round %d: after %d of %d steps of %v: rates (%v, %v), Hold said (%v, %v)",
								seed, round, k, n, dt, steps.ThroughputMBps(), steps.SignalDBm(), th, sig)
						}
						steps.Advance(dt)
					}
					runs.AdvanceSteps(n, dt)
					if !sameLink(runs, steps) {
						t.Fatalf("seed %d round %d: AdvanceSteps(%d, %v) differs from %d Advance calls: now %v / %v",
							seed, round, n, dt, n, runs.Now(), steps.Now())
					}
				}
			}
			// A channel redraws its rates every step, so only the
			// links without one hold for longer.
			if !strings.Contains(c.name, "channel") && long == 0 {
				t.Error("no hold spanned more than one step: the check is vacuous")
			}
		})
	}
}

// The hold is as long as the link can tell: a trace link holds up to
// its next point, and to the limit past its last one.
func TestTraceLinkHoldReachesNextPoint(t *testing.T) {
	link, err := ReplayTraceLink([]TracePoint{
		{TimeSec: 0, SignalDBm: -90, ThroughputMBps: 2},
		{TimeSec: 1, SignalDBm: -100, ThroughputMBps: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Ten additions of 0.1 sum to 0.9999999999999999, short of the
	// point at 1 s, so eleven steps start before it.
	if n, th, sig := link.Hold(0.1, 100); n != 11 || th != 2 || sig != -90 {
		t.Errorf("Hold = (%d, %v, %v), want (11, 2, -90)", n, th, sig)
	}
	if n, _, _ := link.Hold(0.1, 4); n != 4 {
		t.Errorf("Hold with limit 4: n = %d", n)
	}
	link.AdvanceSteps(11, 0.1)
	if n, th, _ := link.Hold(0.1, 100); n != 100 || th != 1 {
		t.Errorf("Hold past the last point = (%d, %v), want (100, 1)", n, th)
	}
}

// A state ending exactly on a step boundary flips on that step, so a
// Gilbert–Elliott or outage hold stops before it: with 0.25 s left in
// the state and steps of 0.125 s (both exact in binary), the second
// step flips the state, and only the first two calls start in it.
func TestHoldEndsAtExactSojourn(t *testing.T) {
	g, err := NewGilbertElliott(DefaultGilbertElliott(), 1)
	if err != nil {
		t.Fatal(err)
	}
	g.left = 0.25
	o, err := WithOutages(&steadyLink{signal: -90, rate: 2}, OutageConfig{MeanUpSec: 1, MeanDownSec: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	o.left = 0.25
	for _, l := range []Link{g, o} {
		n, th, _ := l.Hold(0.125, 10)
		if n != 2 {
			t.Errorf("%T: Hold n = %d, want 2", l, n)
		}
		l.AdvanceSteps(2, 0.125)
		if l.ThroughputMBps() == th {
			t.Errorf("%T: the state did not flip on the second step", l)
		}
	}
}
