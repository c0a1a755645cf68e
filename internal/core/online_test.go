package core

import (
	"errors"
	"math/rand"
	"testing"

	"ecavs/internal/abr"
	"ecavs/internal/dash"
	"ecavs/internal/netsim"
)

// onlineCtx builds a context over the eval ladder with nominal sizes.
func onlineCtx(mut func(*abr.Context)) abr.Context {
	ladder := dash.EvalLadder()
	sizes := make([]float64, len(ladder))
	for i, r := range ladder {
		sizes[i] = r.BitrateMbps / 8 * 2
	}
	ctx := abr.Context{
		SegmentIndex:       10,
		Ladder:             ladder,
		SegmentSizesMB:     sizes,
		SegmentDurationSec: 2,
		PrevRung:           -1,
		BufferSec:          25,
		BufferThresholdSec: 30,
		SignalDBm:          -100,
		VibrationLevel:     5,
	}
	if mut != nil {
		mut(&ctx)
	}
	return ctx
}

func newOnline(t *testing.T) *Online {
	t.Helper()
	return NewOnline(testObjective(t, DefaultAlpha))
}

func TestOnlineName(t *testing.T) {
	if got := newOnline(t).Name(); got != "Ours" {
		t.Errorf("Name = %q, want Ours", got)
	}
}

func TestOnlineStartupAtBottom(t *testing.T) {
	o := newOnline(t)
	rung, err := o.ChooseRung(onlineCtx(nil))
	if err != nil || rung != 0 {
		t.Errorf("startup rung = %d, %v; want 0", rung, err)
	}
	// Even with an estimate, PrevRung = -1 keeps startup at the bottom.
	o.ObserveDownload(20)
	rung, err = o.ChooseRung(onlineCtx(nil))
	if err != nil || rung != 0 {
		t.Errorf("first-segment rung = %d, %v; want 0", rung, err)
	}
}

func TestOnlineGradualIncrease(t *testing.T) {
	o := newOnline(t)
	o.ObserveDownload(30)
	// Quiet, strong-signal context: the reference is well above the
	// bottom, but the step is one rung at a time.
	ctx := onlineCtx(func(c *abr.Context) {
		c.PrevRung = 0
		c.SignalDBm = -88
		c.VibrationLevel = 0.2
	})
	rung, err := o.ChooseRung(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rung != 1 {
		t.Errorf("rung = %d, want 1 (gradual increase)", rung)
	}
}

func TestOnlineClimbsToReference(t *testing.T) {
	o := newOnline(t)
	o.ObserveDownload(40)
	prev := 0
	var last int
	for i := 0; i < 20; i++ {
		ctx := onlineCtx(func(c *abr.Context) {
			c.PrevRung = prev
			c.SignalDBm = -88
			c.VibrationLevel = 0.2
		})
		rung, err := o.ChooseRung(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if rung > prev+1 {
			t.Fatalf("jumped %d -> %d", prev, rung)
		}
		prev = rung
		last = rung
		o.ObserveDownload(40)
	}
	// Converged rung must be meaningfully above the bottom and below
	// the forced top (context-aware tradeoff).
	if last < 4 {
		t.Errorf("converged rung = %d, want >= 4 in a strong quiet context", last)
	}
}

func TestOnlineStepsDownUnderVibration(t *testing.T) {
	o := newOnline(t)
	o.ObserveDownload(15)
	// Previous at the top; vibrating weak-signal context wants less.
	ctx := onlineCtx(func(c *abr.Context) {
		c.PrevRung = 13
		c.SignalDBm = -112
		c.VibrationLevel = 6.8
	})
	rung, err := o.ChooseRung(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rung >= 13 {
		t.Errorf("rung = %d, want a decrease from 13", rung)
	}
	// With a healthy buffer the drop is the adjacent feasible rung,
	// not a crash to the reference.
	if rung < 10 {
		t.Errorf("rung = %d, dropped too aggressively with a 25 s buffer", rung)
	}
}

func TestOnlineDropsToReferenceWhenBufferStarved(t *testing.T) {
	o := newOnline(t)
	o.ObserveDownload(1.0) // ~1 Mbps estimate
	ctx := onlineCtx(func(c *abr.Context) {
		c.PrevRung = 13
		c.BufferSec = 0.01 // nothing buffered: no rung can finish in time
		c.SignalDBm = -112
		c.VibrationLevel = 6.8
	})
	rung, err := o.ChooseRung(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// No rung in (ref, prev] downloads within 0.01 s, so the algorithm
	// falls straight to the reference.
	refCtx := onlineCtx(func(c *abr.Context) {
		c.PrevRung = 13
		c.BufferSec = 0.01
		c.SignalDBm = -112
		c.VibrationLevel = 6.8
	})
	_ = refCtx
	if rung > 5 {
		t.Errorf("rung = %d, want the (low) reference under 1 Mbps", rung)
	}
}

func TestOnlineHoldsAtReference(t *testing.T) {
	o := newOnline(t)
	o.ObserveDownload(15)
	// Find the reference by walking down from the top until stable.
	prev := 13
	for i := 0; i < 20; i++ {
		ctx := onlineCtx(func(c *abr.Context) {
			c.PrevRung = prev
			c.SignalDBm = -110
			c.VibrationLevel = 6.5
		})
		rung, err := o.ChooseRung(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if rung == prev {
			return // reached and held the reference
		}
		prev = rung
		o.ObserveDownload(15)
	}
	t.Error("never stabilised at the reference rung")
}

func TestOnlineErrors(t *testing.T) {
	o := newOnline(t)
	if _, err := o.ChooseRung(abr.Context{}); !errors.Is(err, abr.ErrEmptyContext) {
		t.Errorf("err = %v, want ErrEmptyContext", err)
	}
	o.ObserveDownload(10)
	ctx := onlineCtx(func(c *abr.Context) {
		c.PrevRung = 3
		c.SegmentSizesMB = []float64{1} // wrong length
	})
	if _, err := o.ChooseRung(ctx); !errors.Is(err, ErrNoSizes) {
		t.Errorf("err = %v, want ErrNoSizes", err)
	}
}

func TestOnlineReset(t *testing.T) {
	o := newOnline(t)
	o.ObserveDownload(10)
	o.Reset()
	rung, err := o.ChooseRung(onlineCtx(func(c *abr.Context) { c.PrevRung = 5 }))
	if err != nil || rung != 0 {
		t.Errorf("rung after Reset = %d, %v; want 0 (no estimate)", rung, err)
	}
}

func TestOnlinePrevRungClamped(t *testing.T) {
	o := newOnline(t)
	o.ObserveDownload(10)
	ctx := onlineCtx(func(c *abr.Context) { c.PrevRung = 99 })
	if _, err := o.ChooseRung(ctx); err != nil {
		t.Errorf("out-of-range PrevRung not tolerated: %v", err)
	}
}

func TestOnlineWithCustomEstimator(t *testing.T) {
	o := NewOnline(testObjective(t, DefaultAlpha), WithEstimator(netsim.NewEWMAEstimator(0.5)))
	o.ObserveDownload(20)
	ctx := onlineCtx(func(c *abr.Context) { c.PrevRung = 0 })
	rung, err := o.ChooseRung(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rung != 1 {
		t.Errorf("rung = %d, want 1", rung)
	}
	// Nil estimator option is ignored.
	o2 := NewOnline(testObjective(t, DefaultAlpha), WithEstimator(nil))
	if _, err := o2.ChooseRung(onlineCtx(nil)); err != nil {
		t.Errorf("nil estimator broke the default: %v", err)
	}
}

// Cross-check: with gradual switching disabled, the online algorithm's
// choice must equal the direct argmin of its own objective, for random
// contexts.
func TestOnlineDirectMatchesScoreRungs(t *testing.T) {
	obj := testObjective(t, DefaultAlpha)
	rng := rand.New(rand.NewSource(71))
	ladder := dash.EvalLadder()
	for trial := 0; trial < 200; trial++ {
		bw := rng.Float64()*40 + 0.5
		o := NewOnline(obj, WithDirectReference())
		o.ObserveDownload(bw)
		ctx := onlineCtx(func(c *abr.Context) {
			c.PrevRung = rng.Intn(len(ladder))
			c.BufferSec = rng.Float64() * 30
			c.SignalDBm = -90 - rng.Float64()*25
			c.VibrationLevel = rng.Float64() * 7
		})
		got, err := o.ChooseRung(ctx)
		if err != nil {
			t.Fatal(err)
		}
		base := Candidate{
			DurationSec:     ctx.SegmentDurationSec,
			SignalDBm:       ctx.SignalDBm,
			BandwidthMbps:   bw,
			BufferSec:       ctx.BufferSec,
			Vibration:       ctx.VibrationLevel,
			PrevBitrateMbps: ladder[ctx.PrevRung].BitrateMbps,
		}
		costs, _, err := obj.ScoreRungs(base, ladder.Bitrates(), ctx.SegmentSizesMB)
		if err != nil {
			t.Fatal(err)
		}
		if want := ArgminCost(costs); got != want {
			t.Fatalf("trial %d: direct choice %d != argmin %d", trial, got, want)
		}
	}
}

// TestOnlineAlphaEndpoints pins what Eq. 11 reduces to at its weight
// endpoints: at alpha = 0 the reference rung is the one with the
// highest estimated QoE, and at alpha = 1 the one with the lowest
// estimated energy, ties going to the lower rung. The oracle is
// Objective.Estimate, which evaluates the model curves directly, not
// the compiled rung table Online scores with.
func TestOnlineAlphaEndpoints(t *testing.T) {
	objs := [2]Objective{testObjective(t, 0), testObjective(t, 1)}
	rng := rand.New(rand.NewSource(5))
	ladder := dash.EvalLadder()
	for trial := 0; trial < 4000; trial++ {
		bw := rng.Float64()*40 + 0.5
		ctx := onlineCtx(func(c *abr.Context) {
			c.PrevRung = rng.Intn(len(ladder))
			c.BufferSec = rng.Float64() * 30
			c.SignalDBm = -90 - rng.Float64()*25
			c.VibrationLevel = rng.Float64() * 7
		})
		for ai, obj := range objs {
			o := NewOnline(obj, WithDirectReference())
			o.ObserveDownload(bw)
			got, err := o.ChooseRung(ctx)
			if err != nil {
				t.Fatal(err)
			}
			est, _ := o.est.Estimate()
			want := 0
			var best float64
			for j, rep := range ladder {
				e := obj.Estimate(Candidate{
					BitrateMbps:     rep.BitrateMbps,
					SizeMB:          ctx.SegmentSizesMB[j],
					DurationSec:     ctx.SegmentDurationSec,
					SignalDBm:       ctx.SignalDBm,
					BandwidthMbps:   est,
					BufferSec:       ctx.BufferSec,
					Vibration:       ctx.VibrationLevel,
					PrevBitrateMbps: ladder[ctx.PrevRung].BitrateMbps,
				})
				score := e.QoE // alpha = 0 maximises QoE
				if ai == 1 {
					score = -e.EnergyJ // alpha = 1 minimises energy
				}
				if j == 0 || score > best {
					want, best = j, score
				}
			}
			if got != want {
				t.Fatalf("trial %d, alpha %v: rung %d, want %d", trial, obj.Alpha, got, want)
			}
		}
	}
}

// TestOnlineMonotoneInSignal pins a property the objective implies: a
// weaker signal makes every download dearer in radio energy, so
// weakening the signal by up to 10 dB never raises Online's rung, with
// or without gradual switching. Vibration has no such property while
// each decision's QoE terms are normalised by the top rung's QoE at
// that decision's own vibration (DESIGN.md §1); see
// TestReferenceMonotoneInVibrationFixedNormaliser.
func TestOnlineMonotoneInSignal(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ladder := dash.EvalLadder()
	for _, alpha := range []float64{0.1, 0.2, 0.5, 0.8, 0.9} {
		obj := testObjective(t, alpha)
		for trial := 0; trial < 3000; trial++ {
			var opts []OnlineOption
			if trial%2 == 1 {
				opts = append(opts, WithDirectReference())
			}
			bw := rng.Float64()*40 + 0.5
			ctx := onlineCtx(func(c *abr.Context) {
				c.PrevRung = rng.Intn(len(ladder))
				c.BufferSec = rng.Float64() * 30
				c.SignalDBm = -80 - rng.Float64()*40
				c.VibrationLevel = rng.Float64() * 7
			})
			weak := ctx
			weak.SignalDBm -= rng.Float64() * 10
			choose := func(c abr.Context) int {
				o := NewOnline(obj, opts...)
				o.ObserveDownload(bw)
				rung, err := o.ChooseRung(c)
				if err != nil {
					t.Fatal(err)
				}
				return rung
			}
			if got, want := choose(weak), choose(ctx); got > want {
				t.Fatalf("alpha %v trial %d: %.2f dBm picks rung %d, above %d at %.2f dBm (prev %d, buffer %.2f s, vibration %.2f, %.2f Mbps, direct %v)",
					alpha, trial, weak.SignalDBm, got, want, ctx.SignalDBm, ctx.PrevRung, ctx.BufferSec, ctx.VibrationLevel, bw, len(opts) > 0)
			}
		}
	}
}

// TestReferenceMonotoneInVibrationFixedNormaliser pins what does hold
// for vibration: with each decision's Eq. 11 normaliser held at a still
// phone (the top rung's energy and QoE at v = 0), raising the vibration
// by up to 3 m/s² never raises the reference rung, since vibration
// costs a higher rung more QoE. The production normaliser, the top
// rung's QoE at the decision's own vibration, raises it on the same
// draws, so the reversals come from the normaliser.
func TestReferenceMonotoneInVibrationFixedNormaliser(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ctx := onlineCtx(nil)
	bitrates, k := ctx.Ladder.Bitrates(), len(ctx.Ladder)
	q, costs := make([]float64, k), make([]float64, k)
	rises := 0
	for _, alpha := range []float64{0.1, 0.2, 0.5, 0.8, 0.9} {
		obj := testObjective(t, alpha)
		var sc taskScorer
		sc.init(obj, bitrates)
		fixed := func(task TaskObservation, p int) int {
			still := task
			still.Vibration = 0
			sc.beginTask(still)
			sc.qoeInto(p, q)
			ref := Estimate{EnergyJ: sc.energyJ[k-1], QoE: q[k-1]}
			sc.beginTask(task)
			sc.qoeInto(p, q)
			for j := range costs {
				costs[j] = obj.Cost(Estimate{EnergyJ: sc.energyJ[j], QoE: q[j]}, ref)
			}
			return ArgminCost(costs)
		}
		perTask := func(task TaskObservation, p int) int {
			sc.beginTask(task)
			sc.scoreInto(p, costs)
			return ArgminCost(costs)
		}
		alphaRises := 0
		for trial := 0; trial < 3000; trial++ {
			task := TaskObservation{
				SizesMB:       ctx.SegmentSizesMB,
				DurationSec:   ctx.SegmentDurationSec,
				BandwidthMbps: rng.Float64()*40 + 0.5,
				SignalDBm:     -80 - rng.Float64()*40,
				Vibration:     rng.Float64() * 7,
				BufferSec:     rng.Float64() * 30,
			}
			p := rng.Intn(k + 1) // k: no previous rung
			shaken := task
			shaken.Vibration += rng.Float64() * 3
			if got, want := fixed(shaken, p), fixed(task, p); got > want {
				t.Fatalf("alpha %v trial %d: vibration %.2f picks reference rung %d, above %d at %.2f (prev %d, buffer %.2f s, signal %.2f dBm, %.2f Mbps)",
					alpha, trial, shaken.Vibration, got, want, task.Vibration, p, task.BufferSec, task.SignalDBm, task.BandwidthMbps)
			}
			if perTask(shaken, p) > perTask(task, p) {
				alphaRises++
			}
		}
		t.Logf("alpha %v: the per-task normaliser raises the reference rung in %d of 3000 contexts", alpha, alphaRises)
		rises += alphaRises
	}
	if rises == 0 {
		t.Error("the per-task normaliser never raised the reference rung either, so these draws cannot show the normaliser's part")
	}
}

// An Online reused across sessions whose ladders are equal but freshly
// built, as an HTTP client's are from each MPD, keeps its compiled
// scorer: alternating two copies of one ladder allocates nothing and
// decides as a fresh instance does. A ladder with other bitrates still
// recompiles it.
func TestOnlineKeepsScorerAcrossEqualLadders(t *testing.T) {
	obj := testObjective(t, DefaultAlpha)
	ctxs := [2]abr.Context{onlineCtx(nil), onlineCtx(nil)}
	for i := range ctxs {
		c := &ctxs[i]
		c.PrevRung, c.SignalDBm, c.VibrationLevel = 11, float64(-85-30*i), float64(7*i)
	}
	fresh := func(ctx abr.Context) int {
		o := NewOnline(obj, WithDirectReference())
		o.ObserveDownload(15)
		rung, err := o.ChooseRung(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return rung
	}
	if &ctxs[0].Ladder[0] == &ctxs[1].Ladder[0] {
		t.Fatal("the contexts share one ladder")
	}
	want := [2]int{fresh(ctxs[0]), fresh(ctxs[1])}
	if want[0] == want[1] {
		t.Fatalf("both contexts pick rung %d; the check needs two answers", want[0])
	}

	o := NewOnline(obj, WithDirectReference())
	o.ObserveDownload(15)
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		rung, err := o.ChooseRung(ctxs[i%2])
		if err != nil {
			t.Fatal(err)
		}
		if rung != want[i%2] {
			t.Fatalf("decision %d picks rung %d, a fresh instance %d", i, rung, want[i%2])
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("alternating equal ladders allocates %.1f per decision, want 0", allocs)
	}

	other := ctxs[0]
	other.Ladder = dash.EvalLadder()
	for j := range other.Ladder {
		other.Ladder[j].BitrateMbps *= 1.1
	}
	if _, err := o.ChooseRung(other); err != nil {
		t.Fatal(err)
	}
	if !sameBitrates(other.Ladder, o.sc.bitrates) {
		t.Errorf("scorer kept bitrates %v for ladder %v", o.sc.bitrates, other.Ladder.Bitrates())
	}
}
