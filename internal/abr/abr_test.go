package abr

import (
	"errors"
	"testing"

	"ecavs/internal/dash"
)

func ctxWith(t *testing.T, mut func(*Context)) Context {
	t.Helper()
	ctx := Context{
		SegmentIndex:       5,
		Ladder:             dash.EvalLadder(),
		SegmentDurationSec: 2,
		PrevRung:           -1,
		BufferSec:          10,
		BufferThresholdSec: 30,
		SignalDBm:          -95,
	}
	if mut != nil {
		mut(&ctx)
	}
	return ctx
}

func TestYoutubeAlwaysTopRung(t *testing.T) {
	y := NewYoutube()
	if y.Name() != "Youtube" {
		t.Errorf("Name = %q", y.Name())
	}
	ctx := ctxWith(t, nil)
	for i := 0; i < 5; i++ {
		rung, err := y.ChooseRung(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if rung != len(ctx.Ladder)-1 {
			t.Errorf("rung = %d, want top %d", rung, len(ctx.Ladder)-1)
		}
		y.ObserveDownload(0.1) // must not affect the choice
	}
}

func TestFixedSpecificRung(t *testing.T) {
	f := &Fixed{Rung: 3}
	if f.Name() != "Fixed(3)" {
		t.Errorf("Name = %q", f.Name())
	}
	rung, err := f.ChooseRung(ctxWith(t, nil))
	if err != nil || rung != 3 {
		t.Errorf("rung = %d, %v; want 3", rung, err)
	}
	// Out-of-range fixed rung falls back to top.
	f = &Fixed{Rung: 99}
	rung, err = f.ChooseRung(ctxWith(t, nil))
	if err != nil || rung != 13 {
		t.Errorf("rung = %d, %v; want 13", rung, err)
	}
	f.Reset() // no-op, must not panic
}

func TestFixedEmptyLadder(t *testing.T) {
	f := NewYoutube()
	if _, err := f.ChooseRung(Context{}); !errors.Is(err, ErrEmptyContext) {
		t.Errorf("err = %v, want ErrEmptyContext", err)
	}
}

func TestRateBased(t *testing.T) {
	r := NewRateBased()
	if r.Name() != "RateBased" {
		t.Errorf("Name = %q", r.Name())
	}
	// Before any sample: lowest rung.
	rung, err := r.ChooseRung(ctxWith(t, nil))
	if err != nil || rung != 0 {
		t.Errorf("startup rung = %d, %v; want 0", rung, err)
	}
	r.ObserveDownload(3.1)
	rung, err = r.ChooseRung(ctxWith(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	if got := ctxWith(t, nil).Ladder[rung].BitrateMbps; got != 3.0 {
		t.Errorf("rung bitrate = %v, want 3.0 (highest below 3.1)", got)
	}
	r.Reset()
	rung, _ = r.ChooseRung(ctxWith(t, nil))
	if rung != 0 {
		t.Errorf("rung after Reset = %d, want 0", rung)
	}
	if _, err := r.ChooseRung(Context{}); !errors.Is(err, ErrEmptyContext) {
		t.Errorf("err = %v, want ErrEmptyContext", err)
	}
}

func TestFESTIVEStartupAndEstimate(t *testing.T) {
	f := NewFESTIVE()
	if f.Name() != "FESTIVE" {
		t.Errorf("Name = %q", f.Name())
	}
	// Startup: bottom rung.
	rung, err := f.ChooseRung(ctxWith(t, nil))
	if err != nil || rung != 0 {
		t.Errorf("startup rung = %d, %v; want 0", rung, err)
	}
	// Feed stable 6 Mbps throughput; estimate approaches 6, so the
	// target is 5.8, reached gradually one rung at a time.
	prev := 0
	for i := 0; i < 20; i++ {
		f.ObserveDownload(6.0)
		ctx := ctxWith(t, func(c *Context) { c.PrevRung = prev })
		rung, err = f.ChooseRung(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if rung > prev+1 {
			t.Fatalf("jumped %d -> %d, gradual switching violated", prev, rung)
		}
		prev = rung
	}
	if got := ctxWith(t, nil).Ladder[prev].BitrateMbps; got != 5.8 {
		t.Errorf("steady-state bitrate = %v, want 5.8", got)
	}
}

func TestFESTIVEHarmonicMeanDampsSpikes(t *testing.T) {
	f := NewFESTIVE()
	// Mostly 1 Mbps with one huge spike: harmonic mean stays low.
	for i := 0; i < 19; i++ {
		f.ObserveDownload(1.0)
	}
	f.ObserveDownload(100.0)
	rung, err := f.ChooseRung(ctxWith(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	if got := ctxWith(t, nil).Ladder[rung].BitrateMbps; got > 1.0 {
		t.Errorf("bitrate after spike = %v, want <= 1.0", got)
	}
}

// FESTIVE's harmonic mean covers the last 20 throughputs: a slow
// sample drags the estimate down until 20 newer ones evict it.
func TestFESTIVEWindowEviction(t *testing.T) {
	f := NewFESTIVE()
	f.ObserveDownload(0.2)
	bitrate := func() float64 {
		t.Helper()
		rung, err := f.ChooseRung(ctxWith(t, nil))
		if err != nil {
			t.Fatal(err)
		}
		return ctxWith(t, nil).Ladder[rung].BitrateMbps
	}
	for i := 0; i < 19; i++ {
		f.ObserveDownload(4.0)
	}
	if got := bitrate(); got >= 3.6 {
		t.Errorf("bitrate with the 0.2 sample in the window = %v, want below 3.6", got)
	}
	f.ObserveDownload(4.0) // the 20th newer sample evicts the 0.2
	if got := bitrate(); got != 3.6 {
		t.Errorf("bitrate = %v, want 3.6 (highest below 4.0)", got)
	}
}

func TestFESTIVEGradualDown(t *testing.T) {
	f := NewFESTIVE()
	for i := 0; i < 20; i++ {
		f.ObserveDownload(0.3)
	}
	ctx := ctxWith(t, func(c *Context) { c.PrevRung = 10 })
	rung, err := f.ChooseRung(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rung != 9 {
		t.Errorf("rung = %d, want 9 (one step down)", rung)
	}
}

func TestFESTIVEReset(t *testing.T) {
	f := NewFESTIVE()
	f.ObserveDownload(6)
	f.Reset()
	rung, err := f.ChooseRung(ctxWith(t, nil))
	if err != nil || rung != 0 {
		t.Errorf("rung after Reset = %d, %v; want 0", rung, err)
	}
	if _, err := f.ChooseRung(Context{}); !errors.Is(err, ErrEmptyContext) {
		t.Errorf("err = %v, want ErrEmptyContext", err)
	}
}

func TestBBAStartupFollowsThroughput(t *testing.T) {
	b := NewBBA()
	if b.Name() != "BBA" {
		t.Errorf("Name = %q", b.Name())
	}
	// Empty buffer, no sample: lowest.
	ctx := ctxWith(t, func(c *Context) { c.BufferSec = 0 })
	rung, err := b.ChooseRung(ctx)
	if err != nil || rung != 0 {
		t.Errorf("rung = %d, %v; want 0", rung, err)
	}
	// Startup with an observed throughput: highest below it.
	b.ObserveDownload(2.5)
	ctx = ctxWith(t, func(c *Context) { c.BufferSec = 2 })
	rung, err = b.ChooseRung(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := ctx.Ladder[rung].BitrateMbps; got != 2.3 {
		t.Errorf("startup bitrate = %v, want 2.3", got)
	}
}

func TestBBASteadyStateMap(t *testing.T) {
	b := NewBBA()
	// Reach steady state: buffer above the reservoir (7.5 s of 30 s).
	ctx := ctxWith(t, func(c *Context) { c.BufferSec = 10 })
	if _, err := b.ChooseRung(ctx); err != nil {
		t.Fatal(err)
	}
	// Above the cushion (27 s): top rung — BBA's aggressive region.
	ctx = ctxWith(t, func(c *Context) { c.BufferSec = 28 })
	rung, err := b.ChooseRung(ctx)
	if err != nil || rung != 13 {
		t.Errorf("rung at full buffer = %d, %v; want 13", rung, err)
	}
	// Back below the reservoir: bottom rung (steady state persists).
	ctx = ctxWith(t, func(c *Context) { c.BufferSec = 5 })
	rung, err = b.ChooseRung(ctx)
	if err != nil || rung != 0 {
		t.Errorf("rung at low buffer = %d, %v; want 0", rung, err)
	}
	// Mid-cushion: intermediate rung, monotone in buffer.
	prev := -1
	for _, buf := range []float64{9, 12, 15, 18, 21, 24, 26} {
		ctx = ctxWith(t, func(c *Context) { c.BufferSec = buf })
		rung, err = b.ChooseRung(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if rung < prev {
			t.Errorf("BBA map not monotone at buffer %v", buf)
		}
		prev = rung
	}
}

func TestBBADefaultThreshold(t *testing.T) {
	b := NewBBA()
	// Zero threshold falls back to 30 s.
	ctx := ctxWith(t, func(c *Context) { c.BufferThresholdSec = 0; c.BufferSec = 29 })
	rung, err := b.ChooseRung(ctx)
	if err != nil || rung != 13 {
		t.Errorf("rung = %d, %v; want 13", rung, err)
	}
}

func TestBBAReset(t *testing.T) {
	b := NewBBA()
	ctx := ctxWith(t, func(c *Context) { c.BufferSec = 10 })
	if _, err := b.ChooseRung(ctx); err != nil {
		t.Fatal(err)
	}
	b.Reset()
	// After reset, startup phase again: no sample -> lowest even at
	// mid buffer below reservoir.
	ctx = ctxWith(t, func(c *Context) { c.BufferSec = 2 })
	rung, err := b.ChooseRung(ctx)
	if err != nil || rung != 0 {
		t.Errorf("rung after Reset = %d, %v; want 0", rung, err)
	}
	if _, err := b.ChooseRung(Context{}); !errors.Is(err, ErrEmptyContext) {
		t.Errorf("err = %v, want ErrEmptyContext", err)
	}
}
