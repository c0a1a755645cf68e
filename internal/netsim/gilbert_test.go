package netsim

import (
	"testing"
)

func TestGilbertElliottValidation(t *testing.T) {
	cases := []func(*GilbertElliottConfig){
		func(c *GilbertElliottConfig) { c.GoodRateMBps = 0 },
		func(c *GilbertElliottConfig) { c.BadRateMBps = -1 },
		func(c *GilbertElliottConfig) { c.BadRateMBps = c.GoodRateMBps },
		func(c *GilbertElliottConfig) { c.MeanGoodSec = 0 },
		func(c *GilbertElliottConfig) { c.MeanBadSec = -2 },
	}
	for i, mut := range cases {
		cfg := DefaultGilbertElliott()
		mut(&cfg)
		if _, err := NewGilbertElliott(cfg, 1); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if err := DefaultGilbertElliott().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGilbertElliottStartsGood(t *testing.T) {
	g, err := NewGilbertElliott(DefaultGilbertElliott(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.bad {
		t.Error("channel started in the bad state")
	}
	if g.ThroughputMBps() != 25.0/8 || g.SignalDBm() != -92 {
		t.Errorf("good-state readings wrong: %v MB/s at %v dBm", g.ThroughputMBps(), g.SignalDBm())
	}
}

func TestGilbertElliottVisitsBothStates(t *testing.T) {
	g, err := NewGilbertElliott(DefaultGilbertElliott(), 7)
	if err != nil {
		t.Fatal(err)
	}
	var goodSec, badSec float64
	const step = 0.5
	for i := 0; i < 4000; i++ { // 2000 simulated seconds
		if g.bad {
			badSec += step
		} else {
			goodSec += step
		}
		g.Advance(step)
	}
	if badSec == 0 || goodSec == 0 {
		t.Fatalf("states not both visited: good %.0f s, bad %.0f s", goodSec, badSec)
	}
	// Long-run occupancy approaches MeanGood/(MeanGood+MeanBad) ≈ 0.85.
	frac := goodSec / (goodSec + badSec)
	if frac < 0.7 || frac > 0.95 {
		t.Errorf("good-state occupancy = %.2f, want ≈ 0.85", frac)
	}
}

func TestGilbertElliottDeterministicBySeed(t *testing.T) {
	a, _ := NewGilbertElliott(DefaultGilbertElliott(), 42)
	b, _ := NewGilbertElliott(DefaultGilbertElliott(), 42)
	for i := 0; i < 500; i++ {
		a.Advance(0.3)
		b.Advance(0.3)
		if a.bad != b.bad {
			t.Fatal("channels with equal seeds diverged")
		}
	}
}

func TestGilbertElliottClockAdvances(t *testing.T) {
	g, _ := NewGilbertElliott(DefaultGilbertElliott(), 3)
	g.Advance(100)
	if !almostEqual(g.Now(), 100, 1e-9) {
		t.Errorf("Now = %v, want 100", g.Now())
	}
	g.Advance(0)
	g.Advance(-5)
	if !almostEqual(g.Now(), 100, 1e-9) {
		t.Error("non-positive Advance moved the clock")
	}
}
