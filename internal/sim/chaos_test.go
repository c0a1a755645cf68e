package sim

import (
	"reflect"
	"testing"

	"ecavs/internal/abr"
	"ecavs/internal/core"
	"ecavs/internal/netsim"
	"ecavs/internal/power"
	"ecavs/internal/qoe"
)

// chaosAlgorithms builds a fresh instance of every ABR policy.
func chaosAlgorithms(t *testing.T) map[string]abr.Algorithm {
	t.Helper()
	obj, err := core.NewObjective(core.DefaultAlpha, power.EvalModel(), qoe.Default())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]abr.Algorithm{
		"Youtube": abr.NewYoutube(),
		"FESTIVE": abr.NewFESTIVE(),
		"BBA":     abr.NewBBA(),
		"BOLA":    abr.NewBOLA(),
		"MPC":     abr.NewMPC(),
		"Ours":    core.NewOnline(obj),
	}
}

// Every ABR algorithm must finish a session through repeated dead-air
// outages (zero residual rate) with bounded stalling — the buffer and
// the download pacing absorb what they can, and the rest shows up as
// rebuffering, never as an error or a hang.
func TestOutageChaosEveryAlgorithmSurvives(t *testing.T) {
	outage := &netsim.OutageConfig{
		MeanUpSec:    6,
		MeanDownSec:  4,
		DownRateFrac: 0,
		SignalDropDB: 20,
		Seed:         9,
	}
	for name, alg := range chaosAlgorithms(t) {
		link := &fixedLink{signal: -95, rate: 2}
		cfg := baseConfig(t, alg, link)
		cfg.Manifest = testManifest(t, 120)
		cfg.Outage = outage
		m, err := Run(cfg)
		if err != nil {
			t.Errorf("%s: outage storm sank the session: %v", name, err)
			continue
		}
		if len(m.Segments) != 60 {
			t.Errorf("%s: %d segments, want 60 (session must complete)", name, len(m.Segments))
		}
		if m.OutageCount == 0 || m.OutageSec <= 0 {
			t.Errorf("%s: outage counters (%d, %.1f) empty despite the overlay", name, m.OutageCount, m.OutageSec)
		}
		if m.RebufferSec < 0 || m.RebufferSec > m.DurationSec {
			t.Errorf("%s: rebuffering %.1f s out of bounds for a %.1f s session", name, m.RebufferSec, m.DurationSec)
		}
		if m.DurationSec <= 0 {
			t.Errorf("%s: non-positive session duration", name)
		}
	}
}

// The outage overlay composes with the Gilbert–Elliott burst channel:
// outages on top of an already-bursty link still produce a completed,
// finite session.
func TestOutageChaosOnBurstChannel(t *testing.T) {
	ge, err := netsim.NewGilbertElliott(netsim.DefaultGilbertElliott(), 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(t, abr.NewFESTIVE(), ge)
	cfg.Manifest = testManifest(t, 120)
	cfg.Outage = &netsim.OutageConfig{MeanUpSec: 10, MeanDownSec: 3, DownRateFrac: 0.05, SignalDropDB: 10, Seed: 2}
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Segments) != 60 {
		t.Errorf("%d segments, want 60", len(m.Segments))
	}
	if m.OutageCount == 0 {
		t.Error("no outages drawn in 120 s with a 13 s cycle")
	}
}

// An outage process that never ends (a session-long dead link) must
// surface netsim.ErrStalledLink, not hang.
func TestOutagePermanentSurfacesError(t *testing.T) {
	cfg := baseConfig(t, abr.NewYoutube(), &fixedLink{signal: -95, rate: 2})
	// MeanUpSec tiny, MeanDownSec enormous: effectively down forever.
	cfg.Outage = &netsim.OutageConfig{MeanUpSec: 0.001, MeanDownSec: 1e7, DownRateFrac: 0, Seed: 1}
	if _, err := Run(cfg); err == nil {
		t.Fatal("permanently dead overlay produced no error")
	}
}

// The outage schedule is a pure function of the config seed: identical
// sessions replay identically, and outage metrics match between full
// and metrics-only modes.
func TestOutageDeterministicAcrossModes(t *testing.T) {
	run := func(metricsOnly bool) *Metrics {
		cfg := baseConfig(t, abr.NewFESTIVE(), &fixedLink{signal: -95, rate: 2})
		cfg.Manifest = testManifest(t, 120)
		cfg.Outage = &netsim.OutageConfig{MeanUpSec: 8, MeanDownSec: 3, DownRateFrac: 0.1, Seed: 6}
		cfg.MetricsOnly = metricsOnly
		m, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := run(false), run(false)
	if !reflect.DeepEqual(a, b) {
		t.Error("identical outage configs produced different sessions")
	}
	c := run(true)
	if a.OutageCount != c.OutageCount || a.OutageSec != c.OutageSec ||
		a.TotalJ() != c.TotalJ() || a.RebufferSec != c.RebufferSec {
		t.Errorf("metrics-only outage session diverged: %+v vs %+v", a, c)
	}
}

func TestOutageInvalidConfigRejected(t *testing.T) {
	cfg := baseConfig(t, abr.NewYoutube(), &fixedLink{signal: -95, rate: 2})
	cfg.Outage = &netsim.OutageConfig{MeanUpSec: -1, MeanDownSec: 3}
	if _, err := Run(cfg); err == nil {
		t.Fatal("invalid outage config accepted")
	}
}
