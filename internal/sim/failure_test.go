package sim

import (
	"testing"

	"ecavs/internal/abr"
	"ecavs/internal/core"
	"ecavs/internal/power"
	"ecavs/internal/qoe"
)

// collapseLink serves fast, then collapses to a trickle at collapseAt,
// then recovers at recoverAt.
type collapseLink struct {
	now        float64
	collapseAt float64
	recoverAt  float64
	fast, slow float64
}

func (l *collapseLink) Now() float64       { return l.now }
func (l *collapseLink) SignalDBm() float64 { return -100 }
func (l *collapseLink) ThroughputMBps() float64 {
	if l.now >= l.collapseAt && l.now < l.recoverAt {
		return l.slow
	}
	return l.fast
}
func (l *collapseLink) Advance(dt float64) {
	if dt > 0 {
		l.now += dt
	}
}

// Hold tells nothing ahead: the rates hold for the current step.
func (l *collapseLink) Hold(float64, int) (int, float64, float64) {
	return 1, l.ThroughputMBps(), l.SignalDBm()
}
func (l *collapseLink) AdvanceSteps(n int, dt float64) {
	for ; n > 0; n-- {
		l.Advance(dt)
	}
}

// A mid-session bandwidth collapse: the fixed-top-bitrate policy must
// survive (finish the session) with bounded stalling thanks to the
// 30 s buffer, and the session must take longer than the video.
func TestBandwidthCollapseYoutubeSurvives(t *testing.T) {
	link := &collapseLink{collapseAt: 20, recoverAt: 80, fast: 10, slow: 0.05}
	cfg := baseConfig(t, abr.NewYoutube(), link)
	cfg.Manifest = testManifest(t, 120)
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Segments) != 60 {
		t.Fatalf("segments = %d, want 60 (session must complete)", len(m.Segments))
	}
	if m.RebufferSec <= 0 {
		t.Error("expected stalling through a 60 s collapse at 0.05 MB/s")
	}
}

// The adaptive online algorithm rides the same collapse with far less
// stalling than the fixed policy: it steps down when the estimate
// collapses.
func TestBandwidthCollapseOnlineAdapts(t *testing.T) {
	obj, err := core.NewObjective(core.DefaultAlpha, power.EvalModel(), qoe.Default())
	if err != nil {
		t.Fatal(err)
	}
	run := func(alg abr.Algorithm) *Metrics {
		link := &collapseLink{collapseAt: 20, recoverAt: 80, fast: 10, slow: 0.05}
		cfg := baseConfig(t, alg, link)
		cfg.Manifest = testManifest(t, 120)
		m, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	fixed := run(abr.NewYoutube())
	ours := run(core.NewOnline(obj))
	if ours.RebufferSec >= fixed.RebufferSec {
		t.Errorf("online stalled %.1f s, fixed %.1f s; adaptation failed",
			ours.RebufferSec, fixed.RebufferSec)
	}
	// During the collapse the online policy must have stepped down from
	// its steady choice (the paper's 20-sample harmonic mean reacts
	// deliberately slowly, so it reaches ~1.5 Mbps, not the floor).
	var steady, dropped float64 = 0, 99
	for _, s := range ours.Segments {
		if s.StartSec > 5 && s.StartSec < 20 && s.BitrateMbps > steady {
			steady = s.BitrateMbps
		}
		if s.StartSec > 40 && s.StartSec < 80 && s.BitrateMbps < dropped {
			dropped = s.BitrateMbps
		}
	}
	if dropped >= steady {
		t.Errorf("online policy never stepped down during the collapse (steady %.2f, collapse %.2f)",
			steady, dropped)
	}
}

// A permanently dead link must surface ErrStalledLink, not hang.
func TestPermanentOutageSurfacesError(t *testing.T) {
	link := &fixedLink{signal: -115, rate: 0}
	cfg := baseConfig(t, abr.NewYoutube(), link)
	if _, err := Run(cfg); err == nil {
		t.Fatal("dead link produced no error")
	}
}

// Sensor dropout: the vibration callback returning NaN-free zeros must
// not break the session (context falls back to "still").
func TestVibrationSensorDropout(t *testing.T) {
	obj, err := core.NewObjective(core.DefaultAlpha, power.EvalModel(), qoe.Default())
	if err != nil {
		t.Fatal(err)
	}
	link := &fixedLink{signal: -100, rate: 5}
	cfg := baseConfig(t, core.NewOnline(obj), link)
	dropout := 0
	cfg.VibrationAt = func(t float64) float64 {
		dropout++
		if dropout%3 == 0 {
			return 0 // sensor gap
		}
		return 6.5
	}
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Segments) != 30 {
		t.Errorf("segments = %d, want 30", len(m.Segments))
	}
}
