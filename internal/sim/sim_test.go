package sim

import (
	"errors"
	"math"
	"testing"

	"ecavs/internal/abr"
	"ecavs/internal/dash"
	"ecavs/internal/netsim"
	"ecavs/internal/power"
	"ecavs/internal/qoe"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// fixedLink is a constant-rate, constant-signal link.
type fixedLink struct {
	now    float64
	signal float64
	rate   float64
}

func (l *fixedLink) Now() float64            { return l.now }
func (l *fixedLink) SignalDBm() float64      { return l.signal }
func (l *fixedLink) ThroughputMBps() float64 { return l.rate }
func (l *fixedLink) Advance(dt float64) {
	if dt > 0 {
		l.now += dt
	}
}
func (l *fixedLink) Hold(_ float64, limit int) (int, float64, float64) {
	return max(1, limit), l.rate, l.signal
}
func (l *fixedLink) AdvanceSteps(n int, dt float64) {
	for ; n > 0; n-- {
		l.Advance(dt)
	}
}

func testManifest(t *testing.T, durationSec float64) *dash.Manifest {
	t.Helper()
	video := dash.Video{Title: "test", SpatialInfo: 45, TemporalInfo: 15, DurationSec: durationSec}
	m, err := dash.NewManifest(video, dash.TableIILadder(), dash.ManifestConfig{SegmentSec: 2, VBRJitter: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func baseConfig(t *testing.T, alg abr.Algorithm, link netsim.Link) Config {
	t.Helper()
	return Config{
		Manifest:  testManifest(t, 60),
		Link:      link,
		Algorithm: alg,
		Power:     power.EvalModel(),
		QoE:       qoe.Default(),
	}
}

func TestRunValidation(t *testing.T) {
	link := &fixedLink{signal: -90, rate: 3}
	cfg := baseConfig(t, abr.NewYoutube(), link)

	bad := cfg
	bad.Manifest = nil
	if _, err := Run(bad); !errors.Is(err, ErrNilManifest) {
		t.Errorf("err = %v, want ErrNilManifest", err)
	}
	bad = cfg
	bad.Link = nil
	if _, err := Run(bad); !errors.Is(err, ErrNilLink) {
		t.Errorf("err = %v, want ErrNilLink", err)
	}
	bad = cfg
	bad.Algorithm = nil
	if _, err := Run(bad); !errors.Is(err, ErrNilAlgorithm) {
		t.Errorf("err = %v, want ErrNilAlgorithm", err)
	}
	bad = cfg
	bad.Power.BasePowerW = -1
	if _, err := Run(bad); err == nil {
		t.Error("invalid power model accepted")
	}
	bad = cfg
	bad.QoE.C1 = 0
	if _, err := Run(bad); err == nil {
		t.Error("invalid qoe model accepted")
	}
}

func TestRunFixedSessionAccounting(t *testing.T) {
	link := &fixedLink{signal: -90, rate: 3}
	cfg := baseConfig(t, abr.NewYoutube(), link)
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Algorithm != "Youtube" {
		t.Errorf("Algorithm = %q", m.Algorithm)
	}
	if len(m.Segments) != 30 {
		t.Fatalf("segments = %d, want 30 (60 s / 2 s)", len(m.Segments))
	}
	// Every segment at top bitrate, no switches.
	for _, s := range m.Segments {
		if s.BitrateMbps != 5.8 {
			t.Errorf("segment %d bitrate = %v, want 5.8", s.Index, s.BitrateMbps)
		}
	}
	if m.Switches != 0 {
		t.Errorf("Switches = %d, want 0", m.Switches)
	}
	if !almostEqual(m.MeanBitrateMbps, 5.8, 1e-9) {
		t.Errorf("MeanBitrateMbps = %v, want 5.8", m.MeanBitrateMbps)
	}
	// Downloaded payload = 30 segments x 5.8/8*2 MB x complexity.
	video := cfg.Manifest.Video()
	wantMB := 5.8 / 8 * 60 * video.Complexity()
	if !almostEqual(m.DownloadedMB, wantMB, 1e-6) {
		t.Errorf("DownloadedMB = %v, want %v", m.DownloadedMB, wantMB)
	}
	// At 3 MB/s with ample headroom: no rebuffering.
	if m.RebufferSec != 0 {
		t.Errorf("RebufferSec = %v, want 0", m.RebufferSec)
	}
	// Energy components all positive and consistent.
	if m.PlaybackJ <= 0 || m.DownloadJ <= 0 {
		t.Errorf("degenerate energy: %+v", m)
	}
	if got := m.TotalJ(); !almostEqual(got, m.PlaybackJ+m.DownloadJ+m.RebufferJ+m.StartupJ, 1e-9) {
		t.Errorf("TotalJ inconsistent")
	}
	// Session must span at least the video length.
	if m.DurationSec < 59.9 {
		t.Errorf("DurationSec = %v, want >= 60", m.DurationSec)
	}
	// QoE at top bitrate, still phone: near Q0(5.8).
	wantQ := qoe.Default().OriginalQuality(5.8)
	if !almostEqual(m.MeanQoE, wantQ, 0.05) {
		t.Errorf("MeanQoE = %v, want ≈ %v", m.MeanQoE, wantQ)
	}
}

// Playback energy equals playback power x video duration when
// everything is at one bitrate.
func TestRunPlaybackEnergyMatchesAnalytic(t *testing.T) {
	link := &fixedLink{signal: -90, rate: 5}
	cfg := baseConfig(t, abr.NewYoutube(), link)
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := cfg.Power.PlaybackPowerW(5.8) * 60
	if math.Abs(m.PlaybackJ-want)/want > 0.01 {
		t.Errorf("PlaybackJ = %.1f, want ≈ %.1f", m.PlaybackJ, want)
	}
	// Download energy = payload x energy/MB at -90 dBm (rate maps are
	// irrelevant on a fixed link: radio power x time = payload x P/th).
	wantDl := m.DownloadedMB / 5 * cfg.Power.RadioPowerW(-90)
	if math.Abs(m.DownloadJ-wantDl)/wantDl > 0.01 {
		t.Errorf("DownloadJ = %.1f, want ≈ %.1f", m.DownloadJ, wantDl)
	}
}

func TestRunRebufferingOnStarvedLink(t *testing.T) {
	// 0.05 MB/s cannot sustain even the lowest manifest rung
	// (0.1 Mbps x complexity ≈ 0.0125 MB/s nominal -> fine) so use the
	// top rung: 5.8 Mbps needs 0.725 MB/s.
	link := &fixedLink{signal: -115, rate: 0.2}
	cfg := baseConfig(t, abr.NewYoutube(), link)
	cfg.Manifest = testManifest(t, 20)
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.RebufferSec <= 0 {
		t.Error("expected rebuffering on a starved link")
	}
	if m.RebufferJ <= 0 {
		t.Error("rebuffer energy not accounted")
	}
	// Stalls must hurt QoE.
	still := qoe.Default().OriginalQuality(5.8)
	if m.MeanQoE >= still {
		t.Errorf("MeanQoE = %v, want < %v due to stalls", m.MeanQoE, still)
	}
	// Session takes much longer than the video.
	if m.DurationSec <= 20 {
		t.Errorf("DurationSec = %v, want > 20", m.DurationSec)
	}
}

func TestRunBufferThresholdPacesDownloads(t *testing.T) {
	// Fast link: the whole session would download instantly without
	// pacing; the threshold forces the session to take about the video
	// duration.
	link := &fixedLink{signal: -90, rate: 50}
	cfg := baseConfig(t, abr.NewYoutube(), link)
	cfg.BufferThresholdSec = 10
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// With pacing, the last segment downloads no earlier than
	// video length - threshold - slack.
	last := m.Segments[len(m.Segments)-1]
	if last.StartSec < 60-10-3 {
		t.Errorf("last segment started at %.1f s; pacing failed", last.StartSec)
	}
}

func TestRunVibrationReachesQoE(t *testing.T) {
	link := &fixedLink{signal: -90, rate: 5}
	cfg := baseConfig(t, abr.NewYoutube(), link)
	still, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	link2 := &fixedLink{signal: -90, rate: 5}
	cfg2 := baseConfig(t, abr.NewYoutube(), link2)
	cfg2.VibrationAt = func(float64) float64 { return 6.5 }
	shaky, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if shaky.MeanQoE >= still.MeanQoE {
		t.Errorf("vibration did not reduce QoE: %v >= %v", shaky.MeanQoE, still.MeanQoE)
	}
	for _, s := range shaky.Segments {
		if s.Vibration != 6.5 {
			t.Fatalf("segment %d vibration = %v, want 6.5", s.Index, s.Vibration)
		}
	}
}

func TestRunSwitchCounting(t *testing.T) {
	link := &fixedLink{signal: -90, rate: 2}
	cfg := baseConfig(t, abr.NewFESTIVE(), link)
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// FESTIVE starts at the bottom and climbs: at least one switch.
	if m.Switches == 0 {
		t.Error("expected bitrate switches while FESTIVE climbs")
	}
	// Count switches independently from the log.
	want := 0
	for i := 1; i < len(m.Segments); i++ {
		if m.Segments[i].Rung != m.Segments[i-1].Rung {
			want++
		}
	}
	if m.Switches != want {
		t.Errorf("Switches = %d, log says %d", m.Switches, want)
	}
}

func TestRunBadRung(t *testing.T) {
	link := &fixedLink{signal: -90, rate: 3}
	cfg := baseConfig(t, &abr.Fixed{Rung: 2}, link)
	// Sabotage: wrap in an algorithm returning an out-of-range rung.
	cfg.Algorithm = badAlg{}
	if _, err := Run(cfg); !errors.Is(err, ErrBadRung) {
		t.Errorf("err = %v, want ErrBadRung", err)
	}
}

type badAlg struct{}

func (badAlg) Name() string                        { return "bad" }
func (badAlg) ChooseRung(abr.Context) (int, error) { return 99, nil }
func (badAlg) ObserveDownload(float64)             {}
func (badAlg) Reset()                              {}

func TestRunExtraJ(t *testing.T) {
	m := &Metrics{PlaybackJ: 100, DownloadJ: 50}
	if got := m.ExtraJ(120); got != 30 {
		t.Errorf("ExtraJ = %v, want 30", got)
	}
	if got := m.ExtraJ(200); got != 0 {
		t.Errorf("ExtraJ clamped = %v, want 0", got)
	}
}

func TestRunDeterministic(t *testing.T) {
	run := func() *Metrics {
		link := &fixedLink{signal: -95, rate: 2}
		cfg := baseConfig(t, abr.NewFESTIVE(), link)
		m, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := run(), run()
	if a.TotalJ() != b.TotalJ() || a.MeanQoE != b.MeanQoE || a.Switches != b.Switches {
		t.Error("identical configs produced different metrics")
	}
}
