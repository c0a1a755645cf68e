package sim

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"ecavs/internal/abr"
	"ecavs/internal/netsim"
	"ecavs/internal/power"
)

// transferOn downloads sizeMB over a link from mk with Run's transfer,
// in a session with bufferSec of 2 s segments queued (0: playback has
// not started), so whole steps go in runs. The reference stepTransfer
// downloads the same payload over a second link from mk in a second
// such session, and both must agree bit for bit: the result, the
// error, the link clock and the session meters. It returns Run's side:
// the result, the session and the link.
func transferOn(t *testing.T, mk func() netsim.Link, sizeMB, rampSec, bufferSec float64) (netsim.Result, *Session, netsim.Link, error) {
	t.Helper()
	session := func(link netsim.Link) *Session {
		s, err := NewSession(baseConfig(t, abr.NewYoutube(), link))
		if err != nil {
			t.Fatal(err)
		}
		for b := 0.0; b < bufferSec; b += 2 {
			s.pl.OnSegment(2, 1.5)
		}
		return s
	}
	link, ref := mk(), mk()
	s, sRef := session(link), session(ref)
	r := runner{s: s, link: link, rampSec: rampSec}
	res, err := r.transfer(sizeMB)
	resRef, errRef := stepTransfer(sRef, ref, sizeMB, rampSec)
	if res != resRef || !errors.Is(err, errRef) || link.Now() != ref.Now() ||
		fmt.Sprint(s.m, s.pl) != fmt.Sprint(sRef.m, sRef.pl) {
		t.Fatalf("transfer differs from the reference stepper:\n run  %+v %v now %v\n%+v\n step %+v %v now %v\n%+v",
			res, err, link.Now(), s.m, resRef, errRef, ref.Now(), sRef.m)
	}
	return res, s, link, err
}

func constant(signal, rate float64) func() netsim.Link {
	return func() netsim.Link { return &fixedLink{signal: signal, rate: rate} }
}

func TestDownloadConstantRate(t *testing.T) {
	res, s, link, err := transferOn(t, constant(-95, 2), 10, 0, 30)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(link.Now(), 5, 1e-9) {
		t.Errorf("link clock = %v, want 5", link.Now())
	}
	if !almostEqual(res.DurationSec, 5, 1e-9) {
		t.Errorf("DurationSec = %v, want 5", res.DurationSec)
	}
	if !almostEqual(res.MeanThroughputMBps, 2, 1e-9) {
		t.Errorf("MeanThroughputMBps = %v, want 2", res.MeanThroughputMBps)
	}
	if !almostEqual(res.MeanSignalDBm, -95, 1e-9) {
		t.Errorf("MeanSignalDBm = %v, want -95", res.MeanSignalDBm)
	}
	if !almostEqual(s.pl.PlayedSec(), 5, 1e-9) {
		t.Errorf("played %v s during the download, want 5", s.pl.PlayedSec())
	}
}

// Every step is metered with the radio on and playback draining, so
// over a steady link the meters read the powers times the duration.
func TestDownloadMetersEveryStep(t *testing.T) {
	res, s, _, err := transferOn(t, constant(-100, 1.5), 7.3, 0, 30)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(res.DurationSec, 7.3/1.5, 1e-9) {
		t.Errorf("DurationSec = %v, want %v", res.DurationSec, 7.3/1.5)
	}
	pm := power.EvalModel()
	if want := pm.RadioPowerW(-100) * res.DurationSec; !almostEqual(s.m.DownloadJ, want, 1e-9) {
		t.Errorf("DownloadJ = %v, want %v", s.m.DownloadJ, want)
	}
	if want := pm.PlaybackPowerW(1.5) * res.DurationSec; !almostEqual(s.m.PlaybackJ, want, 1e-9) {
		t.Errorf("PlaybackJ = %v, want %v", s.m.PlaybackJ, want)
	}
}

func TestDownloadZeroSize(t *testing.T) {
	res, _, link, err := transferOn(t, constant(0, 1), 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.DurationSec != 0 {
		t.Errorf("zero download duration = %v, want 0", res.DurationSec)
	}
	if link.Now() != 0 {
		t.Error("zero download advanced the link")
	}
}

// A link dead past the 120 s guard fails the download, and the dead
// time before that is metered with the radio on.
func TestDownloadStalledLink(t *testing.T) {
	_, s, _, err := transferOn(t, constant(-110, 0), 1, 0, 0)
	if !errors.Is(err, netsim.ErrStalledLink) {
		t.Errorf("err = %v, want ErrStalledLink", err)
	}
	if want := power.EvalModel().RadioPowerW(-110) * maxStallSec; !almostEqual(s.m.DownloadJ, want, 1e-6) {
		t.Errorf("DownloadJ = %v over the dead link, want ≈ %v", s.m.DownloadJ, want)
	}
}

// A download rides out a dead stretch: 2 s down, then 1 MB at 1 MB/s,
// with the radio metered over all of it.
func TestDownloadRecoversFromOutage(t *testing.T) {
	mk := func() netsim.Link { return &collapseLink{collapseAt: 0, recoverAt: 2, fast: 1, slow: 0} }
	res, s, _, err := transferOn(t, mk, 1, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.DurationSec < 2.9 || res.DurationSec > 3.2 {
		t.Errorf("DurationSec = %v, want ≈ 3 (2 s outage + 1 s transfer)", res.DurationSec)
	}
	if want := power.EvalModel().RadioPowerW(-100) * res.DurationSec; !almostEqual(s.m.DownloadJ, want, 1e-9) {
		t.Errorf("DownloadJ = %v, want %v: the dead steps were not metered", s.m.DownloadJ, want)
	}
	if !almostEqual(s.pl.PlayedSec(), res.DurationSec, 1e-9) {
		t.Errorf("played %v s of a %v s download over a full buffer", s.pl.PlayedSec(), res.DurationSec)
	}
}

func TestTraceLinkDownload(t *testing.T) {
	mk := func() netsim.Link {
		link, err := netsim.ReplayTraceLink([]netsim.TracePoint{
			{TimeSec: 0, SignalDBm: -90, ThroughputMBps: 2},
			{TimeSec: 5, SignalDBm: -110, ThroughputMBps: 0.5},
		})
		if err != nil {
			t.Fatal(err)
		}
		return link
	}
	// 12 MB: 10 MB in the first 5 s at 2 MB/s, then 2 MB at 0.5 MB/s.
	res, _, _, err := transferOn(t, mk, 12, 0, 30)
	if err != nil {
		t.Fatal(err)
	}
	// One 0.1 s integration step may straddle the rate change, so allow
	// up to one step's worth of fast transfer (0.2 MB at 2 MB/s instead
	// of 0.4 s at 0.5 MB/s).
	if !almostEqual(res.DurationSec, 9, 0.35) {
		t.Errorf("DurationSec = %v, want ≈ 9", res.DurationSec)
	}
}

func TestDownloadRampedSlowerThanFull(t *testing.T) {
	resFull, _, _, err := transferOn(t, constant(-95, 2), 1, 0, 30)
	if err != nil {
		t.Fatal(err)
	}
	resRamp, _, _, err := transferOn(t, constant(-95, 2), 1, 1.0, 30)
	if err != nil {
		t.Fatal(err)
	}
	if resRamp.DurationSec <= resFull.DurationSec {
		t.Errorf("ramped %v s not slower than full %v s", resRamp.DurationSec, resFull.DurationSec)
	}
	// The ramp costs roughly half the ramp window on a transfer that
	// outlasts it.
	if resRamp.DurationSec > resFull.DurationSec+1.0 {
		t.Errorf("ramped %v s overshoots expected penalty", resRamp.DurationSec)
	}
}

// Small transfers suffer proportionally more from the ramp — the
// segment-duration efficiency effect.
func TestDownloadRampedHurtsSmallTransfersMore(t *testing.T) {
	effRate := func(sizeMB float64) float64 {
		res, _, _, err := transferOn(t, constant(-95, 4), sizeMB, 1.0, 30)
		if err != nil {
			t.Fatal(err)
		}
		return res.MeanThroughputMBps
	}
	small := effRate(0.2)
	large := effRate(24) // ramp cost amortised: 24/(6+0.5) ≈ 3.7 MB/s
	if small >= large {
		t.Errorf("small transfer rate %v >= large %v", small, large)
	}
	if large < 3.5 {
		t.Errorf("large transfer rate %v should approach the 4 MB/s link", large)
	}
}

// Downloads ride through bad bursts: a payload that needs several good
// seconds completes despite interleaved outage states.
func TestGilbertElliottDownloadCompletes(t *testing.T) {
	cfg := netsim.DefaultGilbertElliott()
	cfg.MeanGoodSec = 5
	cfg.MeanBadSec = 2
	mk := func() netsim.Link {
		g, err := netsim.NewGilbertElliott(cfg, 11)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	res, _, _, err := transferOn(t, mk, 30, 0, 30)
	if err != nil {
		t.Fatal(err)
	}
	// 30 MB needs ~9.6 s of pure good state; with bad bursts the wall
	// time is longer but bounded.
	if res.DurationSec < 9 {
		t.Errorf("duration %v s implausibly fast", res.DurationSec)
	}
	if res.DurationSec > 120 {
		t.Errorf("duration %v s implausibly slow", res.DurationSec)
	}
}

// offeredLink integrates the rate its link offered over every step it
// was advanced by; a transfer without a ramp moves exactly that much.
type offeredLink struct {
	netsim.Link
	offeredMB float64
}

func (l *offeredLink) Advance(dt float64) {
	l.offeredMB += l.Link.ThroughputMBps() * dt
	l.Link.Advance(dt)
}

func (l *offeredLink) AdvanceSteps(n int, dt float64) {
	for ; n > 0; n-- {
		l.Advance(dt)
	}
}

// A download across zero-residual outages conserves payload, and the
// radio is metered through the dead stretches too.
func TestOutageDownloadConservation(t *testing.T) {
	mk := func() netsim.Link {
		o, err := netsim.WithOutages(&fixedLink{signal: -95, rate: 2},
			netsim.OutageConfig{MeanUpSec: 2, MeanDownSec: 1, DownRateFrac: 0, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		return &offeredLink{Link: o}
	}
	res, s, link, err := transferOn(t, mk, 10, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := link.(*offeredLink).offeredMB; math.Abs(got-10) > 1e-9 {
		t.Errorf("moved %v MB, want 10", got)
	}
	if res.DurationSec <= 5 {
		t.Errorf("duration %v s too short for 10 MB at 2 MB/s with outages", res.DurationSec)
	}
	if want := power.EvalModel().RadioPowerW(-95) * res.DurationSec; !almostEqual(s.m.DownloadJ, want, 1e-9) {
		t.Errorf("DownloadJ = %v, want %v", s.m.DownloadJ, want)
	}
}

// Download over a randomly varying link conserves payload bytes, and
// matches the reference stepper.
func TestDownloadConservationOnVolatileLink(t *testing.T) {
	pm := power.EvalModel()
	mk := func() netsim.Link {
		ch, err := netsim.NewChannel(netsim.VehicleSignal, pm.NominalThroughputMBps, 99)
		if err != nil {
			t.Fatal(err)
		}
		return &offeredLink{Link: ch}
	}
	res, _, link, err := transferOn(t, mk, 25, 0, 30)
	if err != nil {
		t.Fatal(err)
	}
	if got := link.(*offeredLink).offeredMB; math.Abs(got-25) > 1e-6 {
		t.Errorf("moved %.6f MB, want 25", got)
	}
	if res.DurationSec <= 0 {
		t.Error("non-positive duration")
	}
}

// A dead link is a transfer step that moves nothing: the radio stays
// on, playback drains and a stall counts once the buffer is empty, so
// the session's time adds up. Before dead steps were metered, a 30 s
// dead stretch read DurationSec 149.945 against StartupSec 0.145, 120 s
// of video and no rebuffering.
func TestDeadLinkStepKeepsPlaying(t *testing.T) {
	link := &collapseLink{collapseAt: 20, recoverAt: 50, fast: 10, slow: 0}
	cfg := baseConfig(t, abr.NewYoutube(), link)
	cfg.Manifest = testManifest(t, 120)
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := m.StartupSec + 120 + m.RebufferSec; !almostEqual(m.DurationSec, want, 1e-6) {
		t.Errorf("DurationSec = %v, want startup + video + rebuffering = %v", m.DurationSec, want)
	}
	var downloadSec float64
	for _, seg := range m.Segments {
		downloadSec += seg.DownloadSec
	}
	if want := cfg.Power.RadioPowerW(-100) * downloadSec; !almostEqual(m.DownloadJ, want, 1e-6) {
		t.Errorf("DownloadJ = %v, want radio power × download time = %v", m.DownloadJ, want)
	}
	cfg.Link = &collapseLink{collapseAt: 20, recoverAt: 50, fast: 10, slow: 0}
	ref, err := runStepper(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !sameMetrics(m, ref) {
		t.Errorf("Run and the reference stepper differ:\n%+v\n%+v", m, ref)
	}
}
