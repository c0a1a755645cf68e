package netsim

import (
	"errors"
	"math"
	"testing"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// constLink is a fixed-rate Link for exercising DownloadRamped.
type constLink struct {
	now    float64
	signal float64
	rate   float64
}

func (l *constLink) Now() float64            { return l.now }
func (l *constLink) SignalDBm() float64      { return l.signal }
func (l *constLink) ThroughputMBps() float64 { return l.rate }
func (l *constLink) Advance(dt float64)      { l.now += dt }

func TestDownloadConstantRate(t *testing.T) {
	link := &constLink{signal: -95, rate: 2.0}
	res, err := DownloadRamped(link, 10, 0, nil)
	if err != nil {
		t.Fatal(err)
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
	if !almostEqual(link.Now(), 5, 1e-9) {
		t.Errorf("link clock = %v, want 5", link.Now())
	}
}

func TestDownloadStepCallbackConservation(t *testing.T) {
	link := &constLink{signal: -100, rate: 1.5}
	var moved, dur float64
	res, err := DownloadRamped(link, 7.3, 0, func(s DownloadStep) {
		moved += s.TransferredMB
		dur += s.Dt
		if s.ThroughputMBps != 1.5 || s.SignalDBm != -100 {
			t.Errorf("unexpected step: %+v", s)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(moved, 7.3, 1e-9) {
		t.Errorf("sum of TransferredMB = %v, want 7.3", moved)
	}
	if !almostEqual(dur, res.DurationSec, 1e-9) {
		t.Errorf("sum of Dt = %v, want %v", dur, res.DurationSec)
	}
}

func TestDownloadZeroSize(t *testing.T) {
	link := &constLink{rate: 1}
	res, err := DownloadRamped(link, 0, 0, nil)
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

func TestDownloadStalledLink(t *testing.T) {
	link := &constLink{rate: 0}
	_, err := DownloadRamped(link, 1, 0, nil)
	if !errors.Is(err, ErrStalledLink) {
		t.Errorf("err = %v, want ErrStalledLink", err)
	}
}

// recoveringLink is down for the first 2 s, then serves at 1 MB/s.
type recoveringLink struct{ constLink }

func (l *recoveringLink) ThroughputMBps() float64 {
	if l.now < 2 {
		return 0
	}
	return 1
}

func TestDownloadRecoversFromOutage(t *testing.T) {
	link := &recoveringLink{}
	res, err := DownloadRamped(link, 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.DurationSec < 2.9 || res.DurationSec > 3.2 {
		t.Errorf("DurationSec = %v, want ≈ 3 (2 s outage + 1 s transfer)", res.DurationSec)
	}
}

func TestNewChannelValidation(t *testing.T) {
	if _, err := NewChannel(RoomSignal, FadingConfig{}, nil, 1); !errors.Is(err, ErrNilRateMap) {
		t.Errorf("err = %v, want ErrNilRateMap", err)
	}
}

func flatRate(mbps float64) func(float64) float64 {
	return func(float64) float64 { return mbps }
}

func TestChannelSignalStaysNearMean(t *testing.T) {
	ch, err := NewChannel(RoomSignal, FadingConfig{}, flatRate(5), 42)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	const n = 2000
	for i := 0; i < n; i++ {
		ch.Advance(0.5)
		sum += ch.SignalDBm()
	}
	mean := sum / n
	if !almostEqual(mean, RoomSignal.MeanDBm, 2.5) {
		t.Errorf("long-run mean signal = %.1f, want ≈ %.1f", mean, RoomSignal.MeanDBm)
	}
}

func TestChannelClampsToRange(t *testing.T) {
	cfg := SignalConfig{MeanDBm: -118, ReversionRate: 0.05, VolatilityDB: 10}
	ch, err := NewChannel(cfg, FadingConfig{}, flatRate(5), 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		ch.Advance(0.3)
		s := ch.SignalDBm()
		if s < -120 || s > -80 {
			t.Fatalf("signal %v escaped [-120, -80]", s)
		}
	}
}

func TestChannelMeanSchedule(t *testing.T) {
	cfg := SignalConfig{
		MeanDBm:       -90,
		MeanAt:        func(t float64) float64 { return -90 - 20*math.Min(1, t/100) },
		ReversionRate: 0.5,
		VolatilityDB:  0.5,
	}
	ch, err := NewChannel(cfg, FadingConfig{}, flatRate(5), 3)
	if err != nil {
		t.Fatal(err)
	}
	ch.Advance(200)
	// After the schedule settles at -110, the signal should be nearby.
	if !almostEqual(ch.SignalDBm(), -110, 5) {
		t.Errorf("signal = %.1f, want ≈ -110 per schedule", ch.SignalDBm())
	}
}

func TestChannelFadingAroundNominal(t *testing.T) {
	ch, err := NewChannel(SignalConfig{MeanDBm: -90, VolatilityDB: 0.01}, FadingConfig{}, flatRate(4), 11)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		ch.Advance(0.1)
		th := ch.ThroughputMBps()
		if th < 0 {
			t.Fatal("negative throughput")
		}
		sum += th
	}
	mean := sum / n
	// Normalised lognormal fading: mean throughput ≈ nominal.
	if !almostEqual(mean, 4, 0.25) {
		t.Errorf("mean throughput = %.2f, want ≈ 4", mean)
	}
}

func TestChannelDeterministicBySeed(t *testing.T) {
	a, _ := NewChannel(VehicleSignal, FadingConfig{}, flatRate(3), 5)
	b, _ := NewChannel(VehicleSignal, FadingConfig{}, flatRate(3), 5)
	for i := 0; i < 100; i++ {
		a.Advance(0.25)
		b.Advance(0.25)
		if a.SignalDBm() != b.SignalDBm() || a.ThroughputMBps() != b.ThroughputMBps() {
			t.Fatal("channels with equal seeds diverged")
		}
	}
}

func TestChannelAdvanceNonPositive(t *testing.T) {
	ch, _ := NewChannel(RoomSignal, FadingConfig{}, flatRate(1), 1)
	before := ch.Now()
	ch.Advance(0)
	ch.Advance(-5)
	if ch.Now() != before {
		t.Error("non-positive Advance moved the clock")
	}
}

func TestTraceLinkValidation(t *testing.T) {
	if _, err := ReplayTraceLink(nil); !errors.Is(err, ErrEmptyTrace) {
		t.Errorf("err = %v, want ErrEmptyTrace", err)
	}
}

func TestTraceLinkReplay(t *testing.T) {
	pts := []TracePoint{
		{TimeSec: 0, SignalDBm: -90, ThroughputMBps: 4},
		{TimeSec: 10, SignalDBm: -100, ThroughputMBps: 2},
		{TimeSec: 20, SignalDBm: -110, ThroughputMBps: 1},
	}
	link, err := ReplayTraceLink(pts)
	if err != nil {
		t.Fatal(err)
	}
	if link.SignalDBm() != -90 || link.ThroughputMBps() != 4 {
		t.Error("wrong initial point")
	}
	link.Advance(10)
	if link.SignalDBm() != -100 {
		t.Errorf("at t=10 signal = %v, want -100", link.SignalDBm())
	}
	link.Advance(5)
	if link.ThroughputMBps() != 2 {
		t.Errorf("at t=15 throughput = %v, want 2 (zero-order hold)", link.ThroughputMBps())
	}
	link.Advance(100)
	if link.SignalDBm() != -110 {
		t.Errorf("past end signal = %v, want clamped -110", link.SignalDBm())
	}
}

func TestTraceLinkDownload(t *testing.T) {
	pts := []TracePoint{
		{TimeSec: 0, SignalDBm: -90, ThroughputMBps: 2},
		{TimeSec: 5, SignalDBm: -110, ThroughputMBps: 0.5},
	}
	link, err := ReplayTraceLink(pts)
	if err != nil {
		t.Fatal(err)
	}
	// 12 MB: 10 MB in the first 5 s at 2 MB/s, then 2 MB at 0.5 MB/s.
	res, err := DownloadRamped(link, 12, 0, nil)
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
	full := &constLink{signal: -95, rate: 2}
	resFull, err := DownloadRamped(full, 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	ramped := &constLink{signal: -95, rate: 2}
	resRamp, err := DownloadRamped(ramped, 1, 1.0, nil)
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
		link := &constLink{signal: -95, rate: 4}
		res, err := DownloadRamped(link, sizeMB, 1.0, nil)
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
