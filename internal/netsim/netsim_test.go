package netsim

import (
	"errors"
	"math"
	"testing"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewChannelValidation(t *testing.T) {
	if _, err := NewChannel(RoomSignal, nil, 1); !errors.Is(err, ErrNilRateMap) {
		t.Errorf("err = %v, want ErrNilRateMap", err)
	}
}

func flatRate(mbps float64) func(float64) float64 {
	return func(float64) float64 { return mbps }
}

func TestChannelSignalStaysNearMean(t *testing.T) {
	ch, err := NewChannel(RoomSignal, flatRate(5), 42)
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
	ch, err := NewChannel(cfg, flatRate(5), 7)
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
	ch, err := NewChannel(cfg, flatRate(5), 3)
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
	ch, err := NewChannel(SignalConfig{MeanDBm: -90, VolatilityDB: 0.01}, flatRate(4), 11)
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
	a, _ := NewChannel(VehicleSignal, flatRate(3), 5)
	b, _ := NewChannel(VehicleSignal, flatRate(3), 5)
	for i := 0; i < 100; i++ {
		a.Advance(0.25)
		b.Advance(0.25)
		if a.SignalDBm() != b.SignalDBm() || a.ThroughputMBps() != b.ThroughputMBps() {
			t.Fatal("channels with equal seeds diverged")
		}
	}
}

func TestChannelAdvanceNonPositive(t *testing.T) {
	ch, _ := NewChannel(RoomSignal, flatRate(1), 1)
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
