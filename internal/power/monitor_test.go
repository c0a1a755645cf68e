package power

import (
	"errors"
	"math"
	"testing"

	"ecavs/internal/rng"
)

func TestMonitorIntegratesConstantPower(t *testing.T) {
	mo := NewMonitor(1)
	if err := mo.Observe(2.0, 10); err != nil {
		t.Fatal(err)
	}
	// 2 W * 10 s = 20 J, within noise+drift (a few percent).
	if relErr(mo.energyJ, 20) > 0.05 {
		t.Errorf("energyJ = %v, want ≈ 20", mo.energyJ)
	}
}

func TestMonitorZeroAndNegative(t *testing.T) {
	mo := NewMonitor(2)
	if err := mo.Observe(2.0, 0); err != nil {
		t.Fatal(err)
	}
	if mo.energyJ != 0 {
		t.Errorf("zero-duration energy = %v, want 0", mo.energyJ)
	}
	if err := mo.Observe(2.0, -1); !errors.Is(err, ErrNegativeInterval) {
		t.Errorf("err = %v, want ErrNegativeInterval", err)
	}
	// Zero power adds no energy.
	if err := mo.Observe(0, 5); err != nil {
		t.Fatal(err)
	}
	if mo.energyJ != 0 {
		t.Errorf("after zero-power observe: E=%v, want 0", mo.energyJ)
	}
}

func TestMonitorReset(t *testing.T) {
	mo := NewMonitor(3)
	if err := mo.Observe(1, 1); err != nil {
		t.Fatal(err)
	}
	mo.Reset()
	if mo.energyJ != 0 {
		t.Error("Reset did not clear the energy")
	}
}

func TestMonitorDeterministicBySeed(t *testing.T) {
	a := NewMonitor(42)
	b := NewMonitor(42)
	if err := a.Observe(2, 3); err != nil {
		t.Fatal(err)
	}
	if err := b.Observe(2, 3); err != nil {
		t.Fatal(err)
	}
	if a.energyJ != b.energyJ {
		t.Errorf("monitors with equal seeds diverged: %v vs %v", a.energyJ, b.energyJ)
	}
}

// Table VI: the virtual monitor's "measured" energy stays within 3% of
// the analytic model for every ladder bitrate (paper reports < 3%,
// average 1.43%).
func TestTable6ValidationErrorUnder3Percent(t *testing.T) {
	m := Default()
	const sessionSec = 300
	var sumErr float64
	rates := []float64{5.8, 3.0, 1.5, 0.75, 0.375, 0.1}
	for i, r := range rates {
		mo := NewMonitor(int64(100 + i))
		measured, err := mo.MeasureSession(m, r, sessionSec, -90, 2)
		if err != nil {
			t.Fatal(err)
		}
		calculated := m.SessionEnergyJ(r, sessionSec, -90)
		e := relErr(measured, calculated)
		if e > 0.03 {
			t.Errorf("bitrate %.3f: measured %.1f vs calculated %.1f, error %.2f%% > 3%%",
				r, measured, calculated, e*100)
		}
		sumErr += e
	}
	if avg := sumErr / float64(len(rates)); avg > 0.02 {
		t.Errorf("average validation error %.2f%%, want <= 2%%", avg*100)
	}
}

func TestMeasureSessionErrors(t *testing.T) {
	mo := NewMonitor(5)
	if _, err := mo.MeasureSession(Default(), 0, 300, -90, 2); err == nil {
		t.Error("expected error for zero bitrate")
	}
	if _, err := mo.MeasureSession(Default(), 1.5, 0, -90, 2); err == nil {
		t.Error("expected error for zero duration")
	}
}

func TestMeasureSessionDefaultSegment(t *testing.T) {
	mo := NewMonitor(6)
	// segmentSec <= 0 falls back to 2 s without error.
	got, err := mo.MeasureSession(Default(), 1.5, 10, -90, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got <= 0 || math.IsNaN(got) {
		t.Errorf("measured energy = %v, want positive", got)
	}
}

// A partial trailing segment must not inflate energy: a 9 s session at
// 2 s segments ends with a 1 s segment whose burst is scaled down. The
// monitor is quiet, with no noise, drift or bias.
func TestMeasureSessionPartialTrailingSegment(t *testing.T) {
	m := Default()
	mo := NewMonitor(7)
	mo.noiseStd, mo.driftAmp, mo.bias = 0, 0, 0
	got, err := mo.MeasureSession(m, 3.0, 9, -90, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := m.SessionEnergyJ(3.0, 9, -90)
	if relErr(got, want) > 0.01 {
		t.Errorf("9 s session: measured %.2f vs analytic %.2f", got, want)
	}
}

// TestNormRNGMoments sanity-checks the inlined ziggurat generator: the
// first four moments and the central-interval mass of a large sample
// must match the standard normal.
func TestNormRNGMoments(t *testing.T) {
	draws := normRNG{rng.New(12345)}
	const n = 500_000
	var sum, sumSq, sumCube, sumQuad float64
	within1 := 0
	for i := 0; i < n; i++ {
		x := draws.NormFloat64()
		sum += x
		sumSq += x * x
		sumCube += x * x * x
		sumQuad += x * x * x * x
		if x > -1 && x < 1 {
			within1++
		}
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	skew := sumCube / n
	kurt := sumQuad / n
	if math.Abs(mean) > 0.01 {
		t.Errorf("mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("variance = %v, want ~1", variance)
	}
	if math.Abs(skew) > 0.03 {
		t.Errorf("skewness = %v, want ~0", skew)
	}
	if math.Abs(kurt-3) > 0.1 {
		t.Errorf("kurtosis = %v, want ~3", kurt)
	}
	if p := float64(within1) / n; math.Abs(p-0.6827) > 0.01 {
		t.Errorf("P(|x|<1) = %v, want ~0.683", p)
	}
}

// TestMonitorNoiseGolden pins the monitor's seeded noise stream bit
// for bit through the public API: the calibration bias and drift
// phase drawn at construction and the per-sample ziggurat normals
// behind the integrated energy.
func TestMonitorNoiseGolden(t *testing.T) {
	mo := NewMonitor(42)
	got := []float64{mo.bias, mo.driftPhase}
	for i := 0; i < 3; i++ {
		if err := mo.Observe(2, 0.5); err != nil {
			t.Fatal(err)
		}
		got = append(got, mo.energyJ)
	}
	want := []float64{0.013097026850400954, 1.0047466309895796, 1.024719127718519, 2.0526323806918003, 3.0814642346382266}
	if len(got) != len(want) {
		t.Fatalf("draws = %#v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("draw %d = %v, want %v (all: %#v)", i, got[i], want[i], got)
		}
	}
}
