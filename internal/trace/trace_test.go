package trace

import (
	"errors"
	"math"
	"testing"

	"ecavs/internal/netsim"
	"ecavs/internal/power"
	"ecavs/internal/vibration"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func evalRateMap() func(float64) float64 {
	m := power.EvalModel()
	return m.NominalThroughputMBps
}

// tinyTrace builds a minimal valid trace for unit tests.
func tinyTrace(t *testing.T) *Trace {
	t.Helper()
	gen, err := vibration.NewGenerator(50, 1)
	if err != nil {
		t.Fatal(err)
	}
	return &Trace{
		ID:                9,
		Name:              "tiny",
		LengthSec:         10,
		NativeBitrateMbps: 2.0,
		Network: []netsim.TracePoint{
			{TimeSec: 0, SignalDBm: -90, ThroughputMBps: 3},
			{TimeSec: 5, SignalDBm: -100, ThroughputMBps: 1.5},
		},
		Accel: gen.Generate(vibration.Bus, 0, 10),
	}
}

func TestValidate(t *testing.T) {
	tr := tinyTrace(t)
	if err := tr.Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}

	// Traces carry a compiled-form cache and must not be copied by
	// value, so each broken variant starts from a fresh build.
	bad := tinyTrace(t)
	bad.LengthSec = 0
	if err := bad.Validate(); !errors.Is(err, ErrBadLength) {
		t.Errorf("err = %v, want ErrBadLength", err)
	}

	bad = tinyTrace(t)
	bad.Network = nil
	if err := bad.Validate(); !errors.Is(err, ErrNoNetwork) {
		t.Errorf("err = %v, want ErrNoNetwork", err)
	}

	bad = tinyTrace(t)
	bad.Accel = nil
	if err := bad.Validate(); !errors.Is(err, ErrNoAccel) {
		t.Errorf("err = %v, want ErrNoAccel", err)
	}

	bad = tinyTrace(t)
	bad.Network = []netsim.TracePoint{{TimeSec: 5}, {TimeSec: 1}}
	if err := bad.Validate(); err == nil {
		t.Error("unordered network accepted")
	}

	bad = tinyTrace(t)
	bad.Accel = []vibration.Sample{{TimeSec: 5}, {TimeSec: 1}}
	if err := bad.Validate(); err == nil {
		t.Error("unordered accel accepted")
	}

	// A NaN timestamp orders against nothing, so the series is unsorted.
	for _, at := range []int{0, 1, 2} {
		bad = tinyTrace(t)
		bad.Accel = []vibration.Sample{{TimeSec: 0}, {TimeSec: 1}, {TimeSec: 2}}
		bad.Accel[at].TimeSec = math.NaN()
		if err := bad.Validate(); err == nil {
			t.Errorf("NaN accel timestamp at %d accepted", at)
		}
	}
}

func TestDataSizeMB(t *testing.T) {
	tr := &Trace{LengthSec: 198, NativeBitrateMbps: 65.1 * 8 / 198}
	if !almostEqual(tr.DataSizeMB(), 65.1, 1e-9) {
		t.Errorf("DataSizeMB = %v, want 65.1", tr.DataSizeMB())
	}
}

func TestAvgSignalAndThroughput(t *testing.T) {
	tr := &Trace{
		Network: []netsim.TracePoint{
			{SignalDBm: -90, ThroughputMBps: 2},
			{SignalDBm: -100, ThroughputMBps: 4},
		},
	}
	if got := tr.AvgSignalDBm(); got != -95 {
		t.Errorf("AvgSignalDBm = %v, want -95", got)
	}
	if got := tr.AvgThroughputMbps(); got != 24 {
		t.Errorf("AvgThroughputMbps = %v, want 24", got)
	}
	empty := &Trace{}
	if empty.AvgSignalDBm() != 0 || empty.AvgThroughputMbps() != 0 {
		t.Error("empty trace averages should be 0")
	}
}

func TestWindowedVibration(t *testing.T) {
	// Constant magnitude: zero vibration in every window.
	var flat []vibration.Sample
	for i := 0; i < 500; i++ {
		flat = append(flat, vibration.Sample{TimeSec: float64(i) * 0.02, Z: vibration.Gravity})
	}
	if got := WindowedVibration(flat, 2); !almostEqual(got, 0, 1e-9) {
		t.Errorf("flat stream vibration = %v, want ≈ 0", got)
	}
	// Alternating +-1 deviations: every window reports ≈1.
	var alt []vibration.Sample
	for i := 0; i < 500; i++ {
		d := 1.0
		if i%2 == 1 {
			d = -1
		}
		alt = append(alt, vibration.Sample{TimeSec: float64(i) * 0.02, Z: vibration.Gravity + d})
	}
	if got := WindowedVibration(alt, 2); !almostEqual(got, 1, 0.01) {
		t.Errorf("alternating stream vibration = %v, want ≈ 1", got)
	}
	// Degenerate inputs.
	if got := WindowedVibration(nil, 2); got != 0 {
		t.Errorf("nil stream = %v, want 0", got)
	}
	if got := WindowedVibration(alt, 0); got != 0 {
		t.Errorf("zero window = %v, want 0", got)
	}
}

func TestVibrationAt(t *testing.T) {
	tr := tinyTrace(t)
	// Mid-stream vibration should be near the bus level.
	v := tr.VibrationAt(8, 6)
	if v < 3 || v > 10 {
		t.Errorf("VibrationAt(8) = %v, want bus-like level", v)
	}
	// Before any samples: zero.
	if got := tr.VibrationAt(-5, 6); got != 0 {
		t.Errorf("VibrationAt(-5) = %v, want 0", got)
	}
	// Default window kicks in for non-positive windowSec.
	if got := tr.VibrationAt(8, 0); got <= 0 {
		t.Errorf("VibrationAt with default window = %v, want > 0", got)
	}
}

func TestLink(t *testing.T) {
	tr := tinyTrace(t)
	link, err := tr.Link()
	if err != nil {
		t.Fatal(err)
	}
	if link.SignalDBm() != -90 {
		t.Errorf("link initial signal = %v, want -90", link.SignalDBm())
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Spec{}, evalRateMap()); !errors.Is(err, ErrBadSpec) {
		t.Errorf("empty spec err = %v, want ErrBadSpec", err)
	}
	spec := TableVSpecs()[0]
	if _, err := Generate(spec, nil); !errors.Is(err, ErrNilRateMap) {
		t.Errorf("nil rate map err = %v, want ErrNilRateMap", err)
	}
}

func TestGenerateTableVStats(t *testing.T) {
	traces, err := GenerateTableV(evalRateMap())
	if err != nil {
		t.Fatal(err)
	}
	specs := TableVSpecs()
	if len(traces) != 5 {
		t.Fatalf("got %d traces, want 5", len(traces))
	}
	for i, tr := range traces {
		spec := specs[i]
		if tr.ID != spec.ID {
			t.Errorf("trace %d ID = %d", i, tr.ID)
		}
		if err := tr.Validate(); err != nil {
			t.Errorf("trace %d invalid: %v", tr.ID, err)
		}
		if !almostEqual(tr.LengthSec, spec.LengthSec, 1e-9) {
			t.Errorf("trace %d length = %v, want %v", tr.ID, tr.LengthSec, spec.LengthSec)
		}
		if !almostEqual(tr.DataSizeMB(), spec.DataSizeMB, 0.01) {
			t.Errorf("trace %d data size = %.1f, want %.1f", tr.ID, tr.DataSizeMB(), spec.DataSizeMB)
		}
		// Vibration rescaling should land within 10% of the target.
		got := tr.AvgVibration()
		if math.Abs(got-spec.TargetVibration)/spec.TargetVibration > 0.10 {
			t.Errorf("trace %d avg vibration = %.2f, want ≈ %.2f", tr.ID, got, spec.TargetVibration)
		}
		// Signal should hover near the spec mean.
		if !almostEqual(tr.AvgSignalDBm(), spec.SignalMeanDBm, 4) {
			t.Errorf("trace %d avg signal = %.1f, want ≈ %.1f", tr.ID, tr.AvgSignalDBm(), spec.SignalMeanDBm)
		}
	}
	// Trace 2 must be the calmest and best-covered (the paper's
	// explanation for its high QoE across all approaches).
	if traces[1].AvgVibration() >= traces[0].AvgVibration() {
		t.Error("trace 2 should vibrate less than trace 1")
	}
	if traces[1].AvgSignalDBm() <= traces[0].AvgSignalDBm() {
		t.Error("trace 2 should have stronger signal than trace 1")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := TableVSpecs()[2]
	a, err := Generate(spec, evalRateMap())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(spec, evalRateMap())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Network) != len(b.Network) || len(a.Accel) != len(b.Accel) {
		t.Fatal("lengths diverged")
	}
	for i := range a.Network {
		if a.Network[i] != b.Network[i] {
			t.Fatal("network points diverged")
		}
	}
	for i := range a.Accel {
		if a.Accel[i] != b.Accel[i] {
			t.Fatal("accel samples diverged")
		}
	}
}

// Throughput must constrain the top bitrate some of the time (so the
// throughput/buffer-based baselines actually adapt, as in the paper)
// but not so often that a 5.8 Mbps YouTube session stalls persistently
// (its 30 s buffer must cover the dips: the paper's YouTube baseline
// keeps the highest QoE).
func TestGenerateThroughputDipsButSupportsTopBitrate(t *testing.T) {
	traces, err := GenerateTableV(evalRateMap())
	if err != nil {
		t.Fatal(err)
	}
	var anyDips bool
	for _, tr := range traces {
		var starved int
		for _, p := range tr.Network {
			if p.ThroughputMBps*8 < 5.8 {
				starved++
			}
		}
		frac := float64(starved) / float64(len(tr.Network))
		if frac > 0.40 {
			t.Errorf("trace %d starves top bitrate %.0f%% of the time, want <= 40%%", tr.ID, frac*100)
		}
		if frac > 0.05 {
			anyDips = true
		}
	}
	if !anyDips {
		t.Error("no trace ever constrains the top bitrate; baselines would never adapt")
	}
}
