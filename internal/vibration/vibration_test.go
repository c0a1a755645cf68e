package vibration

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSampleMagnitude(t *testing.T) {
	tests := []struct {
		name string
		s    Sample
		want float64
	}{
		{name: "zero", s: Sample{}, want: 0},
		{name: "unit z", s: Sample{Z: 1}, want: 1},
		{name: "pythagorean", s: Sample{X: 3, Y: 4}, want: 5},
		{name: "gravity", s: Sample{Z: Gravity}, want: Gravity},
		{name: "negative axes", s: Sample{X: -3, Y: -4}, want: 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.s.Magnitude(); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("Magnitude = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestLevelDegenerate(t *testing.T) {
	if got := Level(nil); got != 0 {
		t.Errorf("Level(nil) = %v, want 0", got)
	}
	if got := Level([]Sample{{Z: Gravity}}); got != 0 {
		t.Errorf("Level(single) = %v, want 0", got)
	}
}

func TestLevelConstantMagnitudeIsZero(t *testing.T) {
	// A static phone (constant gravity reading) must report zero
	// vibration regardless of orientation.
	samples := []Sample{
		{TimeSec: 0, Z: Gravity},
		{TimeSec: 0.02, Z: Gravity},
		{TimeSec: 0.04, Z: Gravity},
	}
	if got := Level(samples); got != 0 {
		t.Errorf("Level(static) = %v, want 0", got)
	}
	// Rotated phone: same magnitude on different axes.
	rot := []Sample{
		{TimeSec: 0, X: Gravity},
		{TimeSec: 0.02, Y: Gravity},
		{TimeSec: 0.04, Z: Gravity},
	}
	if got := Level(rot); !almostEqual(got, 0, 1e-9) {
		t.Errorf("Level(rotated static) = %v, want 0 (gravity removed)", got)
	}
}

func TestLevelKnownDeviation(t *testing.T) {
	// Magnitudes alternate g+1, g-1: mean g, RMS deviation 1.
	var samples []Sample
	for i := 0; i < 100; i++ {
		d := 1.0
		if i%2 == 1 {
			d = -1.0
		}
		samples = append(samples, Sample{TimeSec: float64(i) * 0.02, Z: Gravity + d})
	}
	if got := Level(samples); !almostEqual(got, 1, 1e-9) {
		t.Errorf("Level = %v, want 1", got)
	}
}

// Level is invariant under adding a constant to all magnitudes
// (gravity removal) and scales linearly with deviation amplitude.
func TestLevelProperties(t *testing.T) {
	f := func(ampRaw, offRaw uint8) bool {
		amp := float64(ampRaw%70)/10 + 0.1
		off := float64(offRaw % 5)
		base := make([]Sample, 0, 60)
		shifted := make([]Sample, 0, 60)
		for i := 0; i < 60; i++ {
			d := amp
			if i%2 == 1 {
				d = -amp
			}
			base = append(base, Sample{TimeSec: float64(i), Z: Gravity + d})
			shifted = append(shifted, Sample{TimeSec: float64(i), Z: Gravity + off + d})
		}
		l1, l2 := Level(base), Level(shifted)
		return almostEqual(l1, amp, 1e-9) && almostEqual(l1, l2, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewEstimatorValidation(t *testing.T) {
	if _, err := NewEstimator(0); !errors.Is(err, ErrBadWindow) {
		t.Errorf("err = %v, want ErrBadWindow", err)
	}
	if _, err := NewEstimator(-3); !errors.Is(err, ErrBadWindow) {
		t.Errorf("err = %v, want ErrBadWindow", err)
	}
	e, err := NewEstimator(DefaultWindowSec)
	if err != nil {
		t.Fatal(err)
	}
	if e.windowSec != DefaultWindowSec {
		t.Errorf("WindowSec = %v, want %v", e.windowSec, DefaultWindowSec)
	}
}

func TestEstimatorWindowEviction(t *testing.T) {
	e, err := NewEstimator(1.0)
	if err != nil {
		t.Fatal(err)
	}
	// Early samples with huge deviation, later samples static. After
	// the window slides past the early ones, the level must drop to 0.
	for i := 0; i < 10; i++ {
		e.Push(Sample{TimeSec: float64(i) * 0.1, Z: Gravity + 5*math.Pow(-1, float64(i))})
	}
	if e.Level() == 0 {
		t.Fatal("expected non-zero level during vibration")
	}
	for i := 0; i < 30; i++ {
		e.Push(Sample{TimeSec: 1.0 + float64(i)*0.1, Z: Gravity})
	}
	if got := e.Level(); !almostEqual(got, 0, 1e-9) {
		t.Errorf("Level after quiet window = %v, want 0", got)
	}
	// Window holds ~1s of 10 Hz samples.
	if e.Len() > 12 {
		t.Errorf("window holds %d samples, want <= 12", e.Len())
	}
}

func TestEstimatorPushAllAndReset(t *testing.T) {
	e, err := NewEstimator(2.0)
	if err != nil {
		t.Fatal(err)
	}
	batch := []Sample{
		{TimeSec: 0, Z: Gravity + 1},
		{TimeSec: 0.5, Z: Gravity - 1},
		{TimeSec: 1.0, Z: Gravity + 1},
	}
	e.pushAll(batch)
	if e.Len() != 3 {
		t.Errorf("Len = %d, want 3", e.Len())
	}
	if e.Level() == 0 {
		t.Error("expected non-zero level")
	}
	e.Reset()
	if e.Len() != 0 || e.Level() != 0 {
		t.Error("Reset did not clear the window")
	}
}

func TestGeneratorValidation(t *testing.T) {
	if _, err := NewGenerator(0, 1); !errors.Is(err, ErrBadRate) {
		t.Errorf("err = %v, want ErrBadRate", err)
	}
	if _, err := NewGenerator(-50, 1); !errors.Is(err, ErrBadRate) {
		t.Errorf("err = %v, want ErrBadRate", err)
	}
}

func TestGeneratorTracksProfileLevel(t *testing.T) {
	names := []string{"quiet-room", "cafe", "train", "car", "bus"} // Profiles() order
	for i, p := range Profiles() {
		t.Run(names[i], func(t *testing.T) {
			g, err := NewGenerator(DefaultSampleRateHz, 42)
			if err != nil {
				t.Fatal(err)
			}
			samples := g.Generate(p, 0, 60)
			got := Level(samples)
			// Within 25% of the target (bumps add variance).
			lo, hi := p.BaseLevel*0.75, p.BaseLevel*1.35+0.2
			if got < lo || got > hi {
				t.Errorf("Level = %.2f, want within [%.2f, %.2f]", got, lo, hi)
			}
		})
	}
}

func TestGeneratorOrderingAndGravity(t *testing.T) {
	g, err := NewGenerator(50, 7)
	if err != nil {
		t.Fatal(err)
	}
	samples := g.Generate(Bus, 10, 5)
	if len(samples) != 250 {
		t.Fatalf("got %d samples, want 250", len(samples))
	}
	for i := 1; i < len(samples); i++ {
		if samples[i].TimeSec <= samples[i-1].TimeSec {
			t.Fatal("samples not strictly time-ordered")
		}
	}
	if samples[0].TimeSec < 10 {
		t.Errorf("first sample at %v, want >= 10 (startSec)", samples[0].TimeSec)
	}
	// Mean magnitude should hover around gravity.
	var mean float64
	for _, s := range samples {
		mean += s.Magnitude()
	}
	mean /= float64(len(samples))
	if !almostEqual(mean, Gravity, 1.0) {
		t.Errorf("mean magnitude = %.2f, want ≈ %.2f", mean, Gravity)
	}
}

func TestGeneratorDeterministicBySeed(t *testing.T) {
	g1, _ := NewGenerator(50, 99)
	g2, _ := NewGenerator(50, 99)
	s1 := g1.Generate(Car, 0, 2)
	s2 := g2.Generate(Car, 0, 2)
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatal("generators with equal seeds diverged")
		}
	}
}

func TestGeneratorEmptyDuration(t *testing.T) {
	g, _ := NewGenerator(50, 1)
	if got := g.Generate(Bus, 0, 0); got != nil {
		t.Errorf("zero duration = %v samples, want nil", len(got))
	}
	if got := g.Generate(Bus, 0, -5); got != nil {
		t.Errorf("negative duration = %v samples, want nil", len(got))
	}
}

func TestGenerateSchedule(t *testing.T) {
	g, _ := NewGenerator(50, 3)
	// Bus for the first 30 s, then a stop (quiet) for 30 s.
	schedule := func(t float64) Profile {
		if t < 30 {
			return Bus
		}
		return QuietRoom
	}
	samples := g.GenerateSchedule(schedule, 0, 60)
	var first, second []Sample
	for _, s := range samples {
		if s.TimeSec < 30 {
			first = append(first, s)
		} else {
			second = append(second, s)
		}
	}
	if Level(first) < 3 {
		t.Errorf("bus phase level = %.2f, want >= 3", Level(first))
	}
	if Level(second) > 1 {
		t.Errorf("stop phase level = %.2f, want <= 1", Level(second))
	}
}

func TestProfilesOrderedByLevel(t *testing.T) {
	ps := Profiles()
	for i := 1; i < len(ps); i++ {
		if ps[i].BaseLevel <= ps[i-1].BaseLevel {
			t.Errorf("profiles not ordered by level: profile %d (%v) <= profile %d (%v)", i, ps[i].BaseLevel, i-1, ps[i-1].BaseLevel)
		}
	}
}

// Pinned edge-case behavior (ISSUE 6 satellite): Level and the
// Estimator must report 0 whenever fewer than two samples are in
// scope, and the estimator's window must be the closed interval
// [t-w, t] (a sample exactly WindowSec old is retained).
func TestLevelFewSamplesTable(t *testing.T) {
	cases := []struct {
		name    string
		samples []Sample
		want    float64
	}{
		{"nil", nil, 0},
		{"empty", []Sample{}, 0},
		{"single", []Sample{{TimeSec: 0, Z: Gravity + 3}}, 0},
		{"two equal magnitudes", []Sample{
			{TimeSec: 0, Z: Gravity},
			{TimeSec: 1, Z: Gravity},
		}, 0},
		{"two distinct magnitudes", []Sample{
			{TimeSec: 0, Z: 2},
			{TimeSec: 1, Z: 4},
		}, 1}, // magnitudes 2 and 4: mean 3, deviations ±1, RMS 1
	}
	for _, tc := range cases {
		if got := Level(tc.samples); !almostEqual(got, tc.want, 1e-12) {
			t.Errorf("%s: Level = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestEstimatorEdgeCasesTable(t *testing.T) {
	cases := []struct {
		name     string
		window   float64
		pushes   []Sample
		wantLen  int
		wantZero bool
	}{
		{"empty estimator", 1, nil, 0, true},
		{"single sample", 1, []Sample{{TimeSec: 0, Z: 2}}, 1, true},
		{
			// The window is inclusive: at t=1 with window 1, the
			// sample at t=0 is exactly WindowSec old and stays.
			"boundary sample retained", 1,
			[]Sample{{TimeSec: 0, Z: 2}, {TimeSec: 1, Z: 4}},
			2, false,
		},
		{
			// Just past the boundary the old sample is evicted and a
			// lone survivor reports 0.
			"boundary sample evicted", 1,
			[]Sample{{TimeSec: 0, Z: 2}, {TimeSec: 1.001, Z: 4}},
			1, true,
		},
		{
			// A long silence then one sample: everything before the
			// gap evicts, level collapses to 0 rather than reporting
			// stale motion.
			"gap past window", 2,
			[]Sample{
				{TimeSec: 0, Z: 2}, {TimeSec: 0.5, Z: 5}, {TimeSec: 1, Z: 3},
				{TimeSec: 100, Z: 4},
			},
			1, true,
		},
		{
			// Samples at identical timestamps all stay in scope.
			"duplicate timestamps", 1,
			[]Sample{{TimeSec: 3, Z: 2}, {TimeSec: 3, Z: 4}, {TimeSec: 3, Z: 6}},
			3, false,
		},
	}
	for _, tc := range cases {
		e, err := NewEstimator(tc.window)
		if err != nil {
			t.Fatalf("%s: NewEstimator: %v", tc.name, err)
		}
		e.pushAll(tc.pushes)
		if e.Len() != tc.wantLen {
			t.Errorf("%s: Len = %d, want %d", tc.name, e.Len(), tc.wantLen)
		}
		if got := e.Level(); (got == 0) != tc.wantZero {
			t.Errorf("%s: Level = %v, wantZero = %v", tc.name, got, tc.wantZero)
		}
	}
}

// The streaming estimator and the trace-replay window query must agree
// when fed the same stream: Push-ing every sample up to time t gives
// the same window as VibrationAt's [t-w, t] binary search. (The trace
// side of this contract lives in internal/trace; here we pin the
// estimator against a manual reconstruction of the inclusive window.)
func TestEstimatorMatchesManualWindow(t *testing.T) {
	const w = 2.0
	e, err := NewEstimator(w)
	if err != nil {
		t.Fatal(err)
	}
	var stream []Sample
	for i := 0; i < 100; i++ {
		ts := float64(i) * 0.13
		stream = append(stream, Sample{TimeSec: ts, X: math.Sin(float64(i)), Z: Gravity})
	}
	for n, s := range stream {
		e.Push(s)
		var win []Sample
		for _, p := range stream[:n+1] {
			if p.TimeSec >= s.TimeSec-w {
				win = append(win, p)
			}
		}
		if got, want := e.Level(), Level(win); got != want {
			t.Fatalf("at sample %d: estimator %v, manual window %v", n, got, want)
		}
	}
}
