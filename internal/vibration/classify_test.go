package vibration

import (
	"errors"
	"math"
	"testing"
)

func TestContextClassString(t *testing.T) {
	tests := []struct {
		c    ContextClass
		want string
	}{
		{c: ClassStill, want: "still"},
		{c: ClassHandheld, want: "handheld"},
		{c: ClassSmoothVehicle, want: "smooth-vehicle"},
		{c: ClassRoughVehicle, want: "rough-vehicle"},
		{c: ContextClass(42), want: "ContextClass(42)"},
	}
	for _, tt := range tests {
		if got := tt.c.String(); got != tt.want {
			t.Errorf("String = %q, want %q", got, tt.want)
		}
	}
}

func TestExtractFeaturesValidation(t *testing.T) {
	if _, err := ExtractFeatures(nil); !errors.Is(err, ErrTooFewSamples) {
		t.Errorf("err = %v, want ErrTooFewSamples", err)
	}
	short := make([]Sample, 10)
	if _, err := ExtractFeatures(short); !errors.Is(err, ErrTooFewSamples) {
		t.Errorf("err = %v, want ErrTooFewSamples", err)
	}
	// Zero time span.
	flat := make([]Sample, 20)
	if _, err := ExtractFeatures(flat); err == nil {
		t.Error("zero-span window accepted")
	}
}

func TestExtractFeaturesStillPhone(t *testing.T) {
	var samples []Sample
	for i := 0; i < 200; i++ {
		samples = append(samples, Sample{TimeSec: float64(i) * 0.02, Z: Gravity})
	}
	f, err := ExtractFeatures(samples)
	if err != nil {
		t.Fatal(err)
	}
	if f.RMS > 1e-9 {
		t.Errorf("RMS = %v, want 0", f.RMS)
	}
	if f.DominantFreqHz != 0 {
		t.Errorf("DominantFreqHz = %v, want 0", f.DominantFreqHz)
	}
}

func TestExtractFeaturesDetectsSinusoid(t *testing.T) {
	// Pure 3 Hz oscillation at amplitude 2 over gravity.
	const freq = 3.0
	var samples []Sample
	for i := 0; i < 500; i++ {
		ts := float64(i) * 0.02 // 50 Hz
		samples = append(samples, Sample{
			TimeSec: ts,
			Z:       Gravity + 2*math.Sin(2*math.Pi*freq*ts),
		})
	}
	f, err := ExtractFeatures(samples)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.DominantFreqHz-freq) > 0.3 {
		t.Errorf("DominantFreqHz = %v, want ≈ %v", f.DominantFreqHz, freq)
	}
	if f.PeakRatio < 0.5 {
		t.Errorf("PeakRatio = %v, want >= 0.5 for a pure tone", f.PeakRatio)
	}
	// RMS of a sin with amplitude 2 is sqrt(2).
	if math.Abs(f.RMS-math.Sqrt2) > 0.05 {
		t.Errorf("RMS = %v, want ≈ %v", f.RMS, math.Sqrt2)
	}
}

func TestClassifyThresholds(t *testing.T) {
	tests := []struct {
		rms  float64
		want ContextClass
	}{
		{rms: 0.1, want: ClassStill},
		{rms: 0.5, want: ClassHandheld},
		{rms: 2.5, want: ClassSmoothVehicle},
		{rms: 6.5, want: ClassRoughVehicle},
	}
	for _, tt := range tests {
		if got := Classify(Features{RMS: tt.rms}); got != tt.want {
			t.Errorf("Classify(RMS=%v) = %v, want %v", tt.rms, got, tt.want)
		}
	}
}

// End-to-end: synthetic profiles classify to the expected classes.
func TestClassifierOnProfiles(t *testing.T) {
	tests := []struct {
		profile Profile
		want    ContextClass
	}{
		{profile: QuietRoom, want: ClassStill},
		{profile: Cafe, want: ClassHandheld},
		{profile: Train, want: ClassSmoothVehicle},
		{profile: Bus, want: ClassRoughVehicle},
	}
	for _, tt := range tests {
		t.Run(tt.profile.Name, func(t *testing.T) {
			gen, err := NewGenerator(DefaultSampleRateHz, 77)
			if err != nil {
				t.Fatal(err)
			}
			c, err := NewClassifier(6)
			if err != nil {
				t.Fatal(err)
			}
			c.pushAll(gen.Generate(tt.profile, 0, 10))
			if got := c.class(); got != tt.want {
				f, _ := c.Features()
				t.Errorf("Class(%s) = %v, want %v (features %+v)", tt.profile.Name, got, tt.want, f)
			}
		})
	}
}

func TestClassifierColdStart(t *testing.T) {
	c, err := NewClassifier(6)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.class(); got != ClassStill {
		t.Errorf("cold-start Class = %v, want still", got)
	}
	if _, err := NewClassifier(0); err == nil {
		t.Error("zero window accepted")
	}
}

func TestClassifierTracksTransitions(t *testing.T) {
	gen, err := NewGenerator(DefaultSampleRateHz, 12)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClassifier(4)
	if err != nil {
		t.Fatal(err)
	}
	c.pushAll(gen.Generate(Bus, 0, 10))
	if got := c.class(); got != ClassRoughVehicle {
		t.Fatalf("bus phase = %v, want rough-vehicle", got)
	}
	// The bus stops: the class should settle back within the window.
	c.pushAll(gen.Generate(QuietRoom, 10, 10))
	if got := c.class(); got != ClassStill {
		t.Errorf("stop phase = %v, want still", got)
	}
}

func TestGoertzelDegenerate(t *testing.T) {
	if p := goertzelPower(nil, 50, 3); p != 0 {
		t.Errorf("empty signal power = %v, want 0", p)
	}
	xs := []float64{1, 2, 3}
	if p := goertzelPower(xs, 0, 3); p != 0 {
		t.Errorf("zero rate power = %v, want 0", p)
	}
	if p := goertzelPower(xs, 50, 0); p != 0 {
		t.Errorf("zero freq power = %v, want 0", p)
	}
	if p := goertzelPower(xs, 50, 30); p != 0 {
		t.Errorf("above-Nyquist power = %v, want 0", p)
	}
}

// pushAll adds a batch of time-ordered samples.
func (c *Classifier) pushAll(samples []Sample) { c.est.pushAll(samples) }

// pushAll adds a batch of time-ordered samples.
func (e *Estimator) pushAll(samples []Sample) {
	for _, s := range samples {
		e.Push(s)
	}
}

// class is the classifier's current context class; before enough
// samples have arrived it reports ClassStill.
func (c *Classifier) class() ContextClass {
	f, err := c.Features()
	if err != nil {
		return ClassStill
	}
	return Classify(f)
}
