package vibration

import (
	"errors"
	"fmt"
	"math"
)

// ContextClass is a coarse viewing-environment label inferred from the
// accelerometer. The paper senses the *level* of vibration; the
// classifier goes one step further and names the environment, which
// lets applications pick policies (e.g. prefetch aggressiveness) per
// context.
type ContextClass int

// Context classes, ordered by vibration intensity.
const (
	// ClassStill is a phone at rest (table, tripod).
	ClassStill ContextClass = iota + 1
	// ClassHandheld is light human handling (sofa, cafe).
	ClassHandheld
	// ClassSmoothVehicle is a train or highway car.
	ClassSmoothVehicle
	// ClassRoughVehicle is a city bus or rough road.
	ClassRoughVehicle
)

// String names the class.
func (c ContextClass) String() string {
	switch c {
	case ClassStill:
		return "still"
	case ClassHandheld:
		return "handheld"
	case ClassSmoothVehicle:
		return "smooth-vehicle"
	case ClassRoughVehicle:
		return "rough-vehicle"
	default:
		return fmt.Sprintf("ContextClass(%d)", int(c))
	}
}

// Features are the classifier's inputs, extracted from a window of
// accelerometer samples.
type Features struct {
	// RMS is the Eq. 5 vibration level over the window (m/s²).
	RMS float64
	// DominantFreqHz is the strongest oscillation frequency found in
	// the magnitude-deviation signal (0 when no clear peak exists).
	DominantFreqHz float64
	// PeakRatio is the dominant frequency's spectral power over the
	// window's total deviation power, in [0, 1]; periodic vibration
	// (engines, rails) scores high, white handling noise scores low.
	PeakRatio float64
}

// ErrTooFewSamples is returned when a feature window is too short.
var ErrTooFewSamples = errors.New("vibration: need at least 16 samples for features")

// goertzelPower returns the normalised spectral power of the deviation
// signal xs (sampled at rateHz) at frequency f via the Goertzel
// recurrence.
func goertzelPower(xs []float64, rateHz, f float64) float64 {
	n := len(xs)
	if n == 0 || rateHz <= 0 || f <= 0 || f >= rateHz/2 {
		return 0
	}
	w := 2 * math.Pi * f / rateHz
	coeff := 2 * math.Cos(w)
	var s0, s1, s2 float64
	for _, x := range xs {
		s0 = x + coeff*s1 - s2
		s2 = s1
		s1 = s0
	}
	power := s1*s1 + s2*s2 - coeff*s1*s2
	return power / float64(n) / float64(n) * 2
}

// ExtractFeatures computes classifier features over a sample window.
// The samples must be (close to) uniformly spaced; the rate is
// inferred from the timestamps.
func ExtractFeatures(samples []Sample) (Features, error) {
	if len(samples) < 16 {
		return Features{}, ErrTooFewSamples
	}
	span := samples[len(samples)-1].TimeSec - samples[0].TimeSec
	if span <= 0 {
		return Features{}, errors.New("vibration: zero time span")
	}
	rateHz := float64(len(samples)-1) / span

	// Deviation signal: magnitude minus window mean (gravity removal).
	mags := make([]float64, len(samples))
	var mean float64
	for i, s := range samples {
		mags[i] = s.Magnitude()
		mean += mags[i]
	}
	mean /= float64(len(mags))
	var totalPower float64
	for i := range mags {
		mags[i] -= mean
		totalPower += mags[i] * mags[i]
	}
	totalPower /= float64(len(mags))

	f := Features{RMS: math.Sqrt(totalPower)}
	if totalPower <= 1e-12 {
		return f, nil
	}

	// Scan candidate frequencies (0.5 .. 8 Hz covers footsteps through
	// engine vibration).
	bestPower := 0.0
	for freq := 0.5; freq <= 8.0; freq += 0.25 {
		if p := goertzelPower(mags, rateHz, freq); p > bestPower {
			bestPower = p
			f.DominantFreqHz = freq
		}
	}
	f.PeakRatio = bestPower / totalPower
	if f.PeakRatio > 1 {
		f.PeakRatio = 1
	}
	if f.PeakRatio < 0.05 {
		// No meaningful periodicity.
		f.DominantFreqHz = 0
		f.PeakRatio = 0
	}
	return f, nil
}

// Classify maps features to a context class with simple, documented
// thresholds calibrated against the package's synthetic profiles.
func Classify(f Features) ContextClass {
	switch {
	case f.RMS < 0.35:
		return ClassStill
	case f.RMS < 1.5:
		return ClassHandheld
	case f.RMS < 3.5:
		return ClassSmoothVehicle
	default:
		return ClassRoughVehicle
	}
}

// Classifier is the streaming form: push samples, read the features of
// the trailing window, and map them to a class with Classify.
//
// Construct with NewClassifier; the zero value is unusable.
type Classifier struct {
	est *Estimator
}

// NewClassifier returns a classifier over the trailing windowSec
// seconds.
func NewClassifier(windowSec float64) (*Classifier, error) {
	est, err := NewEstimator(windowSec)
	if err != nil {
		return nil, err
	}
	return &Classifier{est: est}, nil
}

// Push adds a sample.
func (c *Classifier) Push(s Sample) { c.est.Push(s) }

// PushAll adds a batch of time-ordered samples.
func (c *Classifier) PushAll(samples []Sample) { c.est.PushAll(samples) }

// Features extracts features over the current window.
func (c *Classifier) Features() (Features, error) {
	return ExtractFeatures(c.est.samples)
}
