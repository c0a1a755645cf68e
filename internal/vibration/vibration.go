// Package vibration implements the paper's context-sensing substrate:
// synthetic 3-axis accelerometer streams for different viewing
// environments, the vibration-level metric of Eq. 5 (RMS deviation of
// the acceleration magnitude from its window mean, which removes
// gravity), and the sliding-window online estimator of Section IV-B.
package vibration

import (
	"errors"
	"math"
)

// Gravity is standard gravity in m/s²; synthetic samples are generated
// around it so gravity removal is actually exercised.
const Gravity = 9.80665

// Sample is one accelerometer reading.
type Sample struct {
	// TimeSec is the sample timestamp in seconds from stream start.
	TimeSec float64
	// X, Y, Z are the axis accelerations in m/s² (gravity included, as
	// delivered by Android's TYPE_ACCELEROMETER).
	X, Y, Z float64
}

// Magnitude returns the Euclidean norm of the acceleration vector.
func (s Sample) Magnitude() float64 {
	return math.Sqrt(s.X*s.X + s.Y*s.Y + s.Z*s.Z)
}

// Level computes the paper's Eq. 5 vibration level over a batch of
// samples: the RMS deviation of the acceleration magnitude from its
// mean. Subtracting the window mean removes the gravity component
// without needing device orientation. Returns 0 for fewer than two
// samples.
func Level(samples []Sample) float64 {
	if len(samples) < 2 {
		return 0
	}
	// Two passes recomputing the magnitudes instead of buffering them:
	// Level sits on the simulator's per-segment path, where a scratch
	// slice per call dominated the session's allocation profile.
	var mean float64
	for _, s := range samples {
		mean += s.Magnitude()
	}
	mean /= float64(len(samples))
	var ss float64
	for _, s := range samples {
		d := s.Magnitude() - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(samples)))
}

// Estimator is the online vibration-level estimator of Section IV-B:
// it keeps the accelerometer samples of the trailing windowSec seconds
// (the window NewEstimator was given) and reports Eq. 5 over that
// window. The paper uses a window of 0.2 x the 30 s buffer threshold,
// i.e. 6 s.
//
// The zero value is unusable; construct with NewEstimator.
type Estimator struct {
	windowSec float64
	samples   []Sample
}

// DefaultWindowSec is the paper's online estimation window
// (0.2 x 30 s buffer threshold).
const DefaultWindowSec = 6.0

// ErrBadWindow is returned for non-positive estimation windows.
var ErrBadWindow = errors.New("vibration: window must be positive")

// NewEstimator returns an estimator over the trailing windowSec
// seconds.
func NewEstimator(windowSec float64) (*Estimator, error) {
	if windowSec <= 0 {
		return nil, ErrBadWindow
	}
	return &Estimator{windowSec: windowSec}, nil
}

// Push adds a sample. Samples must arrive in non-decreasing time
// order; older samples that fall out of the window are evicted. The
// window is the closed interval [s.TimeSec - windowSec, s.TimeSec]: a
// sample exactly windowSec old is retained, matching the inclusive
// [t-w, t] bounds trace.VibrationAt uses, so the streaming estimator
// and the trace-replay query agree sample-for-sample.
func (e *Estimator) Push(s Sample) {
	e.samples = append(e.samples, s)
	cutoff := s.TimeSec - e.windowSec
	// Evict from the front; samples are time-ordered.
	i := 0
	for i < len(e.samples) && e.samples[i].TimeSec < cutoff {
		i++
	}
	if i > 0 {
		e.samples = append(e.samples[:0], e.samples[i:]...)
	}
}

// Level returns Eq. 5 over the current window. With fewer than two
// samples in the window — an empty estimator, or a stream whose last
// sample is more than windowSec older than everything before it —
// there is no deviation to measure and Level reports 0, the same
// pinned edge behavior as trace.Cursor.VibrationAt for queries past
// the trace end.
func (e *Estimator) Level() float64 { return Level(e.samples) }

// Len reports the number of samples currently in the window.
func (e *Estimator) Len() int { return len(e.samples) }

// Reset discards all samples.
func (e *Estimator) Reset() { e.samples = e.samples[:0] }
