package power

import (
	"errors"
	"math"

	"ecavs/internal/rng"
)

// Monitor is a virtual Monsoon power monitor: it integrates
// instantaneous power samples at a fixed rate, adding measurement noise
// and a slow sinusoidal drift that models the thermal and
// battery-voltage effects a real handset exhibits. It is the "measured
// energy" side of the Table VI power-model validation.
//
// Construct with NewMonitor; the zero value is unusable. The noise
// stream comes from an internal/rng stream (see normRNG), so it is
// deterministic per seed.
type Monitor struct {
	noiseStd   float64 // relative, per sample
	driftAmp   float64 // relative amplitude of the slow drift
	driftPhase float64
	bias       float64 // per-run calibration bias (multiplicative)
	rng        normRNG

	// The drift sinusoid is advanced incrementally: driftSin/driftCos
	// hold sin/cos of the current drift angle, rotated by the
	// precomputed per-sample step (stepSin/stepCos) on the fixed-rate
	// path so no trig is evaluated per sample.
	driftSin, driftCos float64
	stepSin, stepCos   float64

	energyJ float64
}

// normRNG adds normal deviates to an internal/rng stream: a 128-layer
// ziggurat whose common path is a single 64-bit draw, one compare, and
// one multiply. It exists so Monitor sampling stays cheap and free of
// math/rand's Source indirection.
type normRNG struct {
	rng.Stream
}

// Ziggurat tables (Marsaglia-Tsang layout, Doornik constants for 128
// layers), built once at init: zigX are the layer x-coordinates
// (zigX[0] is the base strip's pseudo-width v/f(R)), zigRatio[i] =
// zigX[i+1]/zigX[i] is the no-rejection acceptance bound, and zigF[i]
// = exp(-x_i²/2) supports the wedge test.
const zigR = 3.442619855899

var (
	zigX     [129]float64
	zigRatio [128]float64
	zigF     [129]float64
)

func init() {
	const v = 9.91256303526217e-3
	f := math.Exp(-0.5 * zigR * zigR)
	zigX[0] = v / f
	zigX[1] = zigR
	zigX[128] = 0
	for i := 2; i < 128; i++ {
		zigX[i] = math.Sqrt(-2 * math.Log(v/zigX[i-1]+f))
		f = math.Exp(-0.5 * zigX[i] * zigX[i])
	}
	for i := 0; i <= 128; i++ {
		zigF[i] = math.Exp(-0.5 * zigX[i] * zigX[i])
	}
	for i := 0; i < 128; i++ {
		zigRatio[i] = zigX[i+1] / zigX[i]
	}
}

// NormFloat64 returns a standard normal deviate via the ziggurat.
func (r *normRNG) NormFloat64() float64 {
	for {
		bits := r.Uint64()
		// Mantissa bits 11..63 give the uniform; the low 7 bits (a
		// disjoint set) pick the layer.
		u := 2*(float64(bits>>11)/(1<<53)) - 1
		i := bits & 127
		if u < zigRatio[i] && u > -zigRatio[i] {
			return u * zigX[i] // inside the layer rectangle: no rejection test
		}
		if i == 0 {
			// Base strip overflow: sample the tail beyond R.
			neg := u < 0
			for {
				x := -math.Log(r.Float64()) / zigR
				y := -math.Log(r.Float64())
				if y+y > x*x {
					if neg {
						return -(zigR + x)
					}
					return zigR + x
				}
			}
		}
		// Wedge between layer i and i+1.
		x := u * zigX[i]
		if zigF[i+1]+r.Float64()*(zigF[i]-zigF[i+1]) < math.Exp(-0.5*x*x) {
			return x
		}
	}
}

// The virtual monitor's settings. It samples at monitorSampleHz
// (Monsoon samples at 5 kHz, but 100 Hz is ample for second-scale
// integration). Each sample carries relative noise of standard
// deviation monitorNoiseStd and a slow systematic drift of relative
// amplitude monitorDriftAmp over monitorDriftPeriodSec, a period
// deliberately incommensurate with segment durations. Each run draws a
// multiplicative calibration bias of standard deviation monitorBiasStd,
// clamped to ±monitorBiasMax: the component that does NOT integrate
// out over a long session, and so dominates the Table VI
// model-vs-measurement error.
const (
	monitorSampleHz       float64 = 100
	monitorNoiseStd       float64 = 0.01
	monitorDriftAmp       float64 = 0.015
	monitorDriftPeriodSec float64 = 97
	monitorDriftHz                = 1 / monitorDriftPeriodSec
	monitorBiasStd        float64 = 0.012
	monitorBiasMax        float64 = 0.025
)

// NewMonitor returns a monitor whose noise, drift phase and bias are
// drawn from seed.
func NewMonitor(seed int64) *Monitor {
	draws := normRNG{rng.New(uint64(seed))}
	bias := draws.NormFloat64() * monitorBiasStd
	if bias > monitorBiasMax {
		bias = monitorBiasMax
	}
	if bias < -monitorBiasMax {
		bias = -monitorBiasMax
	}
	mo := &Monitor{
		noiseStd:   monitorNoiseStd,
		driftAmp:   monitorDriftAmp,
		driftPhase: draws.Float64() * 2 * math.Pi,
		bias:       bias,
		rng:        draws,
	}
	mo.driftSin, mo.driftCos = math.Sincos(mo.driftPhase)
	mo.stepSin, mo.stepCos = math.Sincos(2 * math.Pi * monitorDriftHz / monitorSampleHz)
	return mo
}

// ErrNegativeInterval is returned when Observe is given a negative
// duration.
var ErrNegativeInterval = errors.New("power: negative observation interval")

// advanceDrift rotates the drift angle forward by dt seconds.
// fullStep marks the precomputed fixed-rate sample step, which avoids
// re-evaluating sin/cos.
func (mo *Monitor) advanceDrift(dt float64, fullStep bool) {
	sinD, cosD := mo.stepSin, mo.stepCos
	if !fullStep {
		sinD, cosD = math.Sincos(2 * math.Pi * monitorDriftHz * dt)
	}
	s := mo.driftSin*cosD + mo.driftCos*sinD
	c := mo.driftCos*cosD - mo.driftSin*sinD
	mo.driftSin, mo.driftCos = s, c
}

// Observe integrates the given true power level over an interval,
// sampling it at the monitor's rate with noise and drift applied.
func (mo *Monitor) Observe(powerW, durationSec float64) error {
	if durationSec < 0 {
		return ErrNegativeInterval
	}
	if durationSec == 0 || powerW <= 0 {
		mo.advanceDrift(durationSec, false)
		return nil
	}
	dt := 1 / monitorSampleHz
	remaining := durationSec
	for remaining > 0 {
		step := dt
		fullStep := true
		if remaining < step {
			step = remaining
			fullStep = false
		}
		drift := 1 + mo.driftAmp*mo.driftSin
		noise := 1 + mo.rng.NormFloat64()*mo.noiseStd
		mo.energyJ += powerW * (1 + mo.bias) * drift * noise * step
		mo.advanceDrift(step, fullStep)
		remaining -= step
	}
	return nil
}

// Reset clears the accumulated energy, rewinding the drift to its
// initial phase (the noise stream continues).
func (mo *Monitor) Reset() {
	mo.energyJ = 0
	mo.driftSin, mo.driftCos = math.Sincos(mo.driftPhase)
}

// MeasureSession plays the Table VI validation workload through the
// monitor: a video of the given duration streamed at constant bitrate
// and signal strength, downloading each segment in a burst at the
// model's nominal link rate while playback continues. It returns the
// "measured" energy.
func (mo *Monitor) MeasureSession(m Model, bitrateMbps, sessionSec, signalDBm, segmentSec float64) (float64, error) {
	if segmentSec <= 0 {
		segmentSec = 2
	}
	if sessionSec <= 0 || bitrateMbps <= 0 {
		return 0, errors.New("power: session duration and bitrate must be positive")
	}
	playW := m.PlaybackPowerW(bitrateMbps)
	radioW := m.RadioPowerW(signalDBm)
	segMB := bitrateMbps / 8 * segmentSec
	dlSec := segMB / m.NominalThroughputMBps(signalDBm)

	start := mo.energyJ
	remaining := sessionSec
	for remaining > 0 {
		seg := segmentSec
		if remaining < seg {
			seg = remaining
		}
		burst := dlSec * seg / segmentSec
		if burst > seg {
			burst = seg
		}
		// Radio burst overlaps playback at the start of the segment.
		if err := mo.Observe(playW+radioW, burst); err != nil {
			return 0, err
		}
		if err := mo.Observe(playW, seg-burst); err != nil {
			return 0, err
		}
		remaining -= seg
	}
	return mo.energyJ - start, nil
}
