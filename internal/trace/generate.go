package trace

import (
	"errors"
	"fmt"
	"math"

	"ecavs/internal/netsim"
	"ecavs/internal/vibration"
)

// Spec describes a trace to synthesise. The Table V columns (length,
// data size, average vibration) are targets the generator reproduces;
// the signal parameters shape the link the session experienced.
type Spec struct {
	// ID is the Table V trace number.
	ID int
	// Name describes the session.
	Name string
	// LengthSec is the video length.
	LengthSec float64
	// DataSizeMB is the Table V data-size target; it fixes the native
	// bitrate as 8 x size / length.
	DataSizeMB float64
	// TargetVibration is the Table V average vibration level.
	TargetVibration float64
	// SignalMeanDBm is the session's mean signal strength.
	SignalMeanDBm float64
	// SignalVolatilityDB is the OU diffusion magnitude.
	SignalVolatilityDB float64
	// SignalSwingDB is the amplitude of the slow coverage swing
	// (cell handovers along the route).
	SignalSwingDB float64
	// CapAt90Mbps caps the link rate at the -90 dBm reference (LTE
	// cell capacity); 0 disables the cap. The cap shrinks by a decade
	// every CapDecadeDB dB below the reference, so weak-coverage
	// stretches constrain even a 5.8 Mbps stream — the condition under
	// which FESTIVE and BBA actually adapt.
	CapAt90Mbps float64
	// CapDecadeDB is the dB drop per decade of capacity (default 25).
	CapDecadeDB float64
	// Seed makes the trace reproducible.
	Seed int64
}

// TableVSpecs returns the five evaluation traces of Table V. Traces 1,
// 3, and 4 are bus rides (high vibration, weak signal), trace 2 is a
// smooth train ride with good coverage, and trace 5 is a city car ride.
func TableVSpecs() []Spec {
	return []Spec{
		{ID: 1, Name: "bus-short", LengthSec: 198, DataSizeMB: 65.1, TargetVibration: 6.83,
			SignalMeanDBm: -107, SignalVolatilityDB: 3.0, SignalSwingDB: 5,
			CapAt90Mbps: 40, CapDecadeDB: 25, Seed: 101},
		{ID: 2, Name: "train", LengthSec: 371, DataSizeMB: 123.8, TargetVibration: 2.46,
			SignalMeanDBm: -94, SignalVolatilityDB: 1.5, SignalSwingDB: 2,
			CapAt90Mbps: 40, CapDecadeDB: 25, Seed: 102},
		{ID: 3, Name: "bus-long", LengthSec: 449, DataSizeMB: 140.6, TargetVibration: 6.61,
			SignalMeanDBm: -106, SignalVolatilityDB: 3.2, SignalSwingDB: 5,
			CapAt90Mbps: 40, CapDecadeDB: 25, Seed: 103},
		{ID: 4, Name: "bus-commute", LengthSec: 498, DataSizeMB: 152.2, TargetVibration: 6.41,
			SignalMeanDBm: -105, SignalVolatilityDB: 3.0, SignalSwingDB: 6,
			CapAt90Mbps: 40, CapDecadeDB: 25, Seed: 104},
		{ID: 5, Name: "car-city", LengthSec: 612, DataSizeMB: 173.1, TargetVibration: 5.23,
			SignalMeanDBm: -102, SignalVolatilityDB: 2.5, SignalSwingDB: 5,
			CapAt90Mbps: 40, CapDecadeDB: 25, Seed: 105},
	}
}

// Validation errors for specs.
var (
	ErrBadSpec    = errors.New("trace: spec must have positive length and data size")
	ErrNilRateMap = errors.New("trace: rate map must not be nil")
)

// networkSampleSec is the signal/throughput trace sampling interval.
const networkSampleSec = 1.0

// Generate synthesises the trace described by spec. rateMap converts
// signal strength to nominal link rate in MB/s (typically
// power.Model.NominalThroughputMBps).
func Generate(spec Spec, rateMap func(dBm float64) float64) (*Trace, error) {
	if spec.LengthSec <= 0 || spec.DataSizeMB <= 0 {
		return nil, ErrBadSpec
	}
	if rateMap == nil {
		return nil, ErrNilRateMap
	}

	// Network: OU signal with a slow coverage swing along the route.
	swing := spec.SignalSwingDB
	period := 120.0
	cfg := netsim.SignalConfig{
		MeanDBm: spec.SignalMeanDBm,
		MeanAt: func(t float64) float64 {
			return spec.SignalMeanDBm + swing*math.Sin(2*math.Pi*t/period)
		},
		ReversionRate: 0.25,
		VolatilityDB:  spec.SignalVolatilityDB,
	}
	// Compose the power-model rate with the cell-capacity ceiling: the
	// energy-per-byte relationship stays intact, but weak coverage
	// limits the achievable rate like a real congested cell edge.
	effRate := rateMap
	if spec.CapAt90Mbps > 0 {
		decade := spec.CapDecadeDB
		if decade <= 0 {
			decade = 25
		}
		capMBps := func(dBm float64) float64 {
			return spec.CapAt90Mbps / 8 * math.Pow(10, (dBm+90)/decade)
		}
		effRate = func(dBm float64) float64 {
			if c := capMBps(dBm); c < rateMap(dBm) {
				return c
			}
			return rateMap(dBm)
		}
	}
	ch, err := netsim.NewChannel(cfg, effRate, spec.Seed)
	if err != nil {
		return nil, fmt.Errorf("trace: channel: %w", err)
	}
	n := int(spec.LengthSec/networkSampleSec) + 1
	points := make([]netsim.TracePoint, 0, n)
	for i := 0; i < n; i++ {
		points = append(points, netsim.TracePoint{
			TimeSec:        ch.Now(),
			SignalDBm:      ch.SignalDBm(),
			ThroughputMBps: ch.ThroughputMBps(),
		})
		ch.Advance(networkSampleSec)
	}

	// Accelerometer: profile targeting the Table V vibration level,
	// then rescaled so the windowed average lands on the target.
	gen, err := vibration.NewGenerator(vibration.DefaultSampleRateHz, spec.Seed+1)
	if err != nil {
		return nil, fmt.Errorf("trace: accel generator: %w", err)
	}
	profile := profileForLevel(spec.TargetVibration)
	accel := gen.Generate(profile, 0, spec.LengthSec)
	accel = rescaleVibration(accel, spec.TargetVibration)

	tr := &Trace{
		ID:                spec.ID,
		Name:              spec.Name,
		LengthSec:         spec.LengthSec,
		NativeBitrateMbps: spec.DataSizeMB * 8 / spec.LengthSec,
		Network:           points,
		Accel:             accel,
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}

// GenerateTableV synthesises all five Table V traces.
func GenerateTableV(rateMap func(dBm float64) float64) ([]*Trace, error) {
	specs := TableVSpecs()
	out := make([]*Trace, 0, len(specs))
	for _, s := range specs {
		tr, err := Generate(s, rateMap)
		if err != nil {
			return nil, fmt.Errorf("trace %d: %w", s.ID, err)
		}
		out = append(out, tr)
	}
	return out, nil
}

// profileForLevel picks the vehicle profile nearest the target level
// and retargets its base level.
func profileForLevel(level float64) vibration.Profile {
	best := vibration.QuietRoom
	bestDiff := diff(best.BaseLevel, level)
	for _, p := range vibration.Profiles() {
		if d := diff(p.BaseLevel, level); d < bestDiff {
			best, bestDiff = p, d
		}
	}
	best.BaseLevel = level
	return best
}

// rescaleVibration scales the magnitude deviations from gravity so the
// windowed vibration average matches the target exactly (up to the
// window-mean approximation).
func rescaleVibration(samples []vibration.Sample, target float64) []vibration.Sample {
	measured := WindowedVibration(samples, vibration.DefaultWindowSec)
	if measured <= 0 || target <= 0 {
		return samples
	}
	k := target / measured
	out := make([]vibration.Sample, len(samples))
	for i, s := range samples {
		mag := s.Magnitude()
		newMag := vibration.Gravity + (mag-vibration.Gravity)*k
		if newMag < 0 {
			newMag = 0
		}
		scale := 0.0
		if mag > 0 {
			scale = newMag / mag
		}
		out[i] = vibration.Sample{TimeSec: s.TimeSec, X: s.X * scale, Y: s.Y * scale, Z: s.Z * scale}
	}
	return out
}

func diff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}
