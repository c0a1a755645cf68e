package vibration

import (
	"errors"
	"math"
	"math/rand"
)

// Profile describes a viewing environment's vibration signature and
// drives the synthetic accelerometer generator. The generated stream's
// Eq. 5 level tracks BaseLevel, modulated by periodic oscillation
// (engine/road frequency) and random bumps (potholes, braking).
type Profile struct {
	// BaseLevel is the target steady-state vibration level (m/s²).
	BaseLevel float64
	// OscFreqHz is the dominant oscillation frequency (engine/road).
	OscFreqHz float64
	// OscShare in [0, 1] is the fraction of vibration variance carried
	// by the periodic component; the rest is white noise.
	OscShare float64
	// BumpRatePerSec is the Poisson rate of transient bumps.
	BumpRatePerSec float64
	// BumpAmp is the extra magnitude deviation a bump injects (m/s²).
	BumpAmp float64
}

// Predefined context profiles. Levels are chosen so the generated
// traces reproduce the Table V range (quiet ≈ 0.2, vehicle 2.5-7).
var (
	// QuietRoom is the paper's static context: sensor noise only.
	QuietRoom = Profile{BaseLevel: 0.15, OscFreqHz: 0, OscShare: 0, BumpRatePerSec: 0, BumpAmp: 0}
	// Cafe has light ambient motion (table knocks, handling).
	Cafe = Profile{BaseLevel: 0.5, OscFreqHz: 0.5, OscShare: 0.2, BumpRatePerSec: 0.02, BumpAmp: 0.8}
	// Train is a smooth-riding vehicle.
	Train = Profile{BaseLevel: 2.5, OscFreqHz: 1.8, OscShare: 0.5, BumpRatePerSec: 0.05, BumpAmp: 1.5}
	// Car is a passenger car on city roads.
	Car = Profile{BaseLevel: 4.5, OscFreqHz: 2.4, OscShare: 0.45, BumpRatePerSec: 0.08, BumpAmp: 2.0}
	// Bus is the paper's moving-bus context: strong vibration.
	Bus = Profile{BaseLevel: 6.5, OscFreqHz: 3.1, OscShare: 0.4, BumpRatePerSec: 0.12, BumpAmp: 2.5}
)

// Profiles returns all predefined profiles, ordered by vibration level.
func Profiles() []Profile {
	return []Profile{QuietRoom, Cafe, Train, Car, Bus}
}

// Generator synthesises a 3-axis accelerometer stream whose Eq. 5
// vibration level follows a profile (or a time-varying level schedule).
// The phone is modelled as roughly face-up with a slowly wandering
// tilt, so gravity projects mostly on Z and the magnitude carries the
// vibration signal.
//
// Construct with NewGenerator; the zero value is unusable.
type Generator struct {
	rateHz float64
	rng    *rand.Rand
	phase  float64
	tiltX  float64
	tiltY  float64
}

// DefaultSampleRateHz is a typical Android accelerometer UI rate.
const DefaultSampleRateHz = 50.0

// ErrBadRate is returned for non-positive sample rates.
var ErrBadRate = errors.New("vibration: sample rate must be positive")

// NewGenerator returns a generator emitting samples at rateHz, seeded
// deterministically.
func NewGenerator(rateHz float64, seed int64) (*Generator, error) {
	if rateHz <= 0 {
		return nil, ErrBadRate
	}
	rng := rand.New(rand.NewSource(seed))
	return &Generator{
		rateHz: rateHz,
		rng:    rng,
		phase:  rng.Float64() * 2 * math.Pi,
		tiltX:  rng.NormFloat64() * 0.05,
		tiltY:  rng.NormFloat64() * 0.05,
	}, nil
}

// Generate produces durationSec seconds of samples under a constant
// profile, starting at startSec.
func (g *Generator) Generate(p Profile, startSec, durationSec float64) []Sample {
	return g.GenerateSchedule(func(float64) Profile { return p }, startSec, durationSec)
}

// GenerateSchedule produces samples under a time-varying profile
// schedule (e.g. a bus ride with stops), starting at startSec.
func (g *Generator) GenerateSchedule(profileAt func(tSec float64) Profile, startSec, durationSec float64) []Sample {
	if durationSec <= 0 {
		return nil
	}
	n := int(durationSec * g.rateHz)
	out := make([]Sample, 0, n)
	dt := 1 / g.rateHz
	for i := 0; i < n; i++ {
		t := startSec + float64(i)*dt
		p := profileAt(t)
		dev := g.deviation(p, t, dt)

		// Slowly wandering tilt: gravity stays mostly on Z.
		g.tiltX += g.rng.NormFloat64() * 0.002
		g.tiltY += g.rng.NormFloat64() * 0.002
		g.tiltX = clamp(g.tiltX, -0.2, 0.2)
		g.tiltY = clamp(g.tiltY, -0.2, 0.2)

		mag := Gravity + dev
		if mag < 0 {
			mag = 0
		}
		// Direction: unit vector tilted slightly off Z.
		nx, ny := g.tiltX, g.tiltY
		nz := math.Sqrt(math.Max(0, 1-nx*nx-ny*ny))
		out = append(out, Sample{TimeSec: t, X: mag * nx, Y: mag * ny, Z: mag * nz})
	}
	return out
}

// deviation returns the instantaneous magnitude deviation from gravity
// with RMS tracking p.BaseLevel.
func (g *Generator) deviation(p Profile, t, dt float64) float64 {
	oscShare := clamp(p.OscShare, 0, 1)
	// Unit-RMS components: sqrt(2)*sin has RMS 1, NormFloat64 has RMS 1.
	osc := math.Sqrt2 * math.Sin(2*math.Pi*p.OscFreqHz*t+g.phase)
	noise := g.rng.NormFloat64()
	dev := p.BaseLevel * (math.Sqrt(oscShare)*osc + math.Sqrt(1-oscShare)*noise)
	// Poisson bumps.
	if p.BumpRatePerSec > 0 && g.rng.Float64() < p.BumpRatePerSec*dt {
		dev += p.BumpAmp * (1 + g.rng.Float64())
	}
	return dev
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
