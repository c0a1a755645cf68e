// Busride: build a custom commute from scratch — a bus ride with stops
// at quiet stations and a weak-coverage tunnel — using the sensor and
// channel substrates directly, then watch the context-aware algorithm
// react segment by segment.
//
// This example goes below the facade: it composes internal/vibration,
// internal/netsim, internal/dash, internal/core, and internal/sim the
// way a downstream experimenter would when studying a new context.
package main

import (
	"fmt"
	"log"
	"math"

	"ecavs/internal/core"
	"ecavs/internal/dash"
	"ecavs/internal/netsim"
	"ecavs/internal/power"
	"ecavs/internal/qoe"
	"ecavs/internal/sim"
	"ecavs/internal/vibration"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// ridePhase returns the context profile and mean signal strength at a
// given moment of the 10-minute commute.
func ridePhase(t float64) (vibration.Profile, float64) {
	switch {
	case t < 60: // waiting at the stop
		return vibration.QuietRoom, -92
	case t < 240: // rolling through the city
		return vibration.Bus, -104
	case t < 300: // station stop
		return vibration.Cafe, -95
	case t < 420: // the tunnel: shaking and nearly no coverage
		return vibration.Bus, -113
	default: // suburbs: smoother roads, decent coverage
		return vibration.Car, -100
	}
}

func run() error {
	const rideSec = 600.0
	pm := power.EvalModel()
	qm := qoe.Default()

	// Synthesize the accelerometer stream for the whole ride.
	gen, err := vibration.NewGenerator(vibration.DefaultSampleRateHz, 2024)
	if err != nil {
		return err
	}
	accel := gen.GenerateSchedule(func(t float64) vibration.Profile {
		p, _ := ridePhase(t)
		return p
	}, 0, rideSec)

	// The online vibration estimator the algorithm reads (Section IV-B).
	est, err := vibration.NewEstimator(vibration.DefaultWindowSec)
	if err != nil {
		return err
	}
	cursor := 0
	vibAt := func(t float64) float64 {
		for cursor < len(accel) && accel[cursor].TimeSec <= t {
			est.Push(accel[cursor])
			cursor++
		}
		return est.Level()
	}

	// A channel whose mean signal follows the ride's phases, capped
	// like a congested cell edge.
	capacity := func(dBm float64) float64 {
		nominal := pm.NominalThroughputMBps(dBm)
		cell := 40.0 / 8 * math.Pow(10, (dBm+90)/25)
		if cell < nominal {
			return cell
		}
		return nominal
	}
	link, err := netsim.NewChannel(netsim.SignalConfig{
		MeanDBm: -100,
		MeanAt: func(t float64) float64 {
			_, s := ridePhase(t)
			return s
		},
		ReversionRate: 0.3,
		VolatilityDB:  2.5,
	}, capacity, 2024)
	if err != nil {
		return err
	}

	// A 10-minute episode of the "Show" catalog title.
	video, err := dash.VideoByTitle("Show")
	if err != nil {
		return err
	}
	video.DurationSec = rideSec
	manifest, err := dash.NewManifest(video, dash.EvalLadder(), dash.ManifestConfig{Seed: 7})
	if err != nil {
		return err
	}

	obj, err := core.NewObjective(core.DefaultAlpha, pm, qm)
	if err != nil {
		return err
	}
	metrics, err := sim.Run(sim.Config{
		Manifest:    manifest,
		Link:        link,
		VibrationAt: vibAt,
		Algorithm:   core.NewOnline(obj),
		Power:       pm,
		QoE:         qm,
	})
	if err != nil {
		return err
	}

	fmt.Println("phase-by-phase bitrate selection (energy-aware, context-aware):")
	phases := []struct {
		name     string
		from, to float64
	}{
		{name: "waiting at stop", from: 0, to: 60},
		{name: "city ride", from: 60, to: 240},
		{name: "station stop", from: 240, to: 300},
		{name: "tunnel", from: 300, to: 420},
		{name: "suburbs", from: 420, to: rideSec},
	}
	for _, ph := range phases {
		var br, vib, n float64
		for _, s := range metrics.Segments {
			if s.StartSec >= ph.from && s.StartSec < ph.to {
				br += s.BitrateMbps
				vib += s.Vibration
				n++
			}
		}
		if n == 0 {
			continue
		}
		fmt.Printf("  %-16s avg vibration %4.2f  ->  avg bitrate %4.2f Mbps\n",
			ph.name, vib/n, br/n)
	}
	fmt.Printf("\nsession: %.1f J total, QoE %.3f, %d switches, %.1f s stalled\n",
		metrics.TotalJ(), metrics.MeanQoE, metrics.Switches, metrics.RebufferSec)
	return nil
}
