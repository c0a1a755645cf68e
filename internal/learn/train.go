package learn

import (
	"errors"
	"fmt"

	"ecavs/internal/dash"
	"ecavs/internal/netsim"
	"ecavs/internal/power"
	"ecavs/internal/qoe"
	"ecavs/internal/sim"
)

// TrainConfig drives simulated-session training.
type TrainConfig struct {
	// Episodes is the number of training sessions.
	Episodes int
	// EpisodeSec is each training video's length.
	EpisodeSec float64
	// Ladder is the action space.
	Ladder dash.Ladder
	// Hyper are the Q-learning hyper-parameters.
	Hyper Hyper
	// Reward weighs the outcomes.
	Reward Reward
	// Seed makes training reproducible.
	Seed int64
}

// DefaultTrainConfig returns a configuration that trains in well under
// a second on the evaluation ladder.
func DefaultTrainConfig(ladder dash.Ladder) TrainConfig {
	return TrainConfig{
		Episodes:   80,
		EpisodeSec: 240,
		Ladder:     ladder,
		Hyper:      DefaultHyper(),
		Reward:     DefaultReward(),
		Seed:       7,
	}
}

// Train runs episodes over randomised synthetic channels (alternating
// strong-room and weak-vehicle conditions) and returns a frozen agent.
func Train(cfg TrainConfig) (*Agent, error) {
	if cfg.Episodes <= 0 || cfg.EpisodeSec <= 0 {
		return nil, errors.New("learn: episodes and episode length must be positive")
	}
	if len(cfg.Ladder) == 0 {
		return nil, dash.ErrEmptyLadder
	}
	pm := power.EvalModel()
	qm := qoe.Default()
	agent, err := NewAgent(DefaultStateSpace(len(cfg.Ladder)), cfg.Hyper, cfg.Reward, cfg.Seed)
	if err != nil {
		return nil, err
	}

	video := dash.Video{Title: "train", SpatialInfo: 45, TemporalInfo: 15, DurationSec: cfg.EpisodeSec}
	for ep := 0; ep < cfg.Episodes; ep++ {
		manifest, err := dash.NewManifest(video, cfg.Ladder, dash.ManifestConfig{Seed: cfg.Seed + int64(ep)})
		if err != nil {
			return nil, fmt.Errorf("learn: episode %d manifest: %w", ep, err)
		}
		// Rotate channel families so the table sees smooth drifts
		// (OU room/vehicle) and abrupt outage bursts (Gilbert-Elliott).
		var link netsim.Link
		switch ep % 3 {
		case 0:
			ch, err := netsim.NewChannel(netsim.RoomSignal, netsim.FadingConfig{}, pm.NominalThroughputMBps, cfg.Seed*1000+int64(ep))
			if err != nil {
				return nil, fmt.Errorf("learn: episode %d channel: %w", ep, err)
			}
			link = ch
		case 1:
			ch, err := netsim.NewChannel(netsim.VehicleSignal, netsim.FadingConfig{}, pm.NominalThroughputMBps, cfg.Seed*1000+int64(ep))
			if err != nil {
				return nil, fmt.Errorf("learn: episode %d channel: %w", ep, err)
			}
			link = ch
		default:
			ch, err := netsim.NewGilbertElliott(netsim.DefaultGilbertElliott(), cfg.Seed*1000+int64(ep))
			if err != nil {
				return nil, fmt.Errorf("learn: episode %d channel: %w", ep, err)
			}
			link = ch
		}
		if _, err := sim.Run(sim.Config{
			Manifest:  manifest,
			Link:      link,
			Algorithm: agent,
			Power:     pm,
			QoE:       qm,
		}); err != nil {
			return nil, fmt.Errorf("learn: episode %d: %w", ep, err)
		}
	}
	agent.Freeze()
	return agent, nil
}
