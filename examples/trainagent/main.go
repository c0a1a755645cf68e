// Trainagent: train the tabular Q-learning bitrate controller on
// synthetic channels, persist the learned policy to disk, load it back
// as a frozen agent, and replay it on a Table V trace — the full
// train / ship / deploy loop of a learned ABR.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"ecavs"
	"ecavs/internal/dash"
	"ecavs/internal/learn"
	"ecavs/internal/sim"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ladder := dash.EvalLadder()

	// 1. Train on randomised synthetic channels.
	cfg := learn.DefaultTrainConfig(ladder)
	fmt.Printf("training: %d episodes x %.0f s over %d-rung ladder...\n",
		cfg.Episodes, cfg.EpisodeSec, len(ladder))
	agent, err := learn.Train(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("trained: %.1f%% of the state space visited\n\n",
		agent.Table().CoverageFraction()*100)

	// 2. Persist the policy.
	path := filepath.Join(os.TempDir(), "qtable.json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := agent.Table().Save(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	fmt.Printf("policy saved to %s (%d bytes)\n", path, info.Size())

	// 3. Load it back as a frozen agent.
	rf, err := os.Open(path)
	if err != nil {
		return err
	}
	defer rf.Close()
	table, err := learn.LoadTable(rf)
	if err != nil {
		return err
	}
	frozen, err := learn.NewFrozenAgent(table, 1)
	if err != nil {
		return err
	}

	// 4. Deploy on a recorded trace.
	traces, err := ecavs.GenerateTableVTraces()
	if err != nil {
		return err
	}
	tr := traces[1] // the train ride: good coverage, low vibration
	man, err := sim.ManifestForTrace(tr, ladder)
	if err != nil {
		return err
	}
	m, err := sim.RunOnTrace(tr, man, frozen)
	if err != nil {
		return err
	}
	fmt.Printf("\ndeployed on trace %d (%s):\n", tr.ID, tr.Name)
	fmt.Printf("  energy %.1f J, QoE %.3f, mean bitrate %.2f Mbps, %d switches, %.1f s stalled\n",
		m.TotalJ(), m.MeanQoE, m.MeanBitrateMbps, m.Switches, m.RebufferSec)
	return nil
}
