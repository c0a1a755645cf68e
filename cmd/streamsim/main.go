// Command streamsim replays one Table V trace under a chosen bitrate
// adaptation policy and prints the session's energy and QoE metrics.
//
// Usage:
//
//	streamsim -trace 1 -algo ours
//	streamsim -trace 3 -algo festive -v
//	streamsim -trace 2 -algo optimal -alpha 0.5
//	streamsim -trace 1 -algo ours -trace-out decisions.ndjson
//	streamsim -trace 1 -algo bba -trace-out - | jq .rung
//
// -trace-out writes the per-segment decision trace (what the algorithm
// saw and chose) from the session's segment log as NDJSON to the given
// file, or to stdout with "-". -trace-sample keeps every Nth decision.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ecavs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "streamsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("streamsim", flag.ContinueOnError)
	traceID := fs.Int("trace", 1, "Table V trace id (1-5)")
	dir := fs.String("dir", "", "load the trace from this directory (tracegen output) instead of regenerating")
	algo := fs.String("algo", "ours", "policy: youtube | festive | bba | bola | mpc | ours | optimal")
	alpha := fs.Float64("alpha", ecavs.DefaultAlpha, "energy weight in [0,1] (ours/optimal)")
	verbose := fs.Bool("v", false, "print per-segment log")
	traceOut := fs.String("trace-out", "", "write the NDJSON decision trace to this file (\"-\" for stdout)")
	traceSample := fs.Int("trace-sample", 1, "keep every Nth decision in the trace")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var tr *ecavs.Trace
	if *dir != "" {
		loaded, err := ecavs.LoadTrace(*dir, *traceID)
		if err != nil {
			return err
		}
		tr = loaded
	} else {
		traces, err := ecavs.GenerateTableVTraces()
		if err != nil {
			return err
		}
		if *traceID < 1 || *traceID > len(traces) {
			return fmt.Errorf("trace id %d out of range 1-%d", *traceID, len(traces))
		}
		tr = traces[*traceID-1]
	}

	var (
		alg ecavs.Algorithm
		err error
	)
	switch strings.ToLower(*algo) {
	case "youtube":
		alg = ecavs.NewYoutube()
	case "festive":
		alg = ecavs.NewFESTIVE()
	case "bba":
		alg = ecavs.NewBBA()
	case "bola":
		alg = ecavs.NewBOLA()
	case "mpc":
		alg = ecavs.NewRobustMPC()
	case "ours":
		if alg, err = ecavs.NewOnline(*alpha); err != nil {
			return err
		}
	case "optimal":
		if alg, _, err = ecavs.PlanOptimalForTrace(tr, *alpha); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown policy %q", *algo)
	}

	m, err := ecavs.Stream(tr, alg)
	if err != nil {
		return err
	}
	if *traceOut != "" {
		if err := writeTrace(*traceOut, m, *traceSample); err != nil {
			return err
		}
	}
	baseJ, err := ecavs.BaseEnergyJ(tr)
	if err != nil {
		return err
	}

	fmt.Printf("trace %d (%s): %.0f s, avg vibration %.2f, avg signal %.1f dBm\n",
		tr.ID, tr.Name, tr.LengthSec, tr.AvgVibration(), tr.AvgSignalDBm())
	fmt.Printf("policy %s:\n", m.Algorithm)
	fmt.Printf("  energy      %8.1f J (playback %.1f + download %.1f + rebuffer %.1f + startup %.1f)\n",
		m.TotalJ(), m.PlaybackJ, m.DownloadJ, m.RebufferJ, m.StartupJ)
	fmt.Printf("  base/extra  %8.1f J base, %.1f J extra\n", baseJ, m.ExtraJ(baseJ))
	fmt.Printf("  QoE         %8.3f mean (scale 1-5)\n", m.MeanQoE)
	fmt.Printf("  bitrate     %8.2f Mbps mean, %d switches\n", m.MeanBitrateMbps, m.Switches)
	fmt.Printf("  stalls      %8.1f s rebuffering, %.1f s startup\n", m.RebufferSec, m.StartupSec)
	fmt.Printf("  downloaded  %8.1f MB over %.1f s\n", m.DownloadedMB, m.DurationSec)

	if *verbose {
		fmt.Println("  segments:")
		for _, s := range m.Segments {
			fmt.Printf("    #%03d t=%7.1fs rung=%2d %4.2f Mbps %6.3f MB dl=%5.2fs th=%6.2f Mbps sig=%6.1f dBm vib=%4.2f stall=%4.2fs qoe=%.3f\n",
				s.Index, s.StartSec, s.Rung, s.BitrateMbps, s.SizeMB, s.DownloadSec,
				s.ThroughputMbps, s.MeanSignalDBm, s.Vibration, s.StallSec, s.QoE)
		}
	}
	return nil
}

// writeTrace emits the session's decision trace as NDJSON to path, or
// to stdout for "-". The session summary goes to stdout too, so piping
// the trace usually wants a file path instead.
func writeTrace(path string, m *ecavs.Metrics, sample int) error {
	if path == "-" {
		return writeDecisions(os.Stdout, m, sample)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeDecisions(f, m, sample); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// decision is one NDJSON line of the decision trace.
type decision struct {
	Segment     int     `json:"segment"`
	Rung        int     `json:"rung"`
	BitrateMbps float64 `json:"bitrate_mbps"`
	BufferSec   float64 `json:"buffer_sec"`
	SignalDBm   float64 `json:"signal_dbm"`
	Vibration   float64 `json:"vibration"`
	// PowerW is the draw the choice implies: decode power at the
	// chosen bitrate plus radio power at the decision's signal.
	PowerW float64 `json:"power_w"`
	QoE    float64 `json:"qoe"`
}

// writeDecisions encodes every sample-th entry of m's segment log (a
// sample below 1 means every entry) as one JSON line. A failed write
// names the segment whose line was lost, so a full disk or a closed
// pipe aborts the export instead of truncating the trace.
func writeDecisions(w io.Writer, m *ecavs.Metrics, sample int) error {
	sample = max(sample, 1)
	pm := ecavs.EvalPower()
	enc := json.NewEncoder(w)
	for i := 0; i < len(m.Segments); i += sample {
		s := &m.Segments[i]
		if err := enc.Encode(decision{
			Segment:     s.Index,
			Rung:        s.Rung,
			BitrateMbps: s.BitrateMbps,
			BufferSec:   s.BufferSec,
			SignalDBm:   s.SignalDBm,
			Vibration:   s.Vibration,
			PowerW:      pm.PlaybackPowerW(s.BitrateMbps) + pm.RadioPowerW(s.SignalDBm),
			QoE:         s.QoE,
		}); err != nil {
			return fmt.Errorf("write decision trace at segment %d: %w", s.Index, err)
		}
	}
	return nil
}
