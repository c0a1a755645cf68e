// Command campaign runs a Monte-Carlo fleet of streaming sessions over
// the Table V traces and prints per-algorithm aggregate statistics.
//
// Usage:
//
//	campaign                          # 1000 sessions, defaults
//	campaign -sessions 100000 -seed 7 -abandon 0.25 -vib-jitter 0.3
//	campaign -json                    # machine-readable result on stdout
//	campaign -sessions 5000000 -metrics-addr :9090 -progress
//
// -metrics-addr serves live telemetry while the campaign runs:
// /metrics (Prometheus text: sessions completed, sessions/sec, ETA,
// per-algorithm QoE and energy running means), /metrics.json, and the
// /debug/pprof profiling endpoints. -progress prints a one-line
// status to stderr every second.
//
// Sessions run on GOMAXPROCS workers. -shards is the aggregation
// partition, not the worker count: 0 means 1, and results are
// deterministic for a fixed (-seed, -shards) pair on any machine and
// at any GOMAXPROCS. Runs recorded when -shards defaulted to
// GOMAXPROCS reproduce with -shards set to that count. Telemetry never
// perturbs results; the only non-deterministic outputs are the
// wall_sec / sessions_per_sec timing fields in -json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"ecavs/internal/campaign"
	"ecavs/internal/netsim"
	"ecavs/internal/power"
	"ecavs/internal/telemetry"
	"ecavs/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "campaign:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("campaign", flag.ContinueOnError)
	sessions := fs.Int("sessions", 1000, "total session count across all algorithms")
	seed := fs.Int64("seed", 1, "campaign seed")
	shards := fs.Int("shards", 0, "aggregation shards, which percentiles depend on; not the worker count (0 = 1)")
	abandon := fs.Float64("abandon", 0.25, "per-session early-quit probability")
	vibJitter := fs.Float64("vib-jitter", 0.3, "uniform relative jitter on sensed vibration, in [0,1)")
	outageProb := fs.Float64("outage", 0, "per-session probability of a seeded link-outage process")
	outageUp := fs.Float64("outage-up", 0, "mean seconds between outages (0 = default)")
	outageDown := fs.Float64("outage-down", 0, "mean outage length in seconds (0 = default)")
	asJSON := fs.Bool("json", false, "emit the result as JSON instead of a table")
	metricsAddr := fs.String("metrics-addr", "", "serve live /metrics, /metrics.json, and /debug/pprof on this address while running")
	progress := fs.Bool("progress", false, "print live progress to stderr every second")
	if err := fs.Parse(args); err != nil {
		return err
	}

	traces, err := trace.GenerateTableV(power.EvalModel().NominalThroughputMBps)
	if err != nil {
		return err
	}
	outage := netsim.DefaultOutage()
	if *outageUp > 0 {
		outage.MeanUpSec = *outageUp
	}
	if *outageDown > 0 {
		outage.MeanDownSec = *outageDown
	}
	cfg := campaign.Config{
		Traces:          traces,
		Sessions:        *sessions,
		Seed:            *seed,
		Shards:          *shards,
		AbandonProb:     *abandon,
		VibrationJitter: *vibJitter,
		OutageProb:      *outageProb,
		Outage:          outage,
	}
	// Live telemetry: one publisher feeds both the HTTP endpoint and
	// the progress printer; neither perturbs the campaign's results.
	var live *campaign.Live
	if *metricsAddr != "" || *progress {
		var reg *telemetry.Registry
		if *metricsAddr != "" {
			reg = telemetry.NewRegistry()
		}
		live = campaign.NewLive(reg)
		cfg.Live = live
	}
	if *metricsAddr != "" {
		srv, addr, err := telemetry.Serve(*metricsAddr, live.Registry())
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "telemetry: /metrics, /metrics.json, /debug/pprof on http://%s\n", addr)
	}
	if *progress {
		stop := make(chan struct{})
		defer close(stop)
		go printProgress(live, int64(*sessions), stop)
	}

	start := time.Now()
	res, err := campaign.Run(cfg)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	res.WallSec = elapsed.Seconds()
	if s := elapsed.Seconds(); s > 0 {
		res.SessionsPerSec = float64(res.Sessions) / s
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}

	fmt.Printf("Campaign: %d sessions, seed %d, %d shards, abandon %.2f, vib jitter %.2f, outage %.2f\n\n",
		res.Sessions, res.Seed, res.Shards, *abandon, *vibJitter, *outageProb)
	fmt.Printf("%-9s %8s %6s | %36s | %20s | %16s | %14s\n",
		"Algorithm", "Sessions", "Quit", "Energy J (mean±std p50/p95)", "QoE (mean±std)", "Rebuffer s", "Switches")
	for _, a := range res.Algorithms {
		fmt.Printf("%-9s %8d %6d | %9.1f ±%7.1f %8.1f/%8.1f | %6.3f ±%5.3f %6.3f | %7.2f %8.2f | %6.1f %7.1f\n",
			a.Name, a.Sessions, a.Abandoned,
			a.EnergyJ.Mean, a.EnergyJ.Std, a.EnergyJ.P50, a.EnergyJ.P95,
			a.QoE.Mean, a.QoE.Std, a.QoE.P95,
			a.RebufferSec.Mean, a.RebufferSec.P95,
			a.Switches.Mean, a.Switches.P95)
	}
	if *outageProb > 0 {
		fmt.Println()
		for _, a := range res.Algorithms {
			fmt.Printf("%-9s outages: %d sessions hit, %d total, down %.2f s mean / %.2f s p95\n",
				a.Name, a.OutageSessions, a.Outages, a.OutageSec.Mean, a.OutageSec.P95)
		}
	}
	fmt.Printf("\n%d sessions in %.2fs (%.0f sessions/sec)\n",
		res.Sessions, res.WallSec, res.SessionsPerSec)
	return nil
}

// printProgress writes a live status line to stderr every second until
// stop closes: sessions done, throughput, and the ETA estimate.
func printProgress(live *campaign.Live, target int64, stop chan struct{}) {
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			fmt.Fprintln(os.Stderr)
			return
		case <-tick.C:
			done := live.Completed()
			fmt.Fprintf(os.Stderr, "\rcampaign: %d/%d sessions (%.0f/sec, ETA %.0fs)   ",
				done, target, live.SessionsPerSec(), live.ETASec())
		}
	}
}
