// Command perfbench is the repository's benchmark. Each run measures
// one workload in its own process, against in-process, loopback-only
// instances of the program, and checks the program's outputs:
//
//	campaign  the simulation stack (trace → scoring → Online/baselines →
//	          session → campaign.Run), no sockets
//	stream    viewers streaming whole sessions over HTTP through
//	          httpdash.Client and httpdash.Server, observability on
//	edge      independent segment GETs through httpdash.NewEdge and
//	          its edgecache, closed loop
//
// Usage:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, and the metrics. With --trace 0 the metrics are
// the end-to-end ones, measured untraced; with --trace 1 they are the
// per-layer ones, from the benchmark's own spans around calls into
// each layer. Every run also writes its metadata (and, traced, its span
// file and per-layer self times) under --out.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// setups is how many times a run constructs and warms up its
// workload; setup_s is their median.
const setups = 5

// windows is how many equal stretches of the measured phase the
// latency percentiles are taken over (see windowedQuantile).
const windows = 5

// spanLimit bounds the spans a traced run keeps in memory.
const spanLimit = 400000

// instance is one constructed and warmed-up copy of the program under
// a workload.
type instance interface {
	// measure runs ops until the deadline and reports them. Ops still
	// in flight at the deadline complete and count.
	measure(deadline time.Time) (*phase, error)
	// layers derives the per-layer metrics of a traced phase from the
	// recorded spans and the instance's own counters.
	layers(p *phase, spans []span) (map[string]float64, []layerTime)
	close()
}

// workload builds an instance: construction plus a fixed amount of
// warm-up work. A non-nil recorder installs the benchmark's spans.
type workload func(seed int64, rec *recorder) (instance, error)

var workloads = map[string]workload{
	"campaign": func(seed int64, rec *recorder) (instance, error) {
		return newCampaign(campaignDefaults, seed, rec)
	},
	"stream": func(seed int64, rec *recorder) (instance, error) {
		return newStream(streamDefaults(), seed, rec)
	},
	"edge": func(seed int64, rec *recorder) (instance, error) {
		return newEdge(edgeDefaults(), seed, rec)
	},
}

// phase is one measured stretch of ops.
type phase struct {
	lat        []float64   // ms, one per op that passed its check
	ends       []time.Time // when each op in lat ended
	start, end time.Time   // the measured stretch: no op began before start or after end
	attempted  int
	failed     int
	failures   []string // first few failure reasons
	meta       map[string]any
	use        delta
	rssMB      float64
	// calibration is the machine-speed probe before and after the ops.
	calibration [2]time.Duration

	// Traced phases only: what the recorder captured and what the
	// workload derived from it.
	layersOut    map[string]float64
	selfTime     []layerTime
	spans        []span
	spansDropped int64
}

// pass records an op that passed its check: it ended at end and took
// latMs milliseconds.
func (p *phase) pass(end time.Time, latMs float64) {
	p.lat = append(p.lat, latMs)
	p.ends = append(p.ends, end)
}

func (p *phase) fail(reason string) {
	p.failed++
	if len(p.failures) < 5 {
		p.failures = append(p.failures, reason)
	}
}

// metric is one reported number and its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEndUnits and perLayerUnits are the metric tables BENCHMARK.json
// declares; a test keeps the two in step.
var endToEndUnits = map[string]string{
	"setup_s":       "s",
	"p50_ms":        "ms",
	"p90_ms":        "ms",
	"cpu_us_per_op": "us",
	"allocs_per_op": "count",
	"peak_rss_mb":   "MB",
}

var perLayerUnits = map[string]string{
	"abr.decisions_per_op":            "count",
	"core.decide_ns":                  "ns",
	"core.decide_share":               "ratio",
	"abr.decide_ns":                   "ns",
	"abr.decide_share":                "ratio",
	"trace.queries_per_session":       "count",
	"trace.query_ns":                  "ns",
	"netsim.link_calls_per_session":   "count",
	"netsim.link_share":               "ratio",
	"sim.self_share":                  "ratio",
	"sim.segments_per_session":        "count",
	"sim.abandoned_share":             "ratio",
	"sim.outage_share":                "ratio",
	"httpdash.client.startup_ms":      "ms",
	"httpdash.client.manifest_ms":     "ms",
	"httpdash.client.fetch_ms.p50":    "ms",
	"httpdash.client.fetch_ms.p90":    "ms",
	"httpdash.server.serve_ms.p50":    "ms",
	"httpdash.server.serve_ms.p90":    "ms",
	"net.share":                       "ratio",
	"tracing.fragments_per_op":        "count",
	"tracing.kept_ratio":              "ratio",
	"httpdash.client.segments_per_op": "count",
	"httpdash.client.mb_per_op":       "MB",
	"httpdash.client.top_rung_share":  "ratio",
	"httpdash.client.retries_per_op":  "count",
	"httpdash.edge.serve_ms.p50":      "ms",
	"httpdash.edge.serve_ms.p90":      "ms",
	"httpdash.edge.serve_ms.small":    "ms",
	"httpdash.edge.serve_ms.large":    "ms",
	"httpdash.edge.fill_ms.p50":       "ms",
	"httpdash.edge.fill_ms.p90":       "ms",
	"edgecache.hit_ratio":             "ratio",
	"httpdash.edge.origin_offload":    "ratio",
	"edgecache.evictions_per_kreq":    "count",
	"edgecache.shared_fills_per_kreq": "count",
	"edgecache.resident_mb":           "MB",
	"driver.late_ms":                  "ms",
	"driver.conn_wait_ms":             "ms",
	"e2e.p99_ms":                      "ms",
	"runtime.gc_per_op":               "count",
	"runtime.gc_cpu_share":            "ratio",
	"runtime.alloc_kb_per_op":         "KB",
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: campaign, stream or edge")
	seed := fs.Int64("seed", 1, "workload seed; the program receives only the inputs generated from it")
	seconds := fs.Int("seconds", 10, "measured seconds per run")
	traced := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	outDir := fs.String("out", ".bench_out", "directory for run metadata and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload campaign|stream|edge, --seconds ≥ 1 and --trace 0|1\n")
		return 2
	}
	cfg := runConfig{workload: *name, seed: *seed, seconds: *seconds, traced: *traced == 1, outDir: *outDir}
	rep, err := execute(w, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if err := writeReport(cfg, rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	meta, err := json.Marshal(rep.meta)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(rep.result)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", meta, line)
	return 0
}

type runConfig struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	outDir   string
}

type report struct {
	result result
	meta   map[string]any
	spans  []span
}

// execute runs one workload. Untraced, it sets up `setups` times and
// measures the last instance for the whole run. Traced, it measures an
// untraced instance for the first half and a traced one for the
// second, so the difference between the halves is the tracing
// overhead.
func execute(w workload, cfg runConfig) (*report, error) {
	total := time.Duration(cfg.seconds) * time.Second
	meta := map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.traced,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
	}
	if !cfg.traced {
		setupS, p, err := setUpAndMeasure(w, cfg.seed, nil, total)
		if err != nil {
			return nil, err
		}
		e2e, err := endToEnd(p, median(setupS))
		if err != nil {
			return nil, err
		}
		describe(meta, p, setupS)
		meta["metrics"] = e2e
		return &report{result: newResult([]*phase{p}, e2e, endToEndUnits), meta: meta}, nil
	}

	half := total / 2
	setupU, pu, err := setUpAndMeasure(w, cfg.seed, nil, half)
	if err != nil {
		return nil, err
	}
	rec := newRecorder(spanLimit)
	meta["timer_ns"] = float64(timerCost())
	setupT, pt, err := setUpAndMeasure(w, cfg.seed, rec, total-half)
	if err != nil {
		return nil, err
	}
	untraced, err := endToEnd(pu, median(setupU))
	if err != nil {
		return nil, err
	}
	tracedE2E, err := endToEnd(pt, median(setupT))
	if err != nil {
		return nil, err
	}
	overhead := make(map[string]float64, len(untraced))
	for k, v := range untraced {
		overhead[k] = tracedE2E[k] - v
	}
	layers := pt.layersOut
	for k, v := range runtimeLayers(pt) {
		layers[k] = v
	}
	describe(meta, pt, setupT)
	meta["untraced"] = untraced
	meta["traced"] = tracedE2E
	meta["tracing_overhead"] = overhead
	meta["self_time"] = pt.selfTime
	meta["spans_kept"] = len(pt.spans)
	meta["spans_dropped"] = pt.spansDropped
	meta["metrics"] = layers
	return &report{result: newResult([]*phase{pu, pt}, layers, perLayerUnits), meta: meta, spans: pt.spans}, nil
}

// setUpAndMeasure sets the workload up `setups` times (timing each),
// then measures the last instance for d. A traced call gets a
// recorder, cleared after set-up so only measured ops leave spans.
func setUpAndMeasure(w workload, seed int64, rec *recorder, d time.Duration) ([]float64, *phase, error) {
	times := make([]float64, 0, setups)
	var inst instance
	for i := 0; i < setups; i++ {
		runtime.GC()
		start := time.Now()
		in, err := w(seed, rec)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		if i < setups-1 {
			in.close()
			continue
		}
		inst = in
	}
	defer inst.close()
	rec.reset()
	calBefore := calibrate()
	runtime.GC()
	before := readUsage()
	start := time.Now()
	p, err := inst.measure(start.Add(d))
	if err != nil {
		return nil, nil, err
	}
	p.start, p.end = start, start.Add(d)
	p.use = diff(before, readUsage())
	p.calibration = [2]time.Duration{calBefore, calibrate()}
	if p.rssMB, err = peakRSSMB(); err != nil {
		return nil, nil, err
	}
	if rec != nil {
		spans, _ := rec.snapshot()
		p.layersOut, p.selfTime = inst.layers(p, spans)
		// Layers may record more (the campaign's session replay).
		p.spans, p.spansDropped = rec.snapshot()
	}
	return times, p, nil
}

// endToEnd computes the gated metrics of an untraced phase.
func endToEnd(p *phase, setupS float64) (map[string]float64, error) {
	ops := len(p.lat)
	if ops == 0 {
		return nil, errors.New("no op completed its output check")
	}
	return map[string]float64{
		"setup_s":       setupS,
		"p50_ms":        p.windowedQuantile(0.5),
		"p90_ms":        p.windowedQuantile(0.9),
		"cpu_us_per_op": float64(p.use.cpu.Microseconds()) / float64(ops),
		"allocs_per_op": float64(p.use.mallocs) / float64(ops),
		"peak_rss_mb":   p.rssMB,
	}, nil
}

// runtimeLayers are the Go-runtime per-layer metrics every workload
// reports.
func runtimeLayers(p *phase) map[string]float64 {
	ops := float64(len(p.lat))
	share := 0.0
	if p.use.totalCPU > 0 {
		share = p.use.gcCPU / p.use.totalCPU
	}
	return map[string]float64{
		"runtime.gc_per_op":       p.use.gcCycles / ops,
		"runtime.gc_cpu_share":    share,
		"runtime.alloc_kb_per_op": p.use.allocB / 1024 / ops,
	}
}

// describe records a phase's run metadata: op and sample counts, the
// tail percentile its sample count supports, steal share, set-up times
// and the workload's own notes.
func describe(meta map[string]any, p *phase, setupS []float64) {
	lat := sortedCopy(p.lat)
	pct := tail(len(lat))
	meta["ops"] = len(lat)
	meta["attempted"] = p.attempted
	meta["failed"] = p.failed
	if len(p.failures) > 0 {
		meta["failures"] = p.failures
	}
	meta["samples"] = map[string]int{"p50_ms": len(lat), "p90_ms": len(lat)}
	meta["samples_per_window"] = p.windowCounts()
	meta["tail"] = map[string]float64{"percentile": float64(pct), "ms": quantile(lat, float64(pct)/100), "beyond": float64(len(lat) * (100 - pct) / 100)}
	meta["measured_s"] = p.use.wall.Seconds()
	meta["steal_share"] = p.use.stealFrac
	meta["calibration_ms"] = map[string]float64{"before": ms(p.calibration[0]), "after": ms(p.calibration[1])}
	meta["setup_s_each"] = setupS
	for k, v := range p.meta {
		meta[k] = v
	}
}

func newResult(phases []*phase, values map[string]float64, units map[string]string) result {
	r := result{Metrics: make(map[string]metric, len(units))}
	for _, p := range phases {
		r.Attempted += p.attempted
		r.Failed += p.failed
	}
	for name, unit := range units {
		v := values[name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		r.Metrics[name] = metric{Value: v, Unit: unit}
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
	return r
}

// writeReport writes the run's metadata and, traced, its spans.
func writeReport(cfg runConfig, rep *report) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return fmt.Errorf("write report: %w", err)
	}
	base := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d-trace%d", cfg.workload, cfg.seed, boolInt(cfg.traced)))
	if cfg.traced {
		sort.Slice(rep.spans, func(i, j int) bool { return rep.spans[i].Start < rep.spans[j].Start })
		if err := writeSpans(base+".spans.jsonl", rep.spans); err != nil {
			return err
		}
		rep.meta["spans_file"] = base + ".spans.jsonl"
	}
	rep.meta["result"] = rep.result
	data, err := json.MarshalIndent(rep.meta, "", "  ")
	if err != nil {
		return fmt.Errorf("write report: %w", err)
	}
	if err := os.WriteFile(base+".json", append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write report: %w", err)
	}
	return nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
