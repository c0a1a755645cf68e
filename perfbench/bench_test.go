package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"ecavs/internal/campaign"
)

var update = flag.Bool("update", false, "re-record testdata/campaign_golden.json")

// goldenSeeds are the workload seeds whose campaign batch results are
// committed; other seeds check every batch against the run's first.
const goldenSeeds = 32

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {1, 10}, {0.5, 5.5}, {0.9, 9.1}, {0.25, 3.25}, {-1, 1}, {2, 10},
	} {
		if got := quantile(xs, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("quantile(1..10, %v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := quantile([]float64{7}, 0.9); got != 7 {
		t.Errorf("quantile of one sample = %v, want 7", got)
	}
	if got := quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("quantile of nothing = %v, want NaN", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %v, want 2", got)
	}
	for n, want := range map[int]int{100: 90, 99: 75, 5000: 99, 3: 50} {
		if got := tail(n); got != want {
			t.Errorf("tail(%d) = p%d, want p%d (ten samples beyond)", n, got, want)
		}
	}
}

func TestWindowedQuantile(t *testing.T) {
	start := time.Unix(1000, 0)
	p := &phase{start: start, end: start.Add(10 * time.Second)}
	// Ten ops per two-second stretch, 1..10 ms in each; the second
	// stretch is a noise burst at ten times the latency, and one op
	// ends after the deadline, so it counts in the last stretch.
	for w := 0; w < windows; w++ {
		for i := 1; i <= 10; i++ {
			lat := float64(i)
			if w == 1 {
				lat *= 10
			}
			p.pass(start.Add(time.Duration(w)*2*time.Second+time.Duration(i)*100*time.Millisecond), lat)
		}
	}
	p.pass(start.Add(11*time.Second), 10)
	if got := p.windowedQuantile(0.5); got != 5.5 {
		t.Errorf("windowed p50 = %v, want 5.5 (the burst stretch outvoted)", got)
	}
	if got := p.windowedQuantile(0.9); math.Abs(got-9.1) > 1e-12 {
		t.Errorf("windowed p90 = %v, want 9.1", got)
	}
	if got, want := p.windowCounts(), []int{10, 10, 10, 10, 11}; !reflect.DeepEqual(got, want) {
		t.Errorf("window counts %v, want %v", got, want)
	}
	if got := (&phase{}).windowedQuantile(0.5); !math.IsNaN(got) {
		t.Errorf("windowed quantile of no ops = %v, want NaN", got)
	}
}

func TestZipfKeyStreamIsSeeded(t *testing.T) {
	draw := func(seed uint64) []int {
		z := newZipf(900, 1.0, newSplitmix(seed))
		out := make([]int, 2000)
		for i := range out {
			out[i] = z.next()
		}
		return out
	}
	a, b, c := draw(7), draw(7), draw(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different key streams")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same key stream")
	}
	counts := make([]int, 900)
	for _, r := range a {
		if r < 0 || r >= 900 {
			t.Fatalf("rank %d outside [0, 900)", r)
		}
		counts[r]++
	}
	// P(rank 0) = 1/H(900) ≈ 0.135 at s = 1; the head must dominate.
	if share := float64(counts[0]) / 2000; share < 0.1 || share > 0.17 {
		t.Errorf("rank 0 drawn %.3f of the time, want ≈ 0.135", share)
	}
	if counts[0] <= counts[10] || counts[10] < counts[800] {
		t.Errorf("popularity not decreasing: rank0 %d, rank10 %d, rank800 %d", counts[0], counts[10], counts[800])
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "child", Start: 30, End: 60}, // overlaps ID 2
		{ID: 4, Parent: 3, Name: "leaf", Start: 35, End: 45},
		{ID: 5, Parent: 1, Name: "child", Start: 90, End: 120}, // runs past its parent
	}
	got := map[string]layerTime{}
	for _, lt := range selfTimes(spans) {
		got[lt.Name] = lt
	}
	want := map[string]layerTime{
		"op":    {Name: "op", Count: 1, TotalNs: 100, SelfNs: 100 - 50 - 10},
		"child": {Name: "child", Count: 3, TotalNs: 30 + 30 + 30, SelfNs: 30 + 20 + 30},
		"leaf":  {Name: "leaf", Count: 1, TotalNs: 10, SelfNs: 10},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %+v, want %+v", got, want)
	}
}

func TestParseCPUStat(t *testing.T) {
	a := parseCPUStat("cpu  100 0 50 800 10 0 5 20 0 0")
	b := parseCPUStat("cpu  200 0 100 1600 20 0 10 60 0 0")
	if !a.ok || a.total != 985 || a.steal != 20 {
		t.Fatalf("parsed %+v", a)
	}
	if got, want := a.stealSince(b), 40.0/1005; math.Abs(got-want) > 1e-12 {
		t.Errorf("steal share %v, want %v", got, want)
	}
	if parseCPUStat("cpu0 1 2 3").ok {
		t.Error("accepted a line that is not the aggregate")
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metric
// tables the program prints in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want map[string]string) {
		seen := map[string]bool{}
		for _, m := range got {
			if want[m.Name] != m.Unit {
				t.Errorf("%s metric %q: unit %q in BENCHMARK.json, %q in the program", kind, m.Name, m.Unit, want[m.Name])
			}
			seen[m.Name] = true
		}
		for name := range want {
			if !seen[name] {
				t.Errorf("%s metric %q printed but not declared", kind, name)
			}
		}
	}
	check("end-to-end", spec.EndToEnd, endToEndUnits)
	check("per-layer", spec.PerLayer, perLayerUnits)
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q declared but not implemented", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d implemented", len(spec.Workloads), len(workloads))
	}
}

// TestCampaignGolden checks the committed golden results against fresh
// batches at the default seed and a second one; with -update it
// re-records them for seeds 0..goldenSeeds-1.
func TestCampaignGolden(t *testing.T) {
	if *update {
		g := goldenFile{Params: campaignDefaults.batchParams, Results: map[string]json.RawMessage{}}
		for seed := int64(0); seed < goldenSeeds; seed++ {
			c, err := newCampaign(campaignParams{batchParams: campaignDefaults.batchParams}, seed, nil)
			if err != nil {
				t.Fatal(err)
			}
			res, err := campaign.Run(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if g.Results[strconv.FormatInt(seed, 10)], err = json.Marshal(res); err != nil {
				t.Fatal(err)
			}
		}
		// One seed per line keeps the file diffable.
		params, err := json.Marshal(g.Params)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		fmt.Fprintf(&b, "{\n\"params\": %s,\n\"results\": {\n", params)
		for seed := int64(0); seed < goldenSeeds; seed++ {
			sep := ","
			if seed == goldenSeeds-1 {
				sep = ""
			}
			fmt.Fprintf(&b, "%q: %s%s\n", strconv.FormatInt(seed, 10), g.Results[strconv.FormatInt(seed, 10)], sep)
		}
		b.WriteString("}}\n")
		if err := os.WriteFile("testdata/campaign_golden.json", []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for _, seed := range []int64{1, 2} {
		c, err := newCampaign(campaignParams{batchParams: campaignDefaults.batchParams}, seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		if c.golden == nil {
			t.Fatalf("seed %d: no committed golden for the default parameters; run with -update", seed)
		}
		res, err := campaign.Run(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.check(res); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		// A changed value must fail the check.
		bad := *res
		bad.Algorithms = append([]campaign.AlgoSummary(nil), res.Algorithms...)
		bad.Algorithms[3].QoE.Mean += 1e-9
		if err := c.check(&bad); err == nil {
			t.Errorf("seed %d: a perturbed result passed the golden check", seed)
		}
	}
}

func TestSubsetDiff(t *testing.T) {
	want := map[string]any{"a": 1.0, "b": []any{map[string]any{"c": "x"}}}
	if d := subsetDiff(want, map[string]any{"a": 1.0, "b": []any{map[string]any{"c": "x", "new": 2.0}}, "z": true}, "r"); d != "" {
		t.Errorf("added fields rejected at %s", d)
	}
	if d := subsetDiff(want, map[string]any{"a": 2.0, "b": []any{map[string]any{"c": "x"}}}, "r"); d != "r.a" {
		t.Errorf("changed value reported at %q, want r.a", d)
	}
	if d := subsetDiff(want, map[string]any{"a": 1.0}, "r"); d != "r.b" {
		t.Errorf("missing field reported at %q, want r.b", d)
	}
}

// runTiny sets up an instance, measures it briefly and derives its
// per-layer metrics, failing the test on any failed op.
func runTiny(t *testing.T, build func(rec *recorder) (instance, error), traced bool, names ...string) {
	t.Helper()
	var rec *recorder
	if traced {
		rec = newRecorder(spanLimit)
	}
	inst, err := build(rec)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	rec.reset()
	p, err := inst.measure(time.Now().Add(300 * time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if p.attempted == 0 || p.failed != 0 || len(p.lat) == 0 {
		t.Fatalf("attempted %d, failed %d, passed %d: %v", p.attempted, p.failed, len(p.lat), p.failures)
	}
	if !traced {
		return
	}
	spans, _ := rec.snapshot()
	out, layers := inst.layers(p, spans)
	if p.failed != 0 {
		t.Fatalf("layers failed: %v", p.failures)
	}
	if len(layers) == 0 {
		t.Error("no self times")
	}
	for _, name := range names {
		v, ok := out[name]
		if !ok || math.IsNaN(v) || v <= 0 {
			t.Errorf("%s = %v (present %v), want a positive number", name, v, ok)
		}
	}
}

func TestCampaignTiny(t *testing.T) {
	p := campaignParams{batchParams: campaignDefaults.batchParams, warmup: 1, replay: 8}
	p.Sessions = 24
	for _, traced := range []bool{false, true} {
		runTiny(t, func(rec *recorder) (instance, error) { return newCampaign(p, 3, rec) }, traced,
			"abr.decisions_per_op", "core.decide_ns", "core.decide_share", "abr.decide_ns", "abr.decide_share",
			"trace.queries_per_session",
			"trace.query_ns", "netsim.link_calls_per_session", "netsim.link_share", "sim.self_share",
			"sim.segments_per_session")
	}
}

func TestStreamTiny(t *testing.T) {
	p := streamParams{viewers: 1, videoSec: 10, warmup: 1}
	for _, traced := range []bool{false, true} {
		runTiny(t, func(rec *recorder) (instance, error) { return newStream(p, 3, rec) }, traced,
			"httpdash.client.startup_ms", "httpdash.client.manifest_ms", "httpdash.client.fetch_ms.p50",
			"httpdash.server.serve_ms.p50", "net.share", "tracing.fragments_per_op",
			"core.decide_share", "httpdash.client.segments_per_op", "httpdash.client.mb_per_op")
	}
}

func TestEdgeTiny(t *testing.T) {
	p := edgeParams{segments: 10, capacityMB: 2, zipfS: 1.0, warmup: 40}
	for _, traced := range []bool{false, true} {
		runTiny(t, func(rec *recorder) (instance, error) { return newEdge(p, 3, rec) }, traced,
			"httpdash.edge.serve_ms.p50", "httpdash.edge.fill_ms.p50", "httpdash.server.serve_ms.p50",
			"edgecache.hit_ratio", "httpdash.edge.origin_offload", "edgecache.resident_mb", "e2e.p99_ms")
	}
}

// TestRunPrintsResult drives the command line end to end on the
// cheapest workload and checks the result line's shape.
func TestRunPrintsResult(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full campaign workload")
	}
	var out, errOut strings.Builder
	code := run([]string{"--workload", "campaign", "--seed", "2", "--seconds", "1", "--trace", "0", "--out", t.TempDir()}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
		t.Fatalf("result %+v", res)
	}
	for name, unit := range endToEndUnits {
		m, ok := res.Metrics[name]
		if !ok || m.Unit != unit || m.Value <= 0 {
			t.Errorf("metric %s = %+v, want unit %s and a positive value", name, m, unit)
		}
	}
	if len(res.Metrics) != len(endToEndUnits) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(endToEndUnits))
	}
	if code := run([]string{"--workload", "nope"}, &out, &errOut); code == 0 {
		t.Error("unknown workload exited 0")
	}
}
