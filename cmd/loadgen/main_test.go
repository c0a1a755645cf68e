package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ecavs/internal/benchfmt"
	"ecavs/internal/dash"
	"ecavs/internal/faults"
	"ecavs/internal/httpdash"
	"ecavs/internal/tracing"
)

func TestParseRungs(t *testing.T) {
	cases := []struct {
		sel   string
		rungs int
		want  []int
		err   bool
	}{
		{"all", 3, []int{0, 1, 2}, false},
		{"", 2, []int{0, 1}, false},
		{"0,2", 3, []int{0, 2}, false},
		{"5,5,0", 6, []int{5, 5, 0}, false},
		{" 1 , 2 ", 3, []int{1, 2}, false},
		{"3", 3, nil, true},  // out of range
		{"-1", 3, nil, true}, // negative
		{"x", 3, nil, true},  // not a number
		{",", 3, nil, true},  // empty selection
	}
	for _, c := range cases {
		got, err := parseRungs(c.sel, c.rungs)
		if c.err {
			if err == nil {
				t.Errorf("parseRungs(%q, %d): want error, got %v", c.sel, c.rungs, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseRungs(%q, %d): %v", c.sel, c.rungs, err)
			continue
		}
		if len(got) != len(c.want) {
			t.Errorf("parseRungs(%q, %d) = %v, want %v", c.sel, c.rungs, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("parseRungs(%q, %d) = %v, want %v", c.sel, c.rungs, got, c.want)
				break
			}
		}
	}
}

func TestFaultPlanNilWhenAllZero(t *testing.T) {
	plan, err := faultPlan(faults.Config{StallFor: time.Second, MaxFaultsPerKey: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if plan != nil {
		t.Error("all-zero probabilities produced a non-nil plan")
	}
}

func TestRunFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-workers", "0"},
		{"-duration", "0s"},
		{"-duration", "200ms", "-rungs", "99"},
	} {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("run(%v): want error", args)
		}
	}
}

// TestRunSmoke drives the whole thing: in-process server, closed-loop
// workers, JSON report, and a benchfmt snapshot — the same path `make
// loadtest` exercises in CI.
func TestRunSmoke(t *testing.T) {
	benchOut := filepath.Join(t.TempDir(), "load.json")
	var buf bytes.Buffer
	err := run([]string{
		"-workers", "4",
		"-duration", "300ms",
		"-rungs", "0,2",
		"-video-sec", "20",
		"-json",
		"-bench-out", benchOut,
		"-min-rps", "1",
	}, &buf)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}

	var rep report
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("report not JSON: %v\n%s", err, buf.String())
	}
	if rep.Requests == 0 {
		t.Fatal("no requests completed")
	}
	if rep.Errors != 0 {
		t.Errorf("clean server produced %d errors", rep.Errors)
	}
	if rep.Bytes == 0 || rep.BytesPerSec == 0 || rep.RequestsPerSec == 0 {
		t.Errorf("zero throughput in report: %+v", rep)
	}
	if rep.Workers != 4 || len(rep.RungMix) != 2 {
		t.Errorf("config echo wrong: workers=%d mix=%v", rep.Workers, rep.RungMix)
	}
	if rep.LatencyP50Ms <= 0 || rep.LatencyP99Ms < rep.LatencyP50Ms {
		t.Errorf("implausible percentiles: p50=%.3f p99=%.3f", rep.LatencyP50Ms, rep.LatencyP99Ms)
	}
	if rep.LatencyMaxMs < rep.LatencyP50Ms {
		t.Errorf("max %.3f below p50 %.3f", rep.LatencyMaxMs, rep.LatencyP50Ms)
	}
	if !strings.HasPrefix(rep.URL, "http://127.0.0.1:") {
		t.Errorf("expected in-process loopback URL, got %q", rep.URL)
	}

	snap, err := benchfmt.ReadFile(benchOut)
	if err != nil {
		t.Fatalf("bench-out: %v", err)
	}
	if len(snap) != 4 {
		t.Fatalf("bench-out has %d entries, want 4", len(snap))
	}
	m := benchfmt.Map(snap)
	for _, name := range []string{"Loadgen/request_mean", "Loadgen/latency_p50", "Loadgen/latency_p95", "Loadgen/latency_p99"} {
		if m[name].NsPerOp <= 0 {
			t.Errorf("%s: ns_per_op = %v, want > 0", name, m[name].NsPerOp)
		}
	}
}

// Injected 5xx responses are counted as errors, and the loop keeps
// going — errors must not wedge a closed-loop worker.
func TestRunCountsFaultErrors(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-workers", "2",
		"-duration", "300ms",
		"-json",
		"-fault-5xx", "0.5",
		"-fault-seed", "7",
	}, &buf)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	var rep report
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Errors == 0 {
		t.Error("50% 5xx produced zero errors")
	}
	if rep.Requests == 0 {
		t.Error("faulty run completed zero requests")
	}
}

// TestRunRetriesSkip4xx pins that -retries re-attempts only what a
// retry can fix: against an origin that answers 404 for every segment,
// each request chain must reach the server once, not 1+retries times.
func TestRunRetriesSkip4xx(t *testing.T) {
	m, err := dash.NewManifest(dash.Video{Title: "404", SpatialInfo: 45, TemporalInfo: 15, DurationSec: 10},
		dash.TableIILadder(), dash.ManifestConfig{SegmentSec: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	origin, err := httpdash.NewServer(m)
	if err != nil {
		t.Fatal(err)
	}
	var segRequests atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/seg/") {
			segRequests.Add(1)
			http.NotFound(w, r)
			return
		}
		origin.ServeHTTP(w, r)
	}))
	defer ts.Close()

	var buf bytes.Buffer
	if err := run([]string{"-url", ts.URL, "-workers", "2", "-duration", "200ms", "-retries", "3", "-json"}, &buf); err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	var rep report
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Issued == 0 || rep.Errors == 0 || rep.Requests != 0 {
		t.Fatalf("issued %d, errors %d, ok %d: want only errors", rep.Issued, rep.Errors, rep.Requests)
	}
	// A chain the run deadline cut off may not have reached the server.
	if got := segRequests.Load(); got > rep.Issued || got < rep.Issued-rep.Aborted {
		t.Errorf("%d segment requests for %d chains (%d aborted): 404s were retried", got, rep.Issued, rep.Aborted)
	}
}

// A -url given with a trailing slash addresses the same presentation:
// neither the manifest nor a segment request may start with "//".
func TestRunURLTrailingSlash(t *testing.T) {
	m, err := dash.NewManifest(dash.Video{Title: "slash", SpatialInfo: 45, TemporalInfo: 15, DurationSec: 10},
		dash.TableIILadder(), dash.ManifestConfig{SegmentSec: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	origin, err := httpdash.NewServer(m)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(origin)
	defer ts.Close()

	var buf bytes.Buffer
	if err := run([]string{"-url", ts.URL + "/", "-workers", "2", "-duration", "200ms", "-json"}, &buf); err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	var rep report
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Requests == 0 || rep.Errors != 0 {
		t.Errorf("ok %d, errors %d: want goodput and no errors", rep.Requests, rep.Errors)
	}
}

// TestRunOpenLoopOverloadChaos is the shed-path chaos run: open-loop
// arrivals at far above capacity (300 req/s offered against 2
// concurrent transfers rate-shaped to 2 MB/s) must overload the
// server, and the overload must degrade gracefully — every refusal a
// 503 carrying Retry-After, every issued request accounted for exactly
// once, goodput bounded by the token-bucket cap rather than inflated
// by the excess demand, and a clean drain afterwards. This is the
// -race acceptance run; `make overload` drives the same invariants
// from the command line via -gate-overload.
func TestRunOpenLoopOverloadChaos(t *testing.T) {
	const rateMBps = 2
	var buf bytes.Buffer
	err := run([]string{
		"-rps", "300",
		"-max-inflight", "2",
		"-max-queue", "2",
		"-queue-wait", "20ms",
		"-rate", "2",
		"-rungs", "0",
		"-duration", "700ms",
		"-json",
		"-gate-overload",
	}, &buf)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	var rep report
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("report not JSON: %v\n%s", err, buf.String())
	}
	if rep.Shed == 0 {
		t.Fatal("open loop at 300 req/s against 2 slots never shed")
	}
	if rep.Requests == 0 {
		t.Fatal("overloaded server completed zero requests — shedding everything is not graceful")
	}
	if got := rep.Requests + rep.Shed + rep.Errors + rep.Aborted; got != rep.Issued {
		t.Errorf("accounting leak: issued %d but ok+shed+errors+aborted = %d", rep.Issued, got)
	}
	if rep.MissingRetryAfter != 0 {
		t.Errorf("%d 5xx responses lacked Retry-After", rep.MissingRetryAfter)
	}
	if rep.Errors != 0 {
		t.Errorf("clean overloaded server produced %d hard errors", rep.Errors)
	}
	// Goodput must stay within tolerance of what the admission cap and
	// token bucket allow — overload must not inflate delivery. 2 MB/s
	// over 25 KB rung-0 segments is 80 req/s of capacity; the wide
	// tolerance absorbs scheduler jitter in slow CI containers without
	// letting the 300 req/s offered rate leak through.
	capacity := rateMBps * 1e6
	if rep.BytesPerSec > 1.75*capacity {
		t.Errorf("egress %.0f B/s exceeds %.0f token-bucket cap beyond tolerance", rep.BytesPerSec, capacity)
	}
	if rep.ServerInFlightAfterDrain != 0 {
		t.Errorf("drain leaked %d in-flight transfers", rep.ServerInFlightAfterDrain)
	}
	// The server's own shed count must cover every polite refusal the
	// client observed (it can exceed it when the deadline cut off a
	// shed response mid-read, which the client records as an abort).
	if rep.ServerShed < rep.Shed {
		t.Errorf("server recorded %d sheds but client observed %d", rep.ServerShed, rep.Shed)
	}
}

// Latency faults compose with admission control: slow transfers hold
// slots longer, so the queue deadline does the shedding. The graceful
// degradation invariants must survive the combination.
func TestRunOpenLoopOverloadChaosLatencyFaults(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-rps", "200",
		"-max-inflight", "2",
		"-max-queue", "1",
		"-queue-wait", "15ms",
		"-rungs", "0",
		"-duration", "600ms",
		"-fault-latency", "0.5",
		"-fault-latency-for", "30ms",
		"-fault-seed", "11",
		"-json",
		"-gate-overload",
	}, &buf)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	var rep report
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Shed == 0 || rep.Requests == 0 {
		t.Errorf("want both sheds and goodput under latency faults, got shed=%d ok=%d", rep.Shed, rep.Requests)
	}
	if rep.MissingRetryAfter != 0 {
		t.Errorf("%d 5xx responses lacked Retry-After", rep.MissingRetryAfter)
	}
}

// gateOverloadRun is the CI tripwire; every invariant must fail loudly.
func TestGateOverloadRun(t *testing.T) {
	good := report{Issued: 10, Requests: 5, Shed: 3, Errors: 1, Aborted: 1}
	if err := gateOverloadRun(good, true); err != nil {
		t.Errorf("balanced report tripped the gate: %v", err)
	}
	cases := []struct {
		name string
		rep  report
		want string
	}{
		{"no shedding", report{Issued: 5, Requests: 5}, "never overloaded"},
		{"accounting leak", report{Issued: 10, Requests: 5, Shed: 3}, "accounting leak"},
		{"missing retry-after", report{Issued: 10, Requests: 5, Shed: 3, Errors: 2, MissingRetryAfter: 2}, "lacked Retry-After"},
		{"leaked in-flight", report{Issued: 10, Requests: 6, Shed: 4, ServerInFlightAfterDrain: 2}, "leaked"},
	}
	for _, c := range cases {
		err := gateOverloadRun(c.rep, true)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: want error containing %q, got %v", c.name, c.want, err)
		}
	}
}

func TestRunMinRPSGate(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-workers", "1",
		"-duration", "200ms",
		"-min-rps", "1e12",
	}, &buf)
	if err == nil || !strings.Contains(err.Error(), "below -min-rps") {
		t.Fatalf("want min-rps gate failure, got %v", err)
	}
}

// TestRunTraceSmoke is the acceptance scenario `make tracesmoke`
// drives: a faulty in-process server, retrying workers, tracing on
// with keep-everything sampling — the run must produce sampled
// cross-process traces whose client attempt spans and server spans
// share one trace ID, and the retries must absorb the faults. Fault
// seed 5 faults 5 of the presentation's 10 segment keys (seed 7, for
// one, faults none), and -trace-slowest above the ring's capacity puts
// every stored trace in the report.
func TestRunTraceSmoke(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-workers", "4",
		"-duration", "500ms",
		"-rungs", "0",
		"-video-sec", "20",
		"-fault-5xx", "0.25",
		"-fault-max-per-key", "1",
		"-fault-seed", "5",
		"-retries", "3",
		"-trace-cap", "2048",
		"-trace-ratio", "1",
		"-trace-slowest", "4096",
		"-gate-trace",
		"-json",
	}, &buf)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	var rep report
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("report not JSON: %v\n%s", err, buf.String())
	}
	if rep.Requests == 0 {
		t.Fatal("no requests completed")
	}
	if rep.ServerFaults == 0 {
		t.Fatal("the fault plan injected nothing: the retry and error-verdict checks would be vacuous")
	}
	// Each fault plan key relents after one 5xx, so three retries must
	// absorb every injected fault: the chains end in goodput, not errors.
	if rep.Errors != 0 {
		t.Errorf("retries did not absorb the faults: %d errors", rep.Errors)
	}
	if got := rep.Requests + rep.Shed + rep.Errors + rep.Aborted; got != rep.Issued {
		t.Errorf("retry chains broke accounting: issued %d but ok+shed+errors+aborted = %d", rep.Issued, got)
	}

	tr := rep.Traces
	if tr == nil {
		t.Fatal("report has no traces section")
	}
	if tr.Kept == 0 || tr.Stored == 0 {
		t.Fatalf("keep-everything sampling kept nothing: %+v", tr)
	}
	if tr.KeptError == 0 {
		t.Errorf("injected 5xx faults produced no error-verdict traces: %+v", tr)
	}
	if tr.CrossProcess == 0 {
		t.Fatalf("no cross-process trace: %+v", tr)
	}
	if len(tr.Slowest) != tr.Stored {
		t.Fatalf("report breaks down %d of %d stored traces, want all", len(tr.Slowest), tr.Stored)
	}
	// Every stored chain must be end to end, except one the run deadline
	// cancelled: it may never have reached the server.
	checked := 0
	for _, s := range tr.Slowest {
		var attempts, serves int
		cancelled := false
		for _, sp := range s.Spans {
			switch {
			case sp.Service == "loadgen" && sp.Name == "request":
				cancelled = sp.Status == "cancelled"
			case sp.Service == "loadgen" && sp.Name == "attempt":
				attempts++
			case sp.Service == "server" && sp.Name == "serve_segment":
				serves++
			}
		}
		if cancelled {
			continue
		}
		checked++
		if s.DurationMs <= 0 {
			t.Errorf("trace %s has non-positive duration %.3f", s.TraceID, s.DurationMs)
		}
		if attempts == 0 || serves == 0 {
			t.Errorf("trace %s %v: %d loadgen attempts, %d server serves — not end-to-end", s.TraceID, s.Services, attempts, serves)
		}
	}
	if checked == 0 {
		t.Fatal("every stored trace was a cancelled chain: nothing checked end to end")
	}
}

// TestRunGateTraceNeedsCap pins the flag dependency: the gate cannot
// assert anything with tracing disabled, so it must refuse to run.
func TestRunGateTraceNeedsCap(t *testing.T) {
	err := run([]string{"-duration", "100ms", "-gate-trace"}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "-trace-cap") {
		t.Fatalf("want -trace-cap dependency error, got %v", err)
	}
}

// gateTraceRun is the tracesmoke tripwire; each invariant must fail loudly.
func TestGateTraceRun(t *testing.T) {
	if err := gateTraceRun(&traceReport{Kept: 3, CrossProcess: 1}, true, false); err != nil {
		t.Errorf("healthy trace report tripped the gate: %v", err)
	}
	// Against an external target the server half never lands in the
	// local store, so cross-process is not required.
	if err := gateTraceRun(&traceReport{Kept: 3}, false, false); err != nil {
		t.Errorf("external-target report tripped the gate: %v", err)
	}
	// With the in-process edge in the path, a cross-process trace alone
	// is not enough: at least one miss must have merged loadgen, edge,
	// and server fragments into a single three-service trace.
	if err := gateTraceRun(&traceReport{Kept: 3, CrossProcess: 2, ThreeWay: 1}, true, true); err != nil {
		t.Errorf("healthy edge trace report tripped the gate: %v", err)
	}
	if err := gateTraceRun(&traceReport{Kept: 3, CrossProcess: 2}, true, true); err == nil || !strings.Contains(err.Error(), "three") {
		t.Errorf("edge run without a three-service trace should trip the gate, got %v", err)
	}
	cases := []struct {
		name string
		tr   *traceReport
		want string
	}{
		{"disabled", nil, "disabled"},
		{"nothing sampled", &traceReport{Seen: 100}, "no traces sampled"},
		{"no merge", &traceReport{Kept: 5}, "cross-process"},
	}
	for _, c := range cases {
		err := gateTraceRun(c.tr, true, false)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: want error containing %q, got %v", c.name, c.want, err)
		}
	}
}

func TestHumanOutput(t *testing.T) {
	var buf bytes.Buffer
	writeHuman(&buf, report{
		URL: "http://x", Workers: 2, RungMix: []int{0, 1},
		DurationSec: 1, WallSec: 1.01,
		Requests: 100, Errors: 1, RequestsPerSec: 99, BytesPerSec: 2.5e6,
		LatencyMeanMs: 1.5, LatencyP50Ms: 1.2, LatencyP95Ms: 3, LatencyP99Ms: 4, LatencyMaxMs: 5,
	})
	out := buf.String()
	for _, want := range []string{"http://x", "workers 2", "rung mix [0 1]", "99.0 req/s", "2.50 MB/s", "p99 4.00"} {
		if !strings.Contains(out, want) {
			t.Errorf("human output missing %q:\n%s", want, out)
		}
	}

	buf.Reset()
	writeHuman(&buf, report{
		URL: "http://x", Workers: 1, RungMix: []int{0}, DurationSec: 1, WallSec: 1,
		Traces: &traceReport{
			Seen: 10, Kept: 4, KeptError: 1, KeptLatency: 1, KeptRatio: 2,
			Stored: 4, CrossProcess: 4,
			Slowest: []tracing.TraceView{{
				TraceID: "aabb", DurationMs: 12.5, Services: []string{"loadgen", "server"}, Error: true,
				Spans: []tracing.SpanView{
					{Service: "loadgen", Name: "request", DurationMs: 12.5},
					{Service: "server", Name: "serve_segment", OffsetMs: 1.5, DurationMs: 9, Status: "error"},
				},
			}},
		},
	})
	out = buf.String()
	for _, want := range []string{"traces  seen 10  kept 4", "cross-process 4/4", "aabb  12.50ms  [loadgen server]  !", "serve_segment", "error"} {
		if !strings.Contains(out, want) {
			t.Errorf("human trace output missing %q:\n%s", want, out)
		}
	}

	// An open-loop overload run through the edge: the offered rate, the
	// shed line, the server's drain record and the edge section.
	buf.Reset()
	writeHuman(&buf, report{
		URL: "http://x", Workers: 8, RPS: 400, RungMix: []int{0}, DurationSec: 2, WallSec: 2,
		Issued: 800, Requests: 300, Shed: 480, Aborted: 20, ShedRate: 0.6,
		RequestsPerSec: 150, OfferedPerSec: 400,
		ServerShed: 500, ServerQueued: 90,
		Edge: &edgeReport{
			Requests: 800, Hits: 780, Fills: 10, Errors: 10, HitRatio: 0.975,
			OriginRequests: 10, OriginOffload: 0.9875, Entries: 10, CacheBytes: 250000, Evictions: 2,
		},
	})
	out = buf.String()
	for _, want := range []string{
		"open loop 400 req/s offered",
		"issued 800  shed 480 (60%)  aborted 20  goodput 150.0 req/s of 400.0 offered",
		"server shed 500  queued 90  in-flight after drain 0",
		"edge  requests 800  hits 780  fills 10  stale 0  errors 10  hit ratio 97.5%",
		"edge  origin saw 10 requests  offload 98.8%  cache 10 entries / 0.25 MB  evictions 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("human overload/edge output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "workers") {
		t.Errorf("open-loop output names workers:\n%s", out)
	}

	// Against an external origin the edge cannot observe origin
	// traffic, so the origin line is left out.
	buf.Reset()
	writeHuman(&buf, report{
		URL: "http://x", Workers: 1, RungMix: []int{0}, DurationSec: 1, WallSec: 1,
		Edge: &edgeReport{Requests: 5, Hits: 4, Fills: 1, HitRatio: 0.8, OriginRequests: -1},
	})
	out = buf.String()
	if !strings.Contains(out, "hit ratio 80.0%") || strings.Contains(out, "origin saw") {
		t.Errorf("external-origin edge output wrong:\n%s", out)
	}
}

// TestRunEdgeSmoke is the scenario `make edgesmoke` drives, shortened:
// open-loop arrivals through an in-process edge fronting an in-process
// origin, one rung of a 10-segment presentation, tracing on (the gates
// require the hit ratio and a three-service trace). Every edge request
// must resolve to exactly one outcome, and the origin must have seen
// exactly the edge's fills.
func TestRunEdgeSmoke(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-edge",
		"-rps", "300",
		"-duration", "500ms",
		"-video-sec", "20",
		"-rungs", "0",
		"-gate-hit-ratio", "0.9",
		"-trace-cap", "4096",
		"-trace-ratio", "1",
		"-json",
		"-gate-trace",
	}, &buf)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	var rep report
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("report not JSON: %v\n%s", err, buf.String())
	}
	e := rep.Edge
	if e == nil {
		t.Fatal("report has no edge section")
	}
	if e.Requests == 0 || e.Fills == 0 {
		t.Fatalf("edge saw %d requests and %d fills, want both > 0", e.Requests, e.Fills)
	}
	if got := e.Hits + e.Fills + e.StaleServes + e.Errors; got != e.Requests {
		t.Errorf("edge accounting: %d requests but hits+fills+stale+errors = %d", e.Requests, got)
	}
	if e.OriginRequests != e.Fills {
		t.Errorf("origin saw %d requests, edge filled %d", e.OriginRequests, e.Fills)
	}
}

// gateEdgeRun is the edgesmoke tripwire; each invariant must fail loudly.
func TestGateEdgeRun(t *testing.T) {
	good := &edgeReport{Requests: 10, Hits: 8, Fills: 1, StaleServes: 1, HitRatio: 0.9}
	if err := gateEdgeRun(good, 0.9); err != nil {
		t.Errorf("balanced report at the bar tripped the gate: %v", err)
	}
	cases := []struct {
		name string
		er   *edgeReport
		want string
	}{
		{"no edge", nil, "no edge ran"},
		{"accounting leak", &edgeReport{Requests: 10, Hits: 8, Fills: 1, HitRatio: 0.8}, "accounting leak"},
		{"low hit ratio", &edgeReport{Requests: 10, Hits: 5, Fills: 5, HitRatio: 0.5}, "hit ratio"},
	}
	for _, c := range cases {
		err := gateEdgeRun(c.er, 0.9)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: want error containing %q, got %v", c.name, c.want, err)
		}
	}
}
