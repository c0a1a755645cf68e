package httpdash

import (
	"context"
	"io"
	"net/http"
	"testing"
	"time"

	"ecavs/internal/abr"
	"ecavs/internal/faults"
	"ecavs/internal/tracing"
)

// traceSetup wires a client and server around one shared trace store
// (the in-process topology cmd/loadgen uses), keeping every trace.
func traceSetup(t *testing.T, faultCfg *faults.Config, clientOpts ...ClientOption) (*tracing.Store, *Client) {
	t.Helper()
	store := tracing.NewStore(256)
	keepAll := tracing.Sampler{KeepErrors: true, Ratio: 1}
	serverTracer := tracing.New(tracing.Config{Service: "server", Sampler: keepAll, Seed: 2}, store)
	clientTracer := tracing.New(tracing.Config{Service: "client", Sampler: keepAll, Seed: 3}, store)

	srvOpts := []ServerOption{WithServerTracing(serverTracer)}
	if faultCfg != nil {
		plan, err := faults.NewPlan(*faultCfg, 7)
		if err != nil {
			t.Fatal(err)
		}
		srvOpts = append(srvOpts, WithFaults(plan))
	}
	_, ts := newTestServer(t, 8, srvOpts...)

	opts := append([]ClientOption{WithTracing(clientTracer)}, clientOpts...)
	client, err := NewClient(ts.URL, abr.NewYoutube(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return store, client
}

// TestTracingEndToEnd is the acceptance-criteria scenario: a faulty
// server forces client retries, and the resulting trace carries the
// client's attempt spans and the server's spans under one trace ID.
func TestTracingEndToEnd(t *testing.T) {
	store, client := traceSetup(t,
		&faults.Config{Error5xxProb: 1, MaxFaultsPerKey: 1},
		WithRetryPolicy(RetryPolicy{MaxAttempts: 3, BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond}),
	)
	stats, err := client.Stream(context.Background())
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	if stats.Retries == 0 {
		t.Fatal("fault plan produced no retries — the scenario is vacuous")
	}

	views := store.Views()
	if len(views) != len(stats.Fetches) {
		t.Fatalf("%d merged traces for %d segments", len(views), len(stats.Fetches))
	}
	// Every segment with a retry must have a cross-process trace whose
	// client attempt spans and server spans share the trace ID.
	crossRetried := 0
	for _, v := range views {
		if len(v.Services) != 2 {
			t.Fatalf("trace %s spans services %v, want client+server", v.TraceID, v.Services)
		}
		var attempts, serves, backoffs int
		var sawAdmissionlessServe bool
		for _, sp := range v.Spans {
			switch sp.Name {
			case "attempt":
				if sp.Service != "client" {
					t.Fatalf("attempt span from %q", sp.Service)
				}
				attempts++
			case "backoff":
				backoffs++
			case "serve_segment":
				if sp.Service != "server" {
					t.Fatalf("serve_segment span from %q", sp.Service)
				}
				serves++
				if sp.ParentID == "" {
					sawAdmissionlessServe = true
				}
			}
		}
		if attempts == 0 || serves == 0 {
			t.Fatalf("trace %s: %d attempts, %d serves — not end-to-end", v.TraceID, attempts, serves)
		}
		if sawAdmissionlessServe {
			t.Fatalf("trace %s: server root lost its client parent link", v.TraceID)
		}
		if attempts > 1 {
			crossRetried++
			if backoffs == 0 {
				t.Fatalf("trace %s retried without a backoff span", v.TraceID)
			}
			if !v.Error {
				t.Fatalf("trace %s retried but carries no error status", v.TraceID)
			}
		}
	}
	if crossRetried == 0 {
		t.Fatal("no retried cross-process trace found")
	}
}

// TestTracingServerSpansDetail checks the server-side span inventory:
// admission and write children with byte accounting.
func TestTracingServerSpansDetail(t *testing.T) {
	store, client := traceSetup(t, nil)
	stats, err := client.Stream(context.Background())
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	views := store.Views()
	if len(views) == 0 {
		t.Fatal("no traces recorded")
	}
	var sawWrite bool
	for _, v := range views {
		for _, sp := range v.Spans {
			if sp.Service == "server" && sp.Name == "write" {
				sawWrite = true
				var gotBytes, gotPace bool
				for _, a := range sp.Attrs {
					if a.Key == "bytes" && a.Value != "0" {
						gotBytes = true
					}
					if a.Key == "pace_wait" {
						gotPace = true
					}
				}
				if !gotBytes || !gotPace {
					t.Fatalf("write span attrs incomplete: %+v", sp.Attrs)
				}
			}
		}
	}
	if !sawWrite {
		t.Fatal("no server write span recorded")
	}
	_ = stats
}

// TestTracingPipelinedSpans checks the fetch loop records one root per
// segment at every depth. With prefetch each root carries the prefetch
// mode and a pipeline_wait child; without it the tree is the plain
// per-segment one, with neither.
func TestTracingPipelinedSpans(t *testing.T) {
	for _, ahead := range []int{0, 2} {
		store, client := traceSetup(t, nil, WithFetchAhead(ahead))
		stats, err := client.Stream(context.Background())
		if err != nil {
			t.Fatalf("ahead %d: stream: %v", ahead, err)
		}
		views := store.Views()
		if len(views) != len(stats.Fetches) {
			t.Fatalf("ahead %d: %d traces for %d segments", ahead, len(views), len(stats.Fetches))
		}
		waits, modes := 0, 0
		for _, v := range views {
			for _, sp := range v.Spans {
				if sp.Name == "pipeline_wait" {
					waits++
				}
				for _, a := range sp.Attrs {
					if a.Key == "mode" {
						modes++
					}
				}
			}
		}
		want := len(stats.Fetches)
		if ahead == 0 {
			want = 0
		}
		if waits != want || modes != want {
			t.Fatalf("ahead %d: %d pipeline_wait spans and %d mode attributes for %d segments, want %d each",
				ahead, waits, modes, len(stats.Fetches), want)
		}
	}
}

// TestTracingDisabledIsInert pins that a nil tracer changes nothing:
// the same session succeeds and no store is touched.
func TestTracingDisabledIsInert(t *testing.T) {
	_, ts := newTestServer(t, 8)
	client, err := NewClient(ts.URL, abr.NewYoutube(), WithTracing(nil))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := client.Stream(context.Background())
	if err != nil {
		t.Fatalf("stream with tracing disabled: %v", err)
	}
	if len(stats.Fetches) == 0 {
		t.Fatal("no segments fetched")
	}
}

// TestTracingShedStatus checks an admission shed surfaces as a "shed"
// span status — which is what makes the KeepErrors tail-sampling slice
// retain every shed request even at Ratio 0.
func TestTracingShedStatus(t *testing.T) {
	store := tracing.NewStore(64)
	serverTracer := tracing.New(tracing.Config{
		Service: "server",
		// Errors-only sampling: the shed trace must be kept purely by
		// its status, not by ratio or latency.
		Sampler: tracing.Sampler{KeepErrors: true, Ratio: 0},
		Seed:    5,
	}, store)
	srv, ts := newTestServer(t, 8,
		WithServerTracing(serverTracer),
		WithAdmissionControl(AdmissionConfig{MaxInFlight: 1, MaxQueue: 0}),
		// Slow egress keeps the first transfer holding the only
		// admission slot while the second request arrives.
		WithRateLimitMBps(0.05),
	)
	url, err := srv.segmentURL(ts.URL, 0, 0)
	if err != nil {
		t.Fatal(err)
	}

	// First request admits and then crawls through pacing; http.Get
	// returns at the first chunk, with the handler still in the slot.
	slow, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		slow.Body.Close()
	}()

	shed, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, shed.Body)
	shed.Body.Close()
	if shed.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second request status = %d, want 503 shed", shed.StatusCode)
	}
	if ra := shed.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("shed Retry-After = %q, want \"1\"", ra)
	}

	// The shed fragment completes the moment the 503 is written.
	found := false
	for _, v := range store.Views() {
		for _, sp := range v.Spans {
			if sp.Status == "shed" {
				found = true
			}
		}
		if len(v.Verdicts) != 1 || v.Verdicts[0] != tracing.VerdictError {
			t.Fatalf("shed trace verdicts = %v, want [error]", v.Verdicts)
		}
	}
	if !found {
		t.Fatal("no shed span status recorded")
	}
}
