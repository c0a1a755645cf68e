package httpdash

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"ecavs/internal/abr"
	"ecavs/internal/faults"
	"ecavs/internal/telemetry"
)

// get fetches a URL and drains the body, returning the byte count.
func get(t *testing.T, url string) int64 {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	n, err := io.Copy(io.Discard, resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// waitIdle drains srv so its counters are final. The client can hold
// a response's last byte before the handler has counted that chunk
// (counted after Write returns) or observed its latency (in a defer).
func waitIdle(t *testing.T, srv *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("server did not go idle: %v", err)
	}
}

// TestServerSnapshotPerRung pins that Snapshot breaks requests and
// bytes down by rung, and that its totals are the cross-rung sums.
func TestServerSnapshotPerRung(t *testing.T) {
	srv, ts := newTestServer(t, 20)
	fetch := func(rung, seg int) int64 {
		url, err := srv.segmentURL(ts.URL, rung, seg)
		if err != nil {
			t.Fatal(err)
		}
		return get(t, url)
	}
	n0a := fetch(0, 0)
	n0b := fetch(0, 1)
	n3 := fetch(3, 0)
	waitIdle(t, srv)

	snap := srv.Snapshot()
	if len(snap.Rungs) != 6 {
		t.Fatalf("snapshot has %d rungs, want the 6-rung test ladder", len(snap.Rungs))
	}
	if r := snap.Rungs[0]; r.Requests != 2 || r.Bytes != n0a+n0b {
		t.Errorf("rung 0 = %+v, want 2 requests / %d bytes", r, n0a+n0b)
	}
	if r := snap.Rungs[3]; r.Requests != 1 || r.Bytes != n3 {
		t.Errorf("rung 3 = %+v, want 1 request / %d bytes", r, n3)
	}
	if r := snap.Rungs[1]; r.Requests != 0 || r.Bytes != 0 || r.Faults != 0 {
		t.Errorf("untouched rung 1 = %+v, want zeros", r)
	}
	if snap.Requests != 3 || snap.Bytes != n0a+n0b+n3 {
		t.Errorf("totals = %d requests / %d bytes, want 3 / %d", snap.Requests, snap.Bytes, n0a+n0b+n3)
	}
}

// TestServerSnapshotCountsFaults pins fault accounting per rung with a
// scripted plan: exactly the injected verdicts show up, on the rung
// that was hit.
func TestServerSnapshotCountsFaults(t *testing.T) {
	plan := faults.NewScript([]faults.Verdict{
		{Kind: faults.Error5xx, Status: 503},
		{Kind: faults.None},
	})
	srv, ts := newTestServer(t, 20, WithFaults(plan))
	url, err := srv.segmentURL(ts.URL, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	get(t, url) // scripted 503
	get(t, url) // scripted pass-through

	snap := srv.Snapshot()
	if r := snap.Rungs[2]; r.Requests != 2 || r.Faults != 1 {
		t.Errorf("rung 2 = %+v, want 2 requests / 1 fault", r)
	}
	if snap.Faults != 1 {
		t.Errorf("total faults = %d, want 1", snap.Faults)
	}
}

// TestServerTelemetryExposition streams a real session against a
// telemetry-wired server and client, then scrapes the registry: the
// per-rung server series and the client counters must be present and
// consistent with Stats.
func TestServerTelemetryExposition(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv, ts := newTestServer(t, 20, WithServerTelemetry(reg))
	client, err := NewClient(ts.URL, abr.NewFESTIVE(), WithClientTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := client.Stream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	waitIdle(t, srv)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	expo := sb.String()
	for _, want := range []string{
		`httpdash_server_requests_total{rung="0"}`,
		"# TYPE httpdash_server_bytes_total counter",
		"# TYPE httpdash_server_segment_seconds histogram",
		"httpdash_server_segment_seconds_count",
		"httpdash_client_segments_total",
		"httpdash_client_bytes_total",
	} {
		if !strings.Contains(expo, want) {
			t.Errorf("exposition missing %q:\n%s", want, expo)
		}
	}

	snap := srv.Snapshot()
	var telBytes, telRequests int64
	for i := range snap.Rungs {
		telBytes += srv.telBytes[i].Value()
		telRequests += srv.telRequests[i].Value()
	}
	if telBytes != snap.Bytes || telRequests != snap.Requests {
		t.Errorf("telemetry mirror diverged: %d/%d bytes, %d/%d requests",
			telBytes, snap.Bytes, telRequests, snap.Requests)
	}
	if got := srv.telLatency.Count(); got != snap.Requests {
		t.Errorf("latency histogram saw %d requests, server saw %d", got, snap.Requests)
	}
	if got := c(reg, "httpdash_client_segments_total"); got != int64(len(stats.Fetches)) {
		t.Errorf("client segments counter = %d, Stats has %d fetches", got, len(stats.Fetches))
	}
	if got := c(reg, "httpdash_client_bytes_total"); got != stats.TotalBytes {
		t.Errorf("client bytes counter = %d, Stats has %d", got, stats.TotalBytes)
	}
}

// c reads an unlabeled counter back out of the registry.
func c(reg *telemetry.Registry, name string) int64 {
	return reg.Counter(name, "").Value()
}

// TestClientTelemetryCountsRetries drives the client through a
// scripted fault storm and checks the registry mirrors the Stats
// resilience counters exactly.
func TestClientTelemetryCountsRetries(t *testing.T) {
	// Every segment's first attempt 503s, the retry succeeds.
	plan, err := faults.NewPlan(faults.Config{Error5xxProb: 1, MaxFaultsPerKey: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	_, ts := newTestServer(t, 10, WithFaults(plan), WithServerTelemetry(reg))
	client, err := NewClient(ts.URL, abr.NewYoutube(),
		WithClientTelemetry(reg),
		WithRetryPolicy(RetryPolicy{
			MaxAttempts:    3,
			AttemptTimeout: 5 * time.Second,
			BackoffBase:    time.Millisecond,
			BackoffMax:     2 * time.Millisecond,
		}))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := client.Stream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Retries == 0 {
		t.Fatal("storm produced no retries — test is vacuous")
	}
	if got := c(reg, "httpdash_client_retries_total"); got != int64(stats.Retries) {
		t.Errorf("retries counter = %d, Stats.Retries = %d", got, stats.Retries)
	}
	if got := c(reg, "httpdash_client_abandoned_total"); got != int64(stats.AbandonedSegments) {
		t.Errorf("abandoned counter = %d, Stats.AbandonedSegments = %d", got, stats.AbandonedSegments)
	}
}

// TestClientTelemetryDisabledIsInert pins that a client without the
// option behaves identically (the nil-metric no-op contract) — the
// session must not error and Stats must be populated as before.
func TestClientTelemetryDisabledIsInert(t *testing.T) {
	_, ts := newTestServer(t, 10)
	client, err := NewClient(ts.URL, abr.NewYoutube())
	if err != nil {
		t.Fatal(err)
	}
	stats, err := client.Stream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Fetches) == 0 || stats.TotalBytes == 0 {
		t.Errorf("session degenerate without telemetry: %+v", stats)
	}
	if errors.Is(err, ErrSegmentAbandoned) {
		t.Error("unexpected abandonment")
	}
}
