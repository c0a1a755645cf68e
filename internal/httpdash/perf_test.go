package httpdash

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ecavs/internal/abr"
	"ecavs/internal/faults"
)

// The shaping rate is an aggregate cap: N concurrent connections must
// share one token bucket, not each enjoy the full rate. Before the
// shared pacer, 8 connections produced ~8× the configured egress; this
// pins the fix at two very different concurrency levels.
func TestRateLimitSharedAcrossConnections(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-based shaping test")
	}
	const rateMBps = 24.0
	const totalFetches = 16 // rung-5 segments are ~1.4 MB → ~22 MB total
	for _, conns := range []int{2, 8} {
		t.Run(fmt.Sprintf("conns=%d", conns), func(t *testing.T) {
			srv, ts := newTestServer(t, 20, WithRateLimitMBps(rateMBps))
			hc := &http.Client{Transport: NewTransport()}
			defer hc.CloseIdleConnections()

			var total atomic.Int64
			var wg sync.WaitGroup
			start := time.Now()
			for c := 0; c < conns; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := c; i < totalFetches; i += conns {
						url, err := srv.segmentURL(ts.URL, 5, i%10)
						if err != nil {
							t.Error(err)
							return
						}
						resp, err := hc.Get(url)
						if err != nil {
							t.Error(err)
							return
						}
						n, err := io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
						if err != nil {
							t.Error(err)
							return
						}
						total.Add(n)
					}
				}(c)
			}
			wg.Wait()
			elapsed := time.Since(start).Seconds()
			aggregate := float64(total.Load()) / 1e6 / elapsed
			if aggregate > 1.6*rateMBps {
				t.Errorf("%d connections: aggregate egress %.1f MB/s blows through the %.0f MB/s cap",
					conns, aggregate, rateMBps)
			}
			if aggregate < 0.4*rateMBps {
				t.Errorf("%d connections: aggregate egress %.1f MB/s is implausibly far under the %.0f MB/s cap",
					conns, aggregate, rateMBps)
			}
		})
	}
}

// The segment serving path runs on a pinned allocation budget: pooled
// chunk buffers, precomputed sizes and Content-Length strings, and
// allocation-free path parsing leave only the two header-value slices
// net/http's Header.Set requires.
func TestServeSegmentAllocBudget(t *testing.T) {
	srv := newBenchServer(t)
	url, err := srv.segmentURL("", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodGet, url, nil)
	w := &discardResponseWriter{h: make(http.Header, 4)}
	allocs := testing.AllocsPerRun(500, func() {
		srv.ServeHTTP(w, req)
	})
	const budget = 4
	if allocs > budget {
		t.Errorf("segment path allocates %.1f objects per request, budget is %d", allocs, budget)
	}
}

// With a deterministic algorithm and a clean server, the prefetch
// pipeline must fetch exactly the segments the loop fetches without
// prefetch — same rungs, same byte counts, same single attempt each —
// and the server must see exactly one request per segment (no
// double-fetch).
func TestFetchAheadMatchesSerialOnCleanServer(t *testing.T) {
	serialSrv, serialTS := newTestServer(t, 20)
	serial, err := NewClient(serialTS.URL, &abr.Fixed{Rung: 2}, WithBufferThreshold(8))
	if err != nil {
		t.Fatal(err)
	}
	serialStats, err := serial.Stream(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	pipeSrv, pipeTS := newTestServer(t, 20)
	pipe, err := NewClient(pipeTS.URL, &abr.Fixed{Rung: 2},
		WithBufferThreshold(8), WithFetchAhead(3))
	if err != nil {
		t.Fatal(err)
	}
	pipeStats, err := pipe.Stream(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	if len(pipeStats.Fetches) != len(serialStats.Fetches) {
		t.Fatalf("pipelined fetched %d segments, serial fetched %d",
			len(pipeStats.Fetches), len(serialStats.Fetches))
	}
	for i, pf := range pipeStats.Fetches {
		sf := serialStats.Fetches[i]
		if pf.Segment != sf.Segment || pf.Rung != sf.Rung ||
			pf.ChosenRung != sf.ChosenRung || pf.Attempts != sf.Attempts || pf.Bytes != sf.Bytes {
			t.Errorf("fetch %d: pipelined %+v != serial %+v", i, pf, sf)
		}
	}
	if pipeStats.TotalBytes != serialStats.TotalBytes {
		t.Errorf("TotalBytes: pipelined %d != serial %d", pipeStats.TotalBytes, serialStats.TotalBytes)
	}
	if pipeStats.Retries != 0 || pipeStats.Downgrades != 0 || pipeStats.AbandonedSegments != 0 {
		t.Errorf("clean pipelined run recorded resilience events: %+v", pipeStats)
	}
	if got := pipeSrv.Snapshot().Requests; got != 10 {
		t.Errorf("server saw %d segment requests, want exactly 10 (no double-fetch)", got)
	}
	if got := serialSrv.Snapshot().Requests; got != 10 {
		t.Errorf("serial server saw %d segment requests, want 10", got)
	}
}

// A prefetched segment that fails must retry inside its own pipeline
// slot: the retries and downgrades surface in Stats exactly once, the
// recovery is invisible to other segments, and the server never sees a
// duplicate fetch of a segment that already succeeded. Faults are
// injected client-side through a filtered faultRoundTripper so exactly
// one segment's attempts are hit no matter how the concurrent requests
// interleave.
func TestFetchAheadRetryStormCountsOnce(t *testing.T) {
	script := faults.NewScript([]faults.Verdict{
		{Kind: faults.Error5xx, Status: 503},
		{Kind: faults.Error5xx, Status: 502},
	})
	srv, ts := newTestServer(t, 20)
	hc := &http.Client{
		Timeout: 30 * time.Second,
		Transport: &faultRoundTripper{
			plan:   script,
			filter: func(r *http.Request) bool { return strings.HasSuffix(r.URL.Path, "/3.m4s") },
		},
	}
	client, err := NewClient(ts.URL, &abr.Fixed{Rung: 2},
		WithHTTPClient(hc), WithBufferThreshold(8), WithFetchAhead(2),
		WithRetryPolicy(RetryPolicy{
			MaxAttempts:      4,
			AttemptTimeout:   5 * time.Second,
			BackoffBase:      time.Millisecond,
			BackoffMax:       5 * time.Millisecond,
			DowngradeOnRetry: true,
		}))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := client.Stream(context.Background())
	if err != nil {
		t.Fatalf("recoverable prefetch storm sank the session: %v", err)
	}
	if len(stats.Fetches) != 10 {
		t.Fatalf("fetched %d segments, want 10", len(stats.Fetches))
	}
	if stats.Retries != 2 {
		t.Errorf("retries = %d, want 2 (counted once, not per pipeline slot)", stats.Retries)
	}
	if stats.Downgrades != 2 {
		t.Errorf("downgrades = %d, want 2", stats.Downgrades)
	}
	for _, f := range stats.Fetches {
		want := Fetch{Segment: f.Segment, Rung: 2, ChosenRung: 2, Attempts: 1}
		if f.Segment == 3 {
			want.Rung, want.Attempts = 0, 3 // two downgrades from rung 2
		}
		if f.Rung != want.Rung || f.ChosenRung != want.ChosenRung || f.Attempts != want.Attempts {
			t.Errorf("segment %d: rung %d chosen %d attempts %d, want rung %d chosen %d attempts %d",
				f.Segment, f.Rung, f.ChosenRung, f.Attempts, want.Rung, want.ChosenRung, want.Attempts)
		}
	}
	// The two faulted attempts were intercepted client-side, so the
	// server must see exactly one request per segment fetch that went
	// through: 9 clean segments + 1 recovered fetch = 10.
	if got := srv.Snapshot().Requests; got != 10 {
		t.Errorf("server saw %d segment requests, want 10 (no double-fetch)", got)
	}
}

// An unrecoverable prefetched segment must tear the pipeline down: the
// typed abandonment error propagates at the failed segment's play
// position, already-played segments keep their stats, and in-flight
// later segments are cancelled rather than leaked.
func TestFetchAheadAbandonmentPropagates(t *testing.T) {
	script := faults.NewScript([]faults.Verdict{
		{Kind: faults.Error5xx, Status: 503},
		{Kind: faults.Error5xx, Status: 503},
		{Kind: faults.Error5xx, Status: 503},
	})
	_, ts := newTestServer(t, 20)
	hc := &http.Client{
		Timeout: 30 * time.Second,
		Transport: &faultRoundTripper{
			plan:   script,
			filter: func(r *http.Request) bool { return strings.HasSuffix(r.URL.Path, "/5.m4s") },
		},
	}
	client, err := NewClient(ts.URL, &abr.Fixed{Rung: 2},
		WithHTTPClient(hc), WithBufferThreshold(8), WithFetchAhead(3),
		WithRetryPolicy(RetryPolicy{
			MaxAttempts:      3,
			AttemptTimeout:   5 * time.Second,
			BackoffBase:      time.Millisecond,
			BackoffMax:       5 * time.Millisecond,
			DowngradeOnRetry: true,
		}))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var stats *Stats
	var serr error
	go func() {
		defer close(done)
		stats, serr = client.Stream(context.Background())
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("abandoned prefetch hung instead of tearing the pipeline down")
	}
	if !errors.Is(serr, ErrSegmentAbandoned) {
		t.Fatalf("error = %v, want ErrSegmentAbandoned", serr)
	}
	if !strings.Contains(serr.Error(), "segment 5") {
		t.Errorf("error %q does not name the abandoned segment", serr)
	}
	if stats == nil {
		t.Fatal("no partial stats returned")
	}
	if len(stats.Fetches) != 5 {
		t.Errorf("played %d segments before the abandonment, want 5", len(stats.Fetches))
	}
	if stats.AbandonedSegments != 1 {
		t.Errorf("abandoned segments = %d, want 1", stats.AbandonedSegments)
	}
	if stats.Retries != 2 {
		t.Errorf("retries = %d, want 2 (budget of 3 attempts)", stats.Retries)
	}
}

// The point of the pipeline: per-request latency hides behind playout
// instead of serialising in front of it. With every segment delayed
// 40 ms server-side, the serial session pays the delay ten times; a
// depth-5 pipeline overlaps them.
func TestFetchAheadOverlapsLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-based pipeline test")
	}
	latency := faults.Config{LatencyProb: 1, LatencyFor: 40 * time.Millisecond}
	elapsed := make(map[string]time.Duration, 2)
	for _, tc := range []struct {
		name  string
		ahead int
	}{{"serial", 0}, {"pipelined", 4}} {
		plan, err := faults.NewPlan(latency, 1)
		if err != nil {
			t.Fatal(err)
		}
		_, ts := newTestServer(t, 20, WithFaults(plan))
		client, err := NewClient(ts.URL, &abr.Fixed{Rung: 0},
			WithBufferThreshold(8), WithFetchAhead(tc.ahead))
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		stats, err := client.Stream(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(stats.Fetches) != 10 {
			t.Fatalf("%s: fetched %d segments, want 10", tc.name, len(stats.Fetches))
		}
		elapsed[tc.name] = time.Since(start)
	}
	if elapsed["serial"] < 350*time.Millisecond {
		t.Fatalf("serial session took %v; latency injection did not bite", elapsed["serial"])
	}
	if elapsed["pipelined"] >= elapsed["serial"]*3/4 {
		t.Errorf("pipelined session took %v vs serial %v; prefetch hid no latency",
			elapsed["pipelined"], elapsed["serial"])
	}
}

// spyAlgorithm chooses scripted rungs and records the PrevRung of every
// decision it is asked for.
type spyAlgorithm struct {
	rungs []int
	prev  []int
}

func (s *spyAlgorithm) Name() string { return "spy" }

func (s *spyAlgorithm) ChooseRung(ctx abr.Context) (int, error) {
	s.prev = append(s.prev, ctx.PrevRung)
	return s.rungs[ctx.SegmentIndex], nil
}

func (s *spyAlgorithm) ObserveDownload(float64) {}
func (s *spyAlgorithm) Reset()                  { s.prev = s.prev[:0] }

// singleFaultClient injects one 503 into segment seg's first attempt,
// client-side, so exactly that fetch retries (with one downgrade)
// however concurrent requests interleave.
func singleFaultClient(seg int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &faultRoundTripper{
			plan:   faults.NewScript([]faults.Verdict{{Kind: faults.Error5xx, Status: 503}}),
			filter: func(r *http.Request) bool { return strings.HasSuffix(r.URL.Path, fmt.Sprintf("/%d.m4s", seg)) },
		},
	}
}

// TestPrevRungIsNewestIssued pins the decision context's PrevRung at
// two depths when segment 3, chosen at rung 3, is downgraded to rung 2
// by a retry. It is always the newest issued segment's rung: without
// prefetch that segment has been consumed, so PrevRung is the rung
// actually fetched and segment 4 sees the downgrade; with prefetch it
// is still in flight, so PrevRung is its chosen rung.
func TestPrevRungIsNewestIssued(t *testing.T) {
	chosen := []int{2, 3, 2, 3, 2, 3, 2, 3, 2, 3}
	for _, tc := range []struct {
		ahead int
		want  []int
	}{
		{0, []int{-1, 2, 3, 2, 2, 2, 3, 2, 3, 2}},
		{2, []int{-1, 2, 3, 2, 3, 2, 3, 2, 3, 2}},
	} {
		_, ts := newTestServer(t, 20)
		spy := &spyAlgorithm{rungs: chosen}
		client, err := NewClient(ts.URL, spy, WithHTTPClient(singleFaultClient(3)),
			WithBufferThreshold(8), WithFetchAhead(tc.ahead),
			WithRetryPolicy(RetryPolicy{MaxAttempts: 2, BackoffBase: time.Millisecond, BackoffMax: time.Millisecond, DowngradeOnRetry: true}))
		if err != nil {
			t.Fatal(err)
		}
		stats, err := client.Stream(context.Background())
		if err != nil {
			t.Fatalf("ahead %d: %v", tc.ahead, err)
		}
		if f := stats.Fetches[3]; f.ChosenRung != 3 || f.Rung != 2 {
			t.Fatalf("ahead %d: segment 3 chosen %d fetched %d, want a downgrade from 3 to 2", tc.ahead, f.ChosenRung, f.Rung)
		}
		if fmt.Sprint(spy.prev) != fmt.Sprint(tc.want) {
			t.Errorf("ahead %d: PrevRung per decision = %v, want %v", tc.ahead, spy.prev, tc.want)
		}
	}
}

// TestStallCountsBackoff pins the buffer model without prefetch: the
// buffer drains by real time between segments becoming playable, so
// time lost to a failed attempt and its backoff counts as stall. The
// first segment starts on an empty buffer, so its backoff sleep must
// show up in StallSec in full.
func TestStallCountsBackoff(t *testing.T) {
	_, ts := newTestServer(t, 20)
	policy := RetryPolicy{MaxAttempts: 2, BackoffBase: 200 * time.Millisecond, BackoffMax: 200 * time.Millisecond, JitterSeed: 9}
	client, err := NewClient(ts.URL, &abr.Fixed{Rung: 0}, WithHTTPClient(singleFaultClient(0)), WithRetryPolicy(policy))
	if err != nil {
		t.Fatal(err)
	}
	// A twin seeded alike takes the same first jitter draw, so it
	// reports exactly how long the client's one backoff slept.
	twin, err := NewClient(ts.URL, &abr.Fixed{Rung: 0}, WithRetryPolicy(policy))
	if err != nil {
		t.Fatal(err)
	}
	slept := twin.jittered(policy.BackoffBase)

	stats, err := client.Stream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Retries != 1 {
		t.Fatalf("retries = %d, want 1", stats.Retries)
	}
	if stats.StallSec < slept.Seconds() {
		t.Errorf("StallSec = %.3fs, want at least the %v backoff slept", stats.StallSec, slept)
	}
}
