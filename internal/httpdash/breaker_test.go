package httpdash

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ecavs/internal/abr"
	"ecavs/internal/telemetry"
)

// fakeClock is a hand-stepped clock for deterministic breaker tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// scriptedBreaker builds a breaker that reads clk in place of the wall
// clock.
func scriptedBreaker(cfg BreakerConfig, clk *fakeClock) *Breaker {
	b := NewBreaker(cfg)
	b.now = clk.Now
	return b
}

// TestBreakerScriptedRecovery walks the full state machine on a
// scripted clock: closed trips at the windowed failure rate, open
// fails fast for exactly the cool-down, half-open admits one probe at
// a time, and consecutive probe successes close the circuit again.
func TestBreakerScriptedRecovery(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	b := scriptedBreaker(BreakerConfig{
		Window:           4,
		MinSamples:       4,
		FailureThreshold: 0.5,
		OpenFor:          2 * time.Second,
		HalfOpenProbes:   1,
		CloseAfter:       2,
	}, clk)

	// Below MinSamples nothing trips, even at a 100% failure rate.
	for i := 0; i < 3; i++ {
		if ok, _ := b.Allow(); !ok {
			t.Fatalf("closed breaker refused attempt %d", i)
		}
		b.Record(false)
	}
	if b.State() != BreakerClosed {
		t.Fatalf("state = %v before MinSamples, want closed", b.State())
	}

	// The fourth failure reaches 4/4 >= 0.5: trip.
	if ok, _ := b.Allow(); !ok {
		t.Fatal("closed breaker refused the tripping attempt")
	}
	b.Record(false)
	if b.State() != BreakerOpen || b.Opens() != 1 {
		t.Fatalf("state = %v opens = %d after trip, want open/1", b.State(), b.Opens())
	}

	// Open: fail fast, with the remaining cool-down as the hint.
	ok, wait := b.Allow()
	if ok {
		t.Fatal("open breaker allowed an attempt")
	}
	if wait <= 0 || wait > 2*time.Second {
		t.Fatalf("retry hint = %v, want (0, 2s]", wait)
	}
	clk.Advance(time.Second)
	if ok, _ := b.Allow(); ok {
		t.Fatal("breaker allowed an attempt halfway through the cool-down")
	}

	// Cool-down over: half-open admits one probe, refuses a second.
	clk.Advance(1100 * time.Millisecond)
	if ok, _ := b.Allow(); !ok {
		t.Fatal("half-open breaker refused the probe")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state = %v, want half-open", b.State())
	}
	if ok, _ := b.Allow(); ok {
		t.Fatal("half-open breaker allowed a second concurrent probe")
	}

	// First probe success: still half-open (CloseAfter = 2).
	b.Record(true)
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state = %v after one probe success, want half-open", b.State())
	}
	if ok, _ := b.Allow(); !ok {
		t.Fatal("half-open breaker refused the second probe")
	}
	b.Record(true)
	if b.State() != BreakerClosed {
		t.Fatalf("state = %v after %d probe successes, want closed", b.State(), 2)
	}

	// The window restarted clean: one failure must not re-trip.
	if ok, _ := b.Allow(); !ok {
		t.Fatal("re-closed breaker refused an attempt")
	}
	b.Record(false)
	if b.State() != BreakerClosed {
		t.Fatalf("state = %v after one post-recovery failure, want closed", b.State())
	}
}

// TestBreakerProbeFailureReopens pins the half-open failure path: a
// failing probe re-opens the circuit for a fresh cool-down.
func TestBreakerProbeFailureReopens(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	b := scriptedBreaker(BreakerConfig{
		Window: 2, MinSamples: 2, FailureThreshold: 0.5,
		OpenFor: time.Second, HalfOpenProbes: 1, CloseAfter: 1,
	}, clk)
	for i := 0; i < 2; i++ {
		b.Allow()
		b.Record(false)
	}
	if b.State() != BreakerOpen {
		t.Fatalf("state = %v, want open", b.State())
	}
	clk.Advance(1100 * time.Millisecond)
	if ok, _ := b.Allow(); !ok {
		t.Fatal("half-open breaker refused the probe")
	}
	b.Record(false)
	if b.State() != BreakerOpen || b.Opens() != 2 {
		t.Fatalf("state = %v opens = %d after failed probe, want open/2", b.State(), b.Opens())
	}
	if ok, _ := b.Allow(); ok {
		t.Fatal("re-opened breaker allowed an attempt before the new cool-down")
	}
}

// TestBreakerDropReleasesProbe pins that a cancelled attempt releases
// the half-open probe slot without deciding recovery either way.
func TestBreakerDropReleasesProbe(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	b := scriptedBreaker(BreakerConfig{
		Window: 2, MinSamples: 2, FailureThreshold: 0.5,
		OpenFor: time.Second, HalfOpenProbes: 1, CloseAfter: 1,
	}, clk)
	b.Allow()
	b.Record(false)
	b.Allow()
	b.Record(false)
	clk.Advance(1100 * time.Millisecond)
	if ok, _ := b.Allow(); !ok {
		t.Fatal("half-open breaker refused the probe")
	}
	b.drop() // the probe's session was cancelled mid-flight
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state = %v after dropped probe, want half-open", b.State())
	}
	if ok, _ := b.Allow(); !ok {
		t.Fatal("probe slot leaked: next attempt refused after drop")
	}
	b.Record(true)
	if b.State() != BreakerClosed {
		t.Fatalf("state = %v, want closed", b.State())
	}
}

// brokenSegmentServer serves the manifest of a real httpdash server
// but answers segment requests from a script: the first failHits
// segment requests get 503 (optionally with Retry-After), later ones
// are proxied to the real handler. Every segment hit is timestamped —
// the record the open-circuit assertions run on.
type brokenSegmentServer struct {
	real     *Server
	failHits int64
	sendRA   bool

	mu   sync.Mutex
	hits []time.Time
	n    atomic.Int64
}

func (b *brokenSegmentServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !strings.HasPrefix(r.URL.Path, "/seg/") {
		b.real.ServeHTTP(w, r)
		return
	}
	b.mu.Lock()
	b.hits = append(b.hits, time.Now())
	b.mu.Unlock()
	if b.n.Add(1) <= b.failHits {
		if b.sendRA {
			w.Header().Set("Retry-After", "1")
		}
		http.Error(w, "injected overload", http.StatusServiceUnavailable)
		return
	}
	b.real.ServeHTTP(w, r)
}

func (b *brokenSegmentServer) hitTimes() []time.Time {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]time.Time(nil), b.hits...)
}

// TestClientBreakerOpenHostSeesNoRetries is the acceptance contract:
// the host's failures trip the breaker, every attempt during the
// cool-down fails fast without a request, the first post-cool-down
// probe succeeds against the healed host, and the session completes.
// The host-side hit log proves no retry touched the open circuit: the
// gap between the last failing hit and the probe spans the cool-down.
func TestClientBreakerOpenHostSeesNoRetries(t *testing.T) {
	srv, err := NewServer(testManifest(t, 20))
	if err != nil {
		t.Fatal(err)
	}
	const openFor = 300 * time.Millisecond
	// One failing segment hit: with the manifest success already in the
	// window, 1 failure / 2 samples reaches the 0.5 threshold and trips.
	broken := &brokenSegmentServer{real: srv, failHits: 1}
	ts := httptest.NewServer(broken)
	defer ts.Close()

	br := NewBreaker(BreakerConfig{
		Window: 8, MinSamples: 2, FailureThreshold: 0.5,
		OpenFor: openFor, HalfOpenProbes: 1, CloseAfter: 1,
	})
	client, err := NewClient(ts.URL, abr.NewFESTIVE(),
		WithSharedBreaker(br),
		WithRetryPolicy(RetryPolicy{
			MaxAttempts:    6,
			AttemptTimeout: 5 * time.Second,
			BackoffBase:    2 * time.Millisecond,
			BackoffMax:     10 * time.Millisecond,
		}))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := client.Stream(context.Background())
	if err != nil {
		t.Fatalf("session failed despite recovery: %v (stats %+v)", err, stats)
	}
	if br.Opens() != 1 {
		t.Fatalf("breaker opened %d times, want exactly 1", br.Opens())
	}
	if br.State() != BreakerClosed {
		t.Errorf("breaker = %v after recovery, want closed", br.State())
	}
	if stats.FastFails == 0 {
		t.Error("no fast-fails recorded — the open circuit never refused an attempt")
	}
	if stats.Retries == 0 {
		t.Error("no retries recorded — the storm never happened")
	}

	// The host-side record: hit k is the (only) failing request that
	// tripped the breaker; hit k+1 is the recovery probe. Nothing may
	// land between them, and the gap must span the cool-down.
	hits := broken.hitTimes()
	if len(hits) < 2 {
		t.Fatalf("host saw %d segment hits, want the failing hit plus the probe", len(hits))
	}
	gap := hits[1].Sub(hits[0])
	if gap < openFor-20*time.Millisecond {
		t.Errorf("probe landed %v after the trip, want >= the %v cool-down (a retry hit the open host)", gap, openFor)
	}
}

// TestClientBreakerFailsFastWhileHostDown pins the composition with
// rung downgrades when the host never heals: the breaker stops the
// hammering after the trip (the host sees only the pre-trip attempts)
// while downgrades still walk the session down the ladder before it
// abandons with both typed errors in the chain.
func TestClientBreakerFailsFastWhileHostDown(t *testing.T) {
	srv, err := NewServer(testManifest(t, 20))
	if err != nil {
		t.Fatal(err)
	}
	broken := &brokenSegmentServer{real: srv, failHits: 1 << 30, sendRA: false}
	ts := httptest.NewServer(broken)
	defer ts.Close()

	// Two attempts: the first hits and trips the breaker (manifest
	// success + 1 failure = 2 samples at the 0.5 threshold), the second
	// fails fast — so the abandonment error carries the breaker's
	// refusal and the host is never touched again.
	br := NewBreaker(BreakerConfig{
		Window: 8, MinSamples: 2, FailureThreshold: 0.5,
		OpenFor:        time.Minute, // never cools down within the test
		HalfOpenProbes: 1, CloseAfter: 1,
	})
	client, err := NewClient(ts.URL, &abr.Fixed{Rung: 5},
		WithSharedBreaker(br),
		WithRetryPolicy(RetryPolicy{
			MaxAttempts:      2,
			AttemptTimeout:   5 * time.Second,
			BackoffBase:      time.Millisecond,
			BackoffMax:       2 * time.Millisecond,
			DowngradeOnRetry: true,
		}))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := client.Stream(context.Background())
	if err == nil {
		t.Fatal("session succeeded against a permanently failing host")
	}
	if !errors.Is(err, ErrSegmentAbandoned) || !errors.Is(err, ErrCircuitOpen) {
		t.Errorf("err = %v, want both ErrSegmentAbandoned and ErrCircuitOpen in the chain", err)
	}
	hits := broken.hitTimes()
	if len(hits) != 1 {
		t.Errorf("host saw %d segment hits after the trip, want exactly the tripping one", len(hits))
	}
	if stats.FastFails != 1 {
		t.Errorf("FastFails = %d, want 1 (the retry refused by the open circuit)", stats.FastFails)
	}
	// Downgrade composition: the fast-failed retry still stepped down
	// the ladder, so a braking host degrades quality, not just latency.
	if stats.Downgrades != 1 {
		t.Errorf("Downgrades = %d, want 1 (rung 5 stepped to rung 4)", stats.Downgrades)
	}
}

// TestClientBreakerTelemetry checks the breaker series surface through
// WithClientTelemetry in either option order.
func TestClientBreakerTelemetry(t *testing.T) {
	srv, err := NewServer(testManifest(t, 20))
	if err != nil {
		t.Fatal(err)
	}
	broken := &brokenSegmentServer{real: srv, failHits: 1 << 30}
	ts := httptest.NewServer(broken)
	defer ts.Close()

	reg := telemetry.NewRegistry()
	client, err := NewClient(ts.URL, &abr.Fixed{Rung: 0},
		WithClientTelemetry(reg), // before the breaker option on purpose
		WithSharedBreaker(NewBreaker(BreakerConfig{
			Window: 4, MinSamples: 2, FailureThreshold: 0.5,
			OpenFor: time.Minute,
		})),
		// Two attempts so the last one is the fast-fail: no backoff ever
		// consumes the minute-long cool-down hint.
		WithRetryPolicy(RetryPolicy{MaxAttempts: 2, BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := client.Stream(context.Background())
	if err == nil {
		t.Fatal("session succeeded against a failing host")
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	expo := sb.String()
	if !strings.Contains(expo, "httpdash_client_breaker_state 1") {
		t.Errorf("exposition missing open breaker state:\n%s", expo)
	}
	if !strings.Contains(expo, "httpdash_client_breaker_opens_total 1") {
		t.Errorf("exposition missing breaker opens:\n%s", expo)
	}
	if got := c(reg, "httpdash_client_breaker_fast_fails_total"); got != int64(stats.FastFails) {
		t.Errorf("fast-fails counter = %d, Stats.FastFails = %d", got, stats.FastFails)
	}
}

// TestBackoffHonorsRetryAfterHint pins that a server Retry-After hint
// floors the backoff wait: the client does not come back early just to
// be shed again.
func TestBackoffHonorsRetryAfterHint(t *testing.T) {
	client, err := NewClient("http://example.invalid", &abr.Fixed{Rung: 0},
		WithRetryPolicy(RetryPolicy{MaxAttempts: 2, BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := client.backoff(context.Background(), 1, 150*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := time.Since(start); got < 150*time.Millisecond {
		t.Errorf("backoff slept %v, want >= the 150ms Retry-After hint", got)
	}
}

// TestBackoffJitterGolden pins the seeded jitter stream bit for bit:
// with a fixed JitterSeed, a fleet's retry timing is reproducible run
// to run, and swapping the generator must not move it.
func TestBackoffJitterGolden(t *testing.T) {
	client, err := NewClient("http://example.invalid", &abr.Fixed{Rung: 0},
		WithRetryPolicy(RetryPolicy{MaxAttempts: 2, JitterSeed: 42}))
	if err != nil {
		t.Fatal(err)
	}
	var got []time.Duration
	for i := 0; i < 4; i++ {
		got = append(got, client.jittered(time.Second))
	}
	want := []time.Duration{870782439, 579955196, 639300565, 672095358}
	if len(got) != len(want) {
		t.Fatalf("jittered = %#v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("draw %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestBackoffAbortsOnCancel is the satellite contract: a cancelled
// context ends a backoff sleep immediately — including a context that
// was already cancelled on entry, even when no sleep would happen.
func TestBackoffAbortsOnCancel(t *testing.T) {
	client, err := NewClient("http://example.invalid", &abr.Fixed{Rung: 0},
		WithRetryPolicy(RetryPolicy{MaxAttempts: 2, BackoffBase: 10 * time.Second, BackoffMax: 20 * time.Second}))
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err = client.backoff(ctx, 1, 0)
	elapsed := time.Since(start)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("backoff = %v, want a wrapped context.Canceled", err)
	}
	if elapsed > time.Second {
		t.Errorf("backoff took %v to notice the cancellation, want immediate", elapsed)
	}

	// Already-cancelled context: immediate error, even with a zero base
	// (the pre-sleep check, not the select, must catch it).
	zeroClient, err := NewClient("http://example.invalid", &abr.Fixed{Rung: 0},
		WithRetryPolicy(RetryPolicy{MaxAttempts: 2}))
	if err != nil {
		t.Fatal(err)
	}
	done, cancelDone := context.WithCancel(context.Background())
	cancelDone()
	if err := zeroClient.backoff(done, 1, 0); err == nil {
		t.Error("backoff with a cancelled context and zero base returned nil")
	}
}

// TestStreamCancelAbortsMidBackoff drives the satellite end to end: a
// session stuck in a long scripted backoff storm returns promptly when
// the caller cancels, instead of finishing the sleep.
func TestStreamCancelAbortsMidBackoff(t *testing.T) {
	srv, err := NewServer(testManifest(t, 20))
	if err != nil {
		t.Fatal(err)
	}
	broken := &brokenSegmentServer{real: srv, failHits: 1 << 30}
	ts := httptest.NewServer(broken)
	defer ts.Close()

	client, err := NewClient(ts.URL, &abr.Fixed{Rung: 0},
		WithRetryPolicy(RetryPolicy{MaxAttempts: 10, BackoffBase: 30 * time.Second, BackoffMax: 60 * time.Second}))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = client.Stream(ctx)
	elapsed := time.Since(start)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("Stream = %v, want a wrapped context.Canceled", err)
	}
	if elapsed > 2*time.Second {
		t.Errorf("cancellation took %v to end the session, want well under the 30s backoff", elapsed)
	}
}
