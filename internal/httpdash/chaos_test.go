package httpdash

import (
	"context"
	"errors"
	"net/http"
	"testing"
	"time"

	"ecavs/internal/abr"
	"ecavs/internal/core"
	"ecavs/internal/faults"
	"ecavs/internal/power"
	"ecavs/internal/qoe"
)

// chaosAlgorithms builds a fresh instance of every ABR policy in the
// repo — the baselines, the extension algorithms, and the paper's
// online policy.
func chaosAlgorithms(t *testing.T) map[string]abr.Algorithm {
	t.Helper()
	obj, err := core.NewObjective(core.DefaultAlpha, power.EvalModel(), qoe.Default())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]abr.Algorithm{
		"Youtube": abr.NewYoutube(),
		"FESTIVE": abr.NewFESTIVE(),
		"BBA":     abr.NewBBA(),
		"BOLA":    abr.NewBOLA(),
		"MPC":     abr.NewMPC(),
		"Ours":    core.NewOnline(obj),
	}
}

// chaosRetryPolicy is DefaultRetryPolicy tightened for test wall-clock:
// the same shape, just fast.
func chaosRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts:      5,
		AttemptTimeout:   500 * time.Millisecond,
		BackoffBase:      time.Millisecond,
		BackoffMax:       5 * time.Millisecond,
		JitterSeed:       1,
		DowngradeOnRetry: true,
	}
}

// Every ABR algorithm must ride out a server-side fault storm — 5xx,
// connection resets, stalls past the attempt deadline, truncated
// bodies, added latency — and still complete the session, with the
// recovery work visible in Stats.
func TestChaosStormEveryAlgorithmSurvives(t *testing.T) {
	storm := faults.Config{
		Error5xxProb:    0.25,
		ResetProb:       0.1,
		StallProb:       0.05,
		TruncateProb:    0.15,
		LatencyProb:     0.15,
		StallFor:        2 * time.Second, // well past the attempt deadline
		LatencyFor:      5 * time.Millisecond,
		MaxFaultsPerKey: 2,
	}
	// Each downgrade retries a different URL — a fresh fault budget —
	// so the worst case from the top of the 6-rung ladder is five
	// distinct faulted keys plus MaxFaultsPerKey faults at the floor:
	// 8 attempts guarantee recovery. A short attempt deadline keeps the
	// stall share of the storm from dominating test wall-clock.
	policy := chaosRetryPolicy()
	policy.MaxAttempts = 8
	policy.AttemptTimeout = 250 * time.Millisecond
	seed := int64(0)
	for name, alg := range chaosAlgorithms(t) {
		seed++
		plan, err := faults.NewPlan(storm, seed)
		if err != nil {
			t.Fatal(err)
		}
		_, ts := newTestServer(t, 20, WithFaults(plan))
		client, err := NewClient(ts.URL, alg,
			WithBufferThreshold(8), WithRetryPolicy(policy))
		if err != nil {
			t.Fatal(err)
		}
		stats, err := client.Stream(context.Background())
		if err != nil {
			t.Errorf("%s: storm sank the session: %v", name, err)
			continue
		}
		if len(stats.Fetches) != 10 {
			t.Errorf("%s: fetched %d segments, want 10", name, len(stats.Fetches))
		}
		injected := plan.Stats().Injected()
		if injected == 0 {
			t.Errorf("%s: plan injected nothing (seed %d too tame for the test)", name, seed)
		}
		if stats.Retries == 0 {
			t.Errorf("%s: %d faults injected but no retries recorded", name, injected)
		}
		if stats.AbandonedSegments != 0 {
			t.Errorf("%s: abandoned %d segments under a recoverable storm", name, stats.AbandonedSegments)
		}
		for _, f := range stats.Fetches {
			if f.Attempts < 1 || f.Attempts > policy.MaxAttempts {
				t.Errorf("%s: segment %d attempts = %d outside [1, %d]", name, f.Segment, f.Attempts, policy.MaxAttempts)
			}
			if f.Rung > f.ChosenRung {
				t.Errorf("%s: segment %d fetched rung %d above chosen %d", name, f.Segment, f.Rung, f.ChosenRung)
			}
		}
	}
}

// A scripted storm exercises each fault class in a known order and
// checks the matching counters: 5xx burst on the first segment, a
// stall (converted to a timeout by the attempt deadline), then a
// truncated body, then calm.
func TestChaosScriptedStormCounters(t *testing.T) {
	script := faults.NewScript([]faults.Verdict{
		{Kind: faults.Error5xx, Status: 503},
		{Kind: faults.Error5xx, Status: 502},
		{Kind: faults.Stall, Stall: 5 * time.Second},
		{Kind: faults.Truncate, TruncateFrac: 0.3},
	})
	_, ts := newTestServer(t, 20, WithFaults(script))
	client, err := NewClient(ts.URL, &abr.Fixed{Rung: 3},
		WithBufferThreshold(8), WithRetryPolicy(chaosRetryPolicy()))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := client.Stream(context.Background())
	if err != nil {
		t.Fatalf("scripted storm sank the session: %v", err)
	}
	if len(stats.Fetches) != 10 {
		t.Fatalf("fetched %d segments, want 10", len(stats.Fetches))
	}
	if stats.Retries != 4 {
		t.Errorf("retries = %d, want 4 (one per scripted fault)", stats.Retries)
	}
	if stats.Timeouts != 1 {
		t.Errorf("timeouts = %d, want 1 (the stall)", stats.Timeouts)
	}
	if stats.Truncations != 1 {
		t.Errorf("truncations = %d, want 1", stats.Truncations)
	}
	if stats.Downgrades == 0 {
		t.Error("no downgrades recorded while retrying from rung 3")
	}
	// The downgraded retries bottom out below the chosen rung.
	if f := stats.Fetches[0]; f.Rung >= f.ChosenRung {
		t.Errorf("segment 0 fetched rung %d, want below chosen %d after retries", f.Rung, f.ChosenRung)
	}
}

// An unrecoverable storm (every attempt 5xx, never relenting) must end
// in the typed abandonment error with the partial stats intact — never
// a hang or a fabricated success.
func TestChaosUnrecoverableStormAbandons(t *testing.T) {
	plan, err := faults.NewPlan(faults.Config{Error5xxProb: 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, 20, WithFaults(plan))
	client, err := NewClient(ts.URL, abr.NewYoutube(), WithRetryPolicy(chaosRetryPolicy()))
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
		t.Fatal("unrecoverable storm hung instead of abandoning")
	}
	if !errors.Is(serr, ErrSegmentAbandoned) {
		t.Fatalf("error = %v, want ErrSegmentAbandoned", serr)
	}
	if stats == nil {
		t.Fatal("no partial stats returned with the abandonment")
	}
	if stats.AbandonedSegments != 1 {
		t.Errorf("abandoned segments = %d, want 1", stats.AbandonedSegments)
	}
	if stats.Retries != 4 {
		t.Errorf("retries = %d, want 4 (budget of 5 attempts)", stats.Retries)
	}
	if len(stats.Fetches) != 0 {
		t.Errorf("%d fetches recorded for a session that never landed a segment", len(stats.Fetches))
	}
	// Degradation reached the ladder floor before giving up.
	if stats.Downgrades == 0 {
		t.Error("abandoned without ever downgrading")
	}
}

// The same resilience holds when faults are injected client-side via
// faultRoundTripper — the server is healthy, the transport misbehaves.
func TestChaosClientSideInjection(t *testing.T) {
	storm := faults.Config{
		Error5xxProb:    0.25,
		ResetProb:       0.15,
		TruncateProb:    0.2,
		MaxFaultsPerKey: 3,
	}
	plan, err := faults.NewPlan(storm, 11)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, 20)
	hc := &http.Client{
		Timeout: 30 * time.Second,
		Transport: &faultRoundTripper{
			plan:   plan,
			filter: func(r *http.Request) bool { return r.URL.Path != "/manifest.mpd" },
		},
	}
	client, err := NewClient(ts.URL, abr.NewFESTIVE(),
		WithHTTPClient(hc), WithBufferThreshold(8), WithRetryPolicy(chaosRetryPolicy()))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := client.Stream(context.Background())
	if err != nil {
		t.Fatalf("client-side storm sank the session: %v", err)
	}
	if len(stats.Fetches) != 10 {
		t.Errorf("fetched %d segments, want 10", len(stats.Fetches))
	}
	if plan.Stats().Injected() == 0 {
		t.Error("plan injected nothing")
	}
	if stats.Retries == 0 {
		t.Error("no retries recorded under client-side injection")
	}
	if plan.Stats().Truncations > 0 && stats.Truncations == 0 {
		t.Error("injected truncations went undetected")
	}
}

// A faulted manifest fetch is retried too; a 5xx burst shorter than
// the budget must not kill the session before it starts.
func TestChaosManifestRetries(t *testing.T) {
	script := faults.NewScript([]faults.Verdict{
		{Kind: faults.Error5xx, Status: 503},
		{Kind: faults.Error5xx, Status: 503},
	})
	_, ts := newTestServer(t, 20)
	hc := &http.Client{Timeout: 30 * time.Second, Transport: &faultRoundTripper{plan: script}}
	client, err := NewClient(ts.URL, abr.NewYoutube(),
		WithHTTPClient(hc), WithRetryPolicy(chaosRetryPolicy()))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := client.Stream(context.Background())
	if err != nil {
		t.Fatalf("manifest 5xx burst sank the session: %v", err)
	}
	if len(stats.Fetches) != 10 {
		t.Errorf("fetched %d segments, want 10", len(stats.Fetches))
	}
}
