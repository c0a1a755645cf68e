package httpdash

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"ecavs/internal/abr"
	"ecavs/internal/edgecache"
	"ecavs/internal/faults"
	"ecavs/internal/telemetry"
	"ecavs/internal/tracing"
)

// permutations returns every ordering of the indices 0..n-1 — small n
// only; the option surfaces under test have ≤ 5 interacting options.
func permutations(n int) [][]int {
	var out [][]int
	var rec func(cur, rest []int)
	rec = func(cur, rest []int) {
		if len(rest) == 0 {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for i := range rest {
			next := append(append([]int(nil), rest[:i]...), rest[i+1:]...)
			rec(append(cur, rest[i]), next)
		}
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	rec(nil, idx)
	return out
}

func reorder[T any](opts []T, order []int) []T {
	out := make([]T, len(order))
	for i, j := range order {
		out[i] = opts[j]
	}
	return out
}

// TestServerOptionOrderIndependence pins the unified-options contract
// for the server: every permutation of the interacting options must
// yield the same wiring — in particular the admission controller's
// queue-depth mirror, which only exists when telemetry AND admission
// are both configured, must appear regardless of which option ran
// first.
func TestServerOptionOrderIndependence(t *testing.T) {
	plan, err := faults.NewPlan(faults.Config{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, order := range permutations(5) {
		order := order
		t.Run(fmt.Sprint(order), func(t *testing.T) {
			reg := telemetry.NewRegistry()
			tr := tracing.New(tracing.Config{Service: "s", Sampler: tracing.Sampler{Ratio: 1}, Seed: 1}, tracing.NewStore(8))
			opts := []ServerOption{
				WithServerTelemetry(reg),
				WithAdmissionControl(AdmissionConfig{MaxInFlight: 4, MaxQueue: 4, QueueWait: time.Second}),
				WithRateLimitMBps(10),
				WithFaults(plan),
				WithServerTracing(tr),
			}
			srv := newBenchServer(t, reorder(opts, order)...)
			if srv.telReg != reg || srv.telLatency == nil || len(srv.telRequests) == 0 {
				t.Error("telemetry not wired")
			}
			if srv.admission == nil {
				t.Fatal("admission not wired")
			}
			if srv.admission.telQueued == nil {
				t.Error("admission queue mirror not wired — telemetry/admission order dependence")
			}
			if rate := math.Float64frombits(srv.rateBits.Load()); rate != 10 {
				t.Errorf("rate = %v, want 10", rate)
			}
			if srv.faults != plan || srv.tracer != tr {
				t.Error("faults or tracer not wired")
			}
		})
	}
}

// TestClientOptionOrderIndependence does the same for the client: the
// breaker's state gauge and open counter — a cross-option product of
// WithClientTelemetry and WithSharedBreaker — must exist under every
// ordering.
func TestClientOptionOrderIndependence(t *testing.T) {
	for _, order := range permutations(5) {
		order := order
		t.Run(fmt.Sprint(order), func(t *testing.T) {
			reg := telemetry.NewRegistry()
			tr := tracing.New(tracing.Config{Service: "c", Sampler: tracing.Sampler{Ratio: 1}, Seed: 1}, tracing.NewStore(8))
			opts := []ClientOption{
				WithClientTelemetry(reg),
				WithSharedBreaker(NewBreaker(BreakerConfig{Window: 8, FailureThreshold: 0.5, MinSamples: 4, OpenFor: time.Second})),
				WithRetryPolicy(RetryPolicy{MaxAttempts: 2, BackoffBase: time.Millisecond, BackoffMax: time.Second, JitterSeed: 7}),
				WithTracing(tr),
				WithFetchAhead(3),
			}
			c, err := NewClient("http://localhost:0", &abr.Fixed{Rung: 0}, reorder(opts, order)...)
			if err != nil {
				t.Fatal(err)
			}
			if c.telReg != reg || c.tel.segments == nil || c.tel.fastFails == nil {
				t.Error("client telemetry not wired")
			}
			if c.breaker == nil {
				t.Fatal("breaker not wired")
			}
			if c.breaker.telState == nil || c.breaker.telOpens == nil {
				t.Error("breaker mirrors not wired — telemetry/breaker order dependence")
			}
			if c.retry.MaxAttempts != 2 || c.fetchAhead != 3 || c.tracer != tr {
				t.Error("retry, fetch-ahead, or tracer not recorded")
			}
		})
	}
}

// TestEdgeOptionOrderIndependence covers the edge: the scrape-time
// cache gauges are wired after options apply, so WithEdgeTelemetry
// before WithEdgeCache must still observe the resized cache.
func TestEdgeOptionOrderIndependence(t *testing.T) {
	for _, order := range permutations(4) {
		order := order
		t.Run(fmt.Sprint(order), func(t *testing.T) {
			reg := telemetry.NewRegistry()
			tr := tracing.New(tracing.Config{Service: "e", Sampler: tracing.Sampler{Ratio: 1}, Seed: 1}, tracing.NewStore(8))
			opts := []EdgeOption{
				WithEdgeTelemetry(reg),
				WithEdgeCache(edgecache.Config{CapacityBytes: 1 << 16, Shards: 2}),
				WithEdgeFreshness(time.Minute, time.Second),
				WithEdgeTracing(tr),
			}
			e, err := NewEdge("http://localhost:0", reorder(opts, order)...)
			if err != nil {
				t.Fatal(err)
			}
			if e.telReg != reg || e.tel.requests == nil {
				t.Error("edge telemetry not wired")
			}
			if e.cacheCfg.CapacityBytes != 1<<16 || e.cacheCfg.Shards != 2 {
				t.Errorf("cache config %+v not recorded", e.cacheCfg)
			}
			if e.freshFor != time.Minute || e.staleFor != time.Second {
				t.Error("freshness windows not recorded")
			}
			if e.tracer != tr {
				t.Error("tracer not recorded")
			}
			// The gauges must read the final cache: fill it through the
			// Cache directly and scrape.
			e.cache.Fill("k", make([]byte, 64), "t", "64", time.Unix(1, 0))
			if got := gaugeValue(t, reg, "edgecache_entries"); got != 1 {
				t.Errorf("edgecache_entries gauge = %v, want 1 — gauge closed over a stale cache", got)
			}
		})
	}
}

// gaugeValue scrapes one series value out of the registry.
func gaugeValue(t *testing.T, reg *telemetry.Registry, name string) float64 {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	var v float64
	for _, line := range strings.Split(sb.String(), "\n") {
		if n, _ := fmt.Sscanf(line, name+" %f", &v); n == 1 {
			return v
		}
	}
	t.Fatalf("%s not in scrape", name)
	return 0
}

// TestNilOptionsSkipped pins the applyOptions contract that lets
// callers assemble option slices conditionally.
func TestNilOptionsSkipped(t *testing.T) {
	srv := newBenchServer(t, nil, WithRateLimitMBps(5), nil)
	if rate := math.Float64frombits(srv.rateBits.Load()); rate != 5 {
		t.Error("nil options disturbed application order")
	}
	if _, err := NewClient("http://localhost:0", &abr.Fixed{}, nil, WithFetchAhead(1)); err != nil {
		t.Errorf("nil client option rejected: %v", err)
	}
	if _, err := NewEdge("http://localhost:0", nil, WithEdgeFreshness(time.Minute, time.Second)); err != nil {
		t.Errorf("nil edge option rejected: %v", err)
	}
}
