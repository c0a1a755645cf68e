package httpdash

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ecavs/internal/edgecache"
	"ecavs/internal/faults"
	"ecavs/internal/telemetry"
	"ecavs/internal/tracing"
)

// newTestEdge stands a real origin behind a caching edge and returns
// both plus the origin's httptest server for teardown.
func newTestEdge(tb testing.TB, srvOpts []ServerOption, edgeOpts ...EdgeOption) (*Edge, *Server, *httptest.Server) {
	tb.Helper()
	srv := newBenchServer(tb, srvOpts...)
	origin := httptest.NewServer(srv)
	tb.Cleanup(origin.Close)
	edge, err := NewEdge(origin.URL, edgeOpts...)
	if err != nil {
		tb.Fatal(err)
	}
	return edge, srv, origin
}

func edgeGet(tb testing.TB, h http.Handler, path string) *httptest.ResponseRecorder {
	tb.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w
}

// checkEdgeInvariant asserts the accounting identity every edge
// snapshot must satisfy: each segment request resolves to exactly one
// of hit, fill, stale serve, or error.
func checkEdgeInvariant(tb testing.TB, snap EdgeSnapshot) {
	tb.Helper()
	if snap.Requests != snap.Hits+snap.Fills+snap.StaleServes+snap.Errors {
		tb.Errorf("accounting broken: %d requests != %d hits + %d fills + %d stale + %d errors",
			snap.Requests, snap.Hits, snap.Fills, snap.StaleServes, snap.Errors)
	}
}

func TestEdgeMissThenHit(t *testing.T) {
	edge, srv, _ := newTestEdge(t, nil)
	first := edgeGet(t, edge, "/seg/v0-144p/3.m4s")
	if first.Code != http.StatusOK {
		t.Fatalf("miss: status %d", first.Code)
	}
	second := edgeGet(t, edge, "/seg/v0-144p/3.m4s")
	if second.Code != http.StatusOK {
		t.Fatalf("hit: status %d", second.Code)
	}
	if first.Body.String() != second.Body.String() {
		t.Error("hit served different bytes than the fill")
	}
	if ct := second.Header().Get("Content-Type"); ct != "video/iso.segment" {
		t.Errorf("hit Content-Type = %q", ct)
	}
	if cl := second.Header().Get("Content-Length"); cl != fmt.Sprint(first.Body.Len()) {
		t.Errorf("hit Content-Length = %q, want %d", cl, first.Body.Len())
	}
	snap := edge.Snapshot()
	if snap.Fills != 1 || snap.Hits != 1 || snap.Requests != 2 {
		t.Errorf("snapshot %+v, want 1 fill + 1 hit", snap)
	}
	checkEdgeInvariant(t, snap)
	if got := srv.Snapshot().Requests; got != 1 {
		t.Errorf("origin saw %d requests, want 1 — the hit must not reach it", got)
	}
	if r := snap.HitRatio(); r != 0.5 {
		t.Errorf("hit ratio %.2f, want 0.50", r)
	}
}

func TestEdgeManifestPassthrough(t *testing.T) {
	edge, srv, _ := newTestEdge(t, nil)
	for i := 0; i < 2; i++ {
		w := edgeGet(t, edge, "/manifest.mpd")
		if w.Code != http.StatusOK {
			t.Fatalf("manifest via edge: status %d", w.Code)
		}
		if !strings.Contains(w.Body.String(), "<MPD") {
			t.Error("manifest body not proxied")
		}
		if ct := w.Header().Get("Content-Type"); ct != "application/dash+xml" {
			t.Errorf("manifest Content-Type = %q", ct)
		}
	}
	if got := srv.Snapshot(); edge.Snapshot().Requests != 0 {
		t.Errorf("manifest requests counted as segment traffic: %+v", got)
	}
}

// TestEdgeSingleflightCollapse is the collapse proof the issue asks
// for: many concurrent misses on the same key must produce exactly one
// origin request per distinct key — the origin's request counter
// equals the number of distinct (rung, segment) keys, and everyone
// still gets the full body.
func TestEdgeSingleflightCollapse(t *testing.T) {
	const (
		workers = 16
		keys    = 4
	)
	var originHits atomic.Int64
	srv := newBenchServer(t)
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		originHits.Add(1)
		time.Sleep(20 * time.Millisecond) // hold the flight open so followers pile up
		srv.ServeHTTP(w, r)
	})
	origin := httptest.NewServer(slow)
	defer origin.Close()
	edge, err := NewEdge(origin.URL)
	if err != nil {
		t.Fatal(err)
	}

	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			path := fmt.Sprintf("/seg/v0-144p/%d.m4s", g%keys)
			w := edgeGet(t, edge, path)
			if w.Code != http.StatusOK || w.Body.Len() == 0 {
				t.Errorf("worker %d: status %d, %d bytes", g, w.Code, w.Body.Len())
			}
		}(g)
	}
	close(start)
	wg.Wait()

	if got := originHits.Load(); got != keys {
		t.Errorf("origin saw %d requests for %d distinct keys — singleflight did not collapse", got, keys)
	}
	snap := edge.Snapshot()
	checkEdgeInvariant(t, snap)
	if snap.Fills != keys {
		t.Errorf("fills = %d, want %d", snap.Fills, keys)
	}
	if snap.Hits != workers-keys || snap.SharedFills != snap.Hits {
		t.Errorf("hits = %d shared = %d, want %d followers all shared", snap.Hits, snap.SharedFills, workers-keys)
	}
}

// TestEdgeStaleWhileError pins the degraded mode: once the origin
// starts failing, segments already cached keep flowing (marked stale
// serves) as long as they are inside the staleness window.
func TestEdgeStaleWhileError(t *testing.T) {
	srv := newBenchServer(t)
	var failing atomic.Bool
	flaky := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failing.Load() {
			http.Error(w, "origin down", http.StatusInternalServerError)
			return
		}
		srv.ServeHTTP(w, r)
	})
	origin := httptest.NewServer(flaky)
	defer origin.Close()
	// fresh=1ns: every repeat revalidates against the origin, which is
	// exactly when stale-while-error matters. stale=1h keeps the copy
	// servable for the whole test.
	edge, err := NewEdge(origin.URL, WithEdgeFreshness(time.Nanosecond, time.Hour))
	if err != nil {
		t.Fatal(err)
	}

	warm := edgeGet(t, edge, "/seg/v0-144p/0.m4s")
	if warm.Code != http.StatusOK {
		t.Fatalf("warm fill: status %d", warm.Code)
	}
	failing.Store(true)
	for i := 0; i < 3; i++ {
		w := edgeGet(t, edge, "/seg/v0-144p/0.m4s")
		if w.Code != http.StatusOK {
			t.Fatalf("stale serve %d: status %d", i, w.Code)
		}
		if w.Body.String() != warm.Body.String() {
			t.Fatalf("stale serve %d returned different bytes", i)
		}
	}
	// A segment never cached has nothing to fall back on: 503 + hint.
	w := edgeGet(t, edge, "/seg/v0-144p/1.m4s")
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("uncached failure: status %d, want 503", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("edge-originated 503 missing Retry-After")
	}
	snap := edge.Snapshot()
	checkEdgeInvariant(t, snap)
	if snap.StaleServes != 3 || snap.Errors != 1 || snap.Fills != 1 {
		t.Errorf("snapshot %+v, want 1 fill, 3 stale serves, 1 error", snap)
	}

	failing.Store(false)
	if w := edgeGet(t, edge, "/seg/v0-144p/0.m4s"); w.Code != http.StatusOK {
		t.Fatalf("recovered revalidation: status %d", w.Code)
	}
	if got := edge.Snapshot().Fills; got != 2 {
		t.Errorf("fills after recovery = %d, want 2 (revalidated)", got)
	}
}

// TestEdgeShedPropagatesRetryAfter pins the bugfix: when the origin
// sheds (503 + Retry-After), the edge's own 503 must carry the
// origin's hint — so a client behind the edge backs off exactly as if
// it faced the origin, and loadgen classifies the failure as a shed.
func TestEdgeShedPropagatesRetryAfter(t *testing.T) {
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		shedResponse(w, 7*time.Second)
	}))
	defer origin.Close()
	edge, err := NewEdge(origin.URL)
	if err != nil {
		t.Fatal(err)
	}
	w := edgeGet(t, edge, "/seg/v0-144p/0.m4s")
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", w.Code)
	}
	if got := w.Header().Get("Retry-After"); got != "7" {
		t.Errorf("Retry-After = %q, want the origin's hint 7", got)
	}
	// Origin unreachable entirely: the edge supplies its own hint.
	origin.Close()
	edge2, err := NewEdge(origin.URL)
	if err != nil {
		t.Fatal(err)
	}
	w = edgeGet(t, edge2, "/seg/v0-144p/0.m4s")
	if w.Code != http.StatusServiceUnavailable || w.Header().Get("Retry-After") != "1" {
		t.Errorf("dead origin: status %d Retry-After %q, want 503 and DefaultEdgeRetryAfter's 1", w.Code, w.Header().Get("Retry-After"))
	}
}

// TestEdgeCanonicalPathsAndFinalStatus pins one segment, one URL, one
// answer through the edge. Every spelling of segment 3 but the one
// SegmentURL renders is refused, so the others neither fill nor take a
// cache entry; and a final origin status (a 4xx) passes through
// instead of becoming a 503 that every client would retry, with no
// Retry-After of the edge's own but with the one the origin sent.
func TestEdgeCanonicalPathsAndFinalStatus(t *testing.T) {
	edge, srv, _ := newTestEdge(t, nil)
	if w := edgeGet(t, edge, "/seg/v0-144p/3.m4s"); w.Code != http.StatusOK {
		t.Fatalf("canonical path: status %d", w.Code)
	}
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Retry-After", "7")
		http.Error(w, "slow down", http.StatusTooManyRequests)
	}))
	defer stub.Close()
	outside, err := NewEdge(stub.URL)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		edge       *Edge
		path       string
		want       int
		retryAfter string
	}{
		{edge, "/seg/v0-144p/03.m4s", http.StatusBadRequest, ""},
		{edge, "/seg/v0-144p/003.m4s", http.StatusBadRequest, ""},
		{edge, "/seg/v0-144p/+3.m4s", http.StatusBadRequest, ""},
		{edge, "/seg/v0-144p/3.m4s%3Fx", http.StatusBadRequest, ""}, // an escaped '?'
		{edge, "/seg/bogus/1.m4s", http.StatusNotFound, ""},
		{edge, "/seg/v0-144p/999.m4s", http.StatusNotFound, ""},
		{outside, "/seg/v0-144p/3.m4s", http.StatusTooManyRequests, "7"},
	} {
		w := edgeGet(t, c.edge, c.path)
		if w.Code != c.want || w.Header().Get("Retry-After") != c.retryAfter {
			t.Errorf("GET %s: status %d, Retry-After %q; want %d, Retry-After %q",
				c.path, w.Code, w.Header().Get("Retry-After"), c.want, c.retryAfter)
		}
	}
	snap := edge.Snapshot()
	checkEdgeInvariant(t, snap)
	if snap.Fills != 1 || snap.Errors != 6 || snap.Cache.Entries != 1 {
		t.Errorf("snapshot %+v, want 1 fill, 6 errors, 1 cache entry", snap)
	}
	if got := srv.Snapshot().Requests; got != 1 {
		t.Errorf("origin served %d segment requests, want 1", got)
	}
}

// TestEdgeClientClassifiesEdgeShedAsShed closes the loop on the
// Retry-After bugfix at the client: a streaming client behind an edge
// whose origin is gone must count fast-failing 503s as retryable sheds
// (honouring the hint), not as anonymous errors.
func TestEdgeClientClassifiesEdgeShedAsShed(t *testing.T) {
	resp, err := http.Get("http://127.0.0.1:0/") // guaranteed-dead origin
	if err == nil {
		resp.Body.Close()
		t.Skip("sentinel port unexpectedly reachable")
	}
	edge, errEdge := NewEdge("http://127.0.0.1:0")
	if errEdge != nil {
		t.Fatal(errEdge)
	}
	ts := httptest.NewServer(edge)
	defer ts.Close()
	r, errGet := http.Get(ts.URL + "/seg/v0-144p/0.m4s")
	if errGet != nil {
		t.Fatal(errGet)
	}
	defer r.Body.Close()
	io.Copy(io.Discard, r.Body)
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", r.StatusCode)
	}
	if got := parseRetryAfter(r.Header.Get("Retry-After")); got != DefaultEdgeRetryAfter {
		t.Errorf("parseRetryAfter = %v, want %v — clients must see the backoff hint", got, DefaultEdgeRetryAfter)
	}
}

// TestEdgeTraceMerge drives one miss through client → edge → origin,
// each process with its own tracer sharing a store, and asserts the
// three fragments merge into a single trace whose view lists all three
// services — the "one trace" the issue's acceptance criteria ask for.
func TestEdgeTraceMerge(t *testing.T) {
	store := tracing.NewStore(64)
	keepAll := tracing.Sampler{Ratio: 1}
	clientTr := tracing.New(tracing.Config{Service: "client", Sampler: keepAll, Seed: 1}, store)
	edgeTr := tracing.New(tracing.Config{Service: "edge", Sampler: keepAll, Seed: 2}, store)
	serverTr := tracing.New(tracing.Config{Service: "server", Sampler: keepAll, Seed: 3}, store)

	srv := newBenchServer(t, WithServerTracing(serverTr))
	origin := httptest.NewServer(srv)
	defer origin.Close()
	edge, err := NewEdge(origin.URL, WithEdgeTracing(edgeTr))
	if err != nil {
		t.Fatal(err)
	}

	root := clientTr.StartRoot("stream")
	req := httptest.NewRequest(http.MethodGet, "/seg/v0-144p/0.m4s", nil)
	req.Header.Set(tracing.Header, root.TraceParent())
	w := httptest.NewRecorder()
	edge.ServeHTTP(w, req)
	root.End()
	if w.Code != http.StatusOK {
		t.Fatalf("traced miss: status %d", w.Code)
	}
	// The origin publishes its fragment when its handler returns, which
	// can be after the edge has read the whole body; the hit below
	// never reaches the origin, so draining it here is safe.
	waitIdle(t, srv)

	views := store.Views()
	if len(views) != 1 {
		t.Fatalf("%d traces in store, want 1 merged", len(views))
	}
	v := views[0]
	if len(v.Services) != 3 || v.Services[0] != "client" || v.Services[1] != "edge" || v.Services[2] != "server" {
		t.Fatalf("services = %v, want [client edge server]", v.Services)
	}
	var sawServe, sawFill bool
	for _, s := range v.Spans {
		switch s.Name {
		case "serve_cached":
			sawServe = true
		case "fill_origin":
			sawFill = true
		}
	}
	if !sawFill {
		t.Error("merged trace missing fill_origin span")
	}

	// A subsequent hit joins the same trace without touching the origin.
	root2 := clientTr.StartRoot("stream")
	req2 := httptest.NewRequest(http.MethodGet, "/seg/v0-144p/0.m4s", nil)
	req2.Header.Set(tracing.Header, root2.TraceParent())
	edge.ServeHTTP(httptest.NewRecorder(), req2)
	root2.End()
	views = store.Views()
	if len(views) != 2 {
		t.Fatalf("%d traces after hit, want 2", len(views))
	}
	for _, v := range views {
		if len(v.Services) == 2 { // client + edge only: the hit
			for _, s := range v.Spans {
				if s.Name == "serve_cached" {
					sawServe = true
				}
			}
		}
	}
	if !sawServe {
		t.Error("hit trace missing serve_cached span")
	}
}

func TestEdgeTelemetrySeries(t *testing.T) {
	reg := telemetry.NewRegistry()
	edge, _, _ := newTestEdge(t, nil,
		WithEdgeTelemetry(reg),
		WithEdgeCache(edgecache.Config{CapacityBytes: 1 << 20, Shards: 4}))
	edgeGet(t, edge, "/seg/v0-144p/0.m4s")
	edgeGet(t, edge, "/seg/v0-144p/0.m4s")

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	for _, want := range []string{
		"edgecache_requests_total 2",
		"edgecache_hits_total 1",
		"edgecache_fills_total 1",
		"edgecache_stale_serves_total 0",
		"edgecache_errors_total 0",
		"edgecache_entries 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	if !strings.Contains(body, "edgecache_bytes ") || strings.Contains(body, "edgecache_bytes 0\n") {
		t.Error("edgecache_bytes gauge absent or zero after a fill")
	}
}

// TestEdgeHitAllocBudget pins the zero-copy claim: serving a cached
// segment must not allocate more than the origin's own pooled fast
// path (2 allocs/request — the two header value slices). Measured
// identically: discarding writer, pre-built request, AllocsPerRun.
func TestEdgeHitAllocBudget(t *testing.T) {
	edge, srv, _ := newTestEdge(t, nil)
	req := httptest.NewRequest(http.MethodGet, "/seg/v0-144p/0.m4s", nil)
	if w := edgeGet(t, edge, "/seg/v0-144p/0.m4s"); w.Code != http.StatusOK {
		t.Fatalf("warm fill: status %d", w.Code)
	}

	w := &discardResponseWriter{h: make(http.Header, 4)}
	originAllocs := testing.AllocsPerRun(500, func() {
		clear(w.h)
		srv.ServeHTTP(w, req)
	})
	edgeAllocs := testing.AllocsPerRun(500, func() {
		clear(w.h)
		edge.ServeHTTP(w, req)
	})
	t.Logf("edge hit: %.1f allocs/request; origin fast path: %.1f", edgeAllocs, originAllocs)
	if edgeAllocs > originAllocs {
		t.Errorf("edge hit costs %.1f allocs/request, budget is the origin fast path's %.1f", edgeAllocs, originAllocs)
	}
	if snap := edge.Snapshot(); snap.Fills != 1 {
		t.Errorf("alloc loop refilled (%d fills) — hits must stay on the cache path", snap.Fills)
	}
}

// TestEdgeHammer storms one edge with 16 goroutines mixing repeated
// and distinct keys against a tiny cache, then checks the accounting
// invariant — the -race chaos entry for the edge serving path.
func TestEdgeHammer(t *testing.T) {
	edge, srv, _ := newTestEdge(t, nil, WithEdgeCache(edgecache.Config{CapacityBytes: 1 << 20, Shards: 4}))
	const (
		goroutines = 16
		iterations = 50
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				seg := (g + i) % 10
				w := edgeGet(t, edge, fmt.Sprintf("/seg/v0-144p/%d.m4s", seg))
				if w.Code != http.StatusOK {
					t.Errorf("g%d i%d: status %d", g, i, w.Code)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	snap := edge.Snapshot()
	checkEdgeInvariant(t, snap)
	if snap.Requests != goroutines*iterations {
		t.Errorf("requests = %d, want %d", snap.Requests, goroutines*iterations)
	}
	if snap.Errors != 0 || snap.StaleServes != 0 {
		t.Errorf("healthy origin produced %d errors / %d stale serves", snap.Errors, snap.StaleServes)
	}
	origin := srv.Snapshot().Requests
	if origin >= snap.Requests/10 {
		t.Errorf("origin saw %d of %d requests — cache is not offloading", origin, snap.Requests)
	}
}

// TestEdgeAccountingUnderOriginFaults holds the edge's accounting
// against the origin's under seeded fault storms: 8 goroutines request
// 10 segments through an edge whose entries go stale after 1 ns, so
// every request that does not join a fill in flight revalidates
// against a faulted origin. The edge's outcomes must sum to its
// requests, and each segment round trip its transport makes must be
// one request the origin counted (Requests + Shed). A reset breaks the
// equality one way only: net/http sends an idempotent GET again when a
// reused keep-alive connection closes before any response, and that
// second request reaches the origin inside the same round trip.
func TestEdgeAccountingUnderOriginFaults(t *testing.T) {
	const (
		goroutines = 8
		iterations = 25
		segments   = 10
	)
	for _, tc := range []struct {
		name   string
		cfg    faults.Config
		resets bool
	}{
		{"5xx", faults.Config{Error5xxProb: 0.3}, false},
		{"truncate", faults.Config{TruncateProb: 0.3}, false},
		{"reset", faults.Config{ResetProb: 0.3}, true},
		{"mixed", faults.Config{Error5xxProb: 0.1, TruncateProb: 0.1, ResetProb: 0.1}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan, err := faults.NewPlan(tc.cfg, 7)
			if err != nil {
				t.Fatal(err)
			}
			srv := newBenchServer(t, WithFaults(plan))
			origin := httptest.NewServer(srv)
			defer origin.Close()
			base := NewTransport()
			defer base.CloseIdleConnections()
			var trips atomic.Int64
			counting := roundTripFunc(func(r *http.Request) (*http.Response, error) {
				if strings.HasPrefix(r.URL.Path, "/seg/") {
					trips.Add(1)
				}
				return base.RoundTrip(r)
			})
			edge, err := NewEdge(origin.URL,
				WithEdgeFreshness(time.Nanosecond, time.Hour),
				WithEdgeHTTPClient(&http.Client{Timeout: 30 * time.Second, Transport: counting}))
			if err != nil {
				t.Fatal(err)
			}

			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < iterations; i++ {
						edgeGet(t, edge, fmt.Sprintf("/seg/v0-144p/%d.m4s", (g+i)%segments))
					}
				}(g)
			}
			wg.Wait()

			snap := edge.Snapshot()
			checkEdgeInvariant(t, snap)
			if snap.Requests != goroutines*iterations {
				t.Errorf("edge requests = %d, want %d", snap.Requests, goroutines*iterations)
			}
			if plan.Stats().Injected() == 0 {
				t.Fatal("the plan injected no fault")
			}
			o := srv.Snapshot()
			switch got := trips.Load(); {
			case tc.resets && o.Requests+o.Shed < got:
				t.Errorf("origin counted %d requests + %d shed, fewer than the edge's %d round trips", o.Requests, o.Shed, got)
			case !tc.resets && o.Requests+o.Shed != got:
				t.Errorf("origin counted %d requests + %d shed, want the edge's %d round trips", o.Requests, o.Shed, got)
			}
			t.Logf("edge %+v; round trips %d, origin requests %d + shed %d", snap, trips.Load(), o.Requests, o.Shed)
		})
	}
}

func TestNewEdgeValidation(t *testing.T) {
	if _, err := NewEdge(""); err == nil {
		t.Error("empty origin accepted")
	}
	if _, err := NewEdge("http://x", WithEdgeCache(edgecache.Config{CapacityBytes: 1, Shards: 3})); err == nil {
		t.Error("invalid cache config accepted")
	}
}
