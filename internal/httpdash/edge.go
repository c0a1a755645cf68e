package httpdash

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ecavs/internal/edgecache"
	"ecavs/internal/telemetry"
	"ecavs/internal/tracing"
)

// Edge defaults. Segments are immutable in DASH, so the freshness
// window mainly bounds how long a cache survives a re-encoded
// presentation; the staleness window bounds how old an entry may be
// and still paper over an origin failure.
const (
	DefaultEdgeCapacityBytes = 64 << 20 // 64 MiB across all shards
	DefaultEdgeFreshFor      = 5 * time.Minute
	DefaultEdgeStaleFor      = 30 * time.Second
	DefaultEdgeRetryAfter    = time.Second
	defaultEdgeFillTimeout   = 30 * time.Second
)

// Edge is a caching reverse proxy in front of an httpdash origin — the
// CDN edge tier of the serving path. Segment requests are served from
// a sharded in-memory cache (zero-copy: a hit writes the shared
// payload slice straight to the socket); misses collapse into one
// origin fill per key via per-key singleflight; and when the origin
// fails (5xx, connection reset, timeout) a stale entry inside the
// bounded staleness window is served instead — stale-while-error, the
// edge's contribution to graceful degradation. Everything else
// (manifest, unknown paths) proxies straight through.
//
// Every edge-originated failure answers 503 with a Retry-After hint
// (the origin's own hint when it shed, DefaultEdgeRetryAfter
// otherwise), so clients and load generators classify edge failures
// exactly like origin sheds — the overload invariants hold through the
// extra tier. A final origin status (a 4xx: the request itself is
// wrong) is not an edge failure: it passes through without
// Retry-After, so no client retries a request that cannot succeed.
//
// Construct with NewEdge; the zero value is unusable.
type Edge struct {
	origin string
	hc     *http.Client
	cache  *edgecache.Cache

	cacheCfg edgecache.Config
	freshFor time.Duration
	staleFor time.Duration

	// flights collapses concurrent misses: one origin fill per key in
	// flight at a time, followers wait for the leader's result.
	mu      sync.Mutex
	flights map[string]*flight

	// Request-outcome counters: requests == hits + fills + staleServes
	// + errors, the accounting invariant the edgesmoke gate enforces.
	requests, hits, fills, staleServes, errors, sharedFills atomic.Int64

	telReg *telemetry.Registry
	tel    edgeTelemetry
	tracer *tracing.Tracer
}

var _ http.Handler = (*Edge)(nil)

// edgeTelemetry mirrors the edge counters into a registry. Nil fields
// are no-ops, so the serving path updates them unconditionally.
type edgeTelemetry struct {
	requests, hits, fills, stale, errs, shared *telemetry.Counter
}

// flight is one in-flight origin fill. Followers block on done and
// then read the outcome fields, which the leader writes before
// closing the channel.
type flight struct {
	done        chan struct{}
	entry       *edgecache.Entry // non-nil on success
	err         error
	retryAfter  time.Duration // origin's Retry-After hint, if it shed
	finalStatus int           // origin's status when no retry can fix the request
}

// WithEdgeCache sizes the segment cache (default: 64 MiB over 16
// shards). A zero-valued config keeps the defaults.
func WithEdgeCache(cfg edgecache.Config) EdgeOption {
	return func(e *Edge) {
		if cfg.CapacityBytes > 0 {
			e.cacheCfg.CapacityBytes = cfg.CapacityBytes
		}
		if cfg.Shards > 0 {
			e.cacheCfg.Shards = cfg.Shards
		}
	}
}

// WithEdgeFreshness sets the staleness policy: entries younger than
// fresh are served without consulting the origin; entries older than
// fresh trigger a revalidating origin fetch, and if that fetch fails
// the stale copy is served as long as its age stays within
// fresh+stale. Non-positive arguments keep the defaults.
func WithEdgeFreshness(fresh, stale time.Duration) EdgeOption {
	return func(e *Edge) {
		if fresh > 0 {
			e.freshFor = fresh
		}
		if stale > 0 {
			e.staleFor = stale
		}
	}
}

// WithEdgeHTTPClient overrides the origin-facing http.Client (default:
// 30 s timeout over NewTransport's pooled keep-alive transport).
func WithEdgeHTTPClient(hc *http.Client) EdgeOption {
	return func(e *Edge) {
		if hc != nil {
			e.hc = hc
		}
	}
}

// WithEdgeTelemetry mirrors the edge's counters into a registry:
//
//	edgecache_requests_total       segment requests at the edge
//	edgecache_hits_total           served from cache without an origin round trip
//	edgecache_fills_total          origin fetches that filled the cache
//	edgecache_stale_serves_total   stale entries served over an origin failure
//	edgecache_errors_total         requests answered with an error (bad path, or origin failed and nothing cached)
//	edgecache_shared_fills_total   misses that piggybacked on another request's fill
//	edgecache_entries              resident entries (scrape time)
//	edgecache_bytes                resident payload bytes (scrape time)
//	edgecache_evictions_total      entries displaced by the byte cap (scrape time)
//
// A nil registry is a no-op. The option only records the registry;
// wiring happens after all options applied, so the scrape-time gauges
// read whatever cache the final configuration built.
func WithEdgeTelemetry(reg *telemetry.Registry) EdgeOption {
	return func(e *Edge) {
		e.telReg = reg
	}
}

// WithEdgeTracing records one span tree per segment request: a root
// span that joins the client's trace via its W3C `traceparent` header,
// a `serve_cached` child for cache (and stale) serves, and a
// `fill_origin` child for origin fetches — which forward the edge's
// traceparent, so a traced origin joins the same trace and a miss
// shows up as one merged client → edge → origin timeline. A nil tracer
// keeps tracing disabled at zero cost on the hit path.
func WithEdgeTracing(tr *tracing.Tracer) EdgeOption {
	return func(e *Edge) {
		e.tracer = tr
	}
}

// NewEdge builds a caching proxy for the origin at the given base URL
// (serving /manifest.mpd and /seg/... the way httpdash.Server does).
func NewEdge(origin string, opts ...EdgeOption) (*Edge, error) {
	if origin == "" {
		return nil, errors.New("httpdash: empty origin URL")
	}
	e := &Edge{
		origin:   strings.TrimSuffix(origin, "/"),
		hc:       &http.Client{Timeout: defaultEdgeFillTimeout, Transport: NewTransport()},
		cacheCfg: edgecache.Config{CapacityBytes: DefaultEdgeCapacityBytes},
		freshFor: DefaultEdgeFreshFor,
		staleFor: DefaultEdgeStaleFor,
		flights:  make(map[string]*flight),
	}
	applyOptions(e, opts)
	cache, err := edgecache.New(e.cacheCfg)
	if err != nil {
		return nil, err
	}
	e.cache = cache
	e.wireTelemetry()
	return e, nil
}

// wireTelemetry registers the edge series after all options applied;
// the gauges close over e, so they read the final cache.
func (e *Edge) wireTelemetry() {
	reg := e.telReg
	if reg == nil {
		return
	}
	e.tel = edgeTelemetry{
		requests: reg.Counter("edgecache_requests_total", "Segment requests arriving at the edge."),
		hits:     reg.Counter("edgecache_hits_total", "Segment requests served from the edge cache."),
		fills:    reg.Counter("edgecache_fills_total", "Origin fetches that filled the edge cache."),
		stale:    reg.Counter("edgecache_stale_serves_total", "Stale entries served over an origin failure."),
		errs:     reg.Counter("edgecache_errors_total", "Edge requests answered with an error: a bad path, or an origin failure with nothing cached."),
		shared:   reg.Counter("edgecache_shared_fills_total", "Misses collapsed onto another request's origin fill."),
	}
	reg.GaugeFunc("edgecache_entries", "Entries resident in the edge cache (sampled at scrape time).",
		func() float64 { return float64(e.cache.Stats().Entries) })
	reg.GaugeFunc("edgecache_bytes", "Payload bytes resident in the edge cache (sampled at scrape time).",
		func() float64 { return float64(e.cache.Stats().Bytes) })
	reg.GaugeFunc("edgecache_evictions_total", "Entries displaced by the byte cap (sampled at scrape time).",
		func() float64 { return float64(e.cache.Stats().Evictions) })
}

// EdgeSnapshot is a point-in-time copy of the edge's request
// accounting plus the underlying cache counters.
type EdgeSnapshot struct {
	// Requests always equals Hits + Fills + StaleServes + Errors:
	// every segment request resolves to exactly one outcome.
	Requests int64
	// Hits were served from cache without waiting on the origin —
	// including misses that piggybacked on a concurrent fill
	// (SharedFills counts those separately, as a subset of Hits).
	Hits int64
	// Fills led an origin fetch that succeeded.
	Fills int64
	// StaleServes answered with a stale entry because the origin
	// failed inside the staleness window.
	StaleServes int64
	// Errors were answered with an error status: 400 for a path that
	// names no segment, or, when the origin failed with nothing
	// servable cached, 503 + Retry-After — or the origin's own status
	// when it was final (a 4xx).
	Errors int64
	// SharedFills counts singleflight followers (already in Hits).
	SharedFills int64
	// Cache is the sharded cache's own accounting (residency and
	// evictions).
	Cache edgecache.Stats
}

// HitRatio is the fraction of edge requests served without a
// successful origin round trip of their own (hits + stale serves).
func (s EdgeSnapshot) HitRatio() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.Hits+s.StaleServes) / float64(s.Requests)
}

// Snapshot reads the edge counters.
func (e *Edge) Snapshot() EdgeSnapshot {
	return EdgeSnapshot{
		Requests:    e.requests.Load(),
		Hits:        e.hits.Load(),
		Fills:       e.fills.Load(),
		StaleServes: e.staleServes.Load(),
		Errors:      e.errors.Load(),
		SharedFills: e.sharedFills.Load(),
		Cache:       e.cache.Stats(),
	}
}

// ServeHTTP implements http.Handler: segments go through the cache,
// everything else proxies straight through to the origin.
func (e *Edge) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if strings.HasPrefix(r.URL.Path, "/seg/") {
		e.serveSegment(w, r)
		return
	}
	e.proxyThrough(w, r)
}

// proxyThrough forwards a non-segment request (the manifest, mostly)
// to the origin and copies the response back verbatim.
func (e *Edge) proxyThrough(w http.ResponseWriter, r *http.Request) {
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, e.origin+r.URL.Path, nil)
	if err != nil {
		http.Error(w, "bad proxy request", http.StatusBadRequest)
		return
	}
	if tp := r.Header.Get(tracing.Header); tp != "" {
		req.Header.Set(tracing.Header, tp)
	}
	resp, err := e.hc.Do(req)
	if err != nil {
		shedResponse(w, DefaultEdgeRetryAfter)
		return
	}
	defer resp.Body.Close()
	h := w.Header()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		h.Set("Content-Type", ct)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		h.Set("Retry-After", ra)
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// serveSegment is the cached path. The cache key is the path below
// /seg/ — "<repID>/<n>.m4s", i.e. rung and segment — taken as a
// substring so the hit path allocates nothing for the lookup. Only the
// path SegmentURL renders is a key: any other spelling of a segment (a
// signed or zero-padded number, an escaped '?' that would become a
// query on the way to the origin) is refused as the origin refuses it,
// so the cache holds one entry per segment.
func (e *Edge) serveSegment(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Path[len("/seg/"):]
	e.requests.Add(1)
	e.tel.requests.Inc()
	if _, _, ok := parseSegmentPath(r.URL.Path); !ok {
		e.errors.Add(1)
		e.tel.errs.Inc()
		http.Error(w, "bad segment path", http.StatusBadRequest)
		return
	}

	// Fast path first, tracing after: a fresh hit under a nil tracer
	// must stay as cheap as the origin's own fast path.
	now := time.Now()
	if ent := e.cache.Get(key); ent != nil && now.Sub(ent.FilledAt) <= e.freshFor {
		if e.tracer == nil {
			e.hits.Add(1)
			e.tel.hits.Inc()
			writeEntry(w, ent)
			return
		}
		span := e.tracer.StartRemote("edge_segment", r.Header.Get(tracing.Header))
		span.SetAttr("key", key)
		e.hits.Add(1)
		e.tel.hits.Inc()
		e.serveCached(w, span, ent, false)
		span.End()
		return
	}

	// Miss or stale: one origin fill per key, everyone else waits.
	var span *tracing.Span
	if e.tracer != nil {
		span = e.tracer.StartRemote("edge_segment", r.Header.Get(tracing.Header))
		span.SetAttr("key", key)
		defer span.End()
	}

	e.mu.Lock()
	f, follower := e.flights[key]
	if !follower {
		f = &flight{done: make(chan struct{})}
		e.flights[key] = f
	}
	e.mu.Unlock()

	if follower {
		select {
		case <-f.done:
		case <-r.Context().Done():
			span.SetStatus("cancelled", "client gone while awaiting a shared fill")
			return
		}
		if f.entry != nil {
			e.hits.Add(1)
			e.sharedFills.Add(1)
			e.tel.hits.Inc()
			e.tel.shared.Inc()
			span.SetAttr("singleflight", "follower")
			e.serveCached(w, span, f.entry, false)
			return
		}
		e.answerFillFailure(w, span, key, f, now)
		return
	}

	e.fillOrigin(f, key, span)
	e.mu.Lock()
	delete(e.flights, key)
	e.mu.Unlock()
	close(f.done)

	if f.err != nil {
		e.answerFillFailure(w, span, key, f, now)
		return
	}
	e.fills.Add(1)
	e.tel.fills.Inc()
	writeEntry(w, f.entry)
	if span != nil {
		span.SetAttrInt("bytes", int64(len(f.entry.Data)))
	}
}

// serveCached writes a cache (or stale) serve under a serve_cached
// span carrying the payload size and the entry's age.
func (e *Edge) serveCached(w http.ResponseWriter, span *tracing.Span, ent *edgecache.Entry, stale bool) {
	sp := span.StartChild("serve_cached")
	sp.SetAttrInt("bytes", int64(len(ent.Data)))
	sp.SetAttrDuration("age", time.Since(ent.FilledAt))
	if stale {
		sp.SetStatus("stale", "origin failed; served inside the staleness window")
	}
	writeEntry(w, ent)
	sp.End()
}

// writeEntry is the zero-copy serve: precomputed headers, one Write of
// the shared payload slice.
func writeEntry(w http.ResponseWriter, ent *edgecache.Entry) {
	h := w.Header()
	h.Set("Content-Type", ent.ContentType)
	h.Set("Content-Length", ent.ContentLength)
	_, _ = w.Write(ent.Data)
}

// answerFillFailure resolves a request whose origin fill failed:
// serve the stale copy if one is inside the staleness window. Failing
// that, a final origin status passes through with the origin's own
// Retry-After, if it sent one, and never the edge default; anything
// else answers 503 with a Retry-After hint — the origin's own hint
// when it shed, the edge default otherwise — so the failure is
// classified as a shed, not an anonymous error, by every client.
func (e *Edge) answerFillFailure(w http.ResponseWriter, span *tracing.Span, key string, f *flight, now time.Time) {
	if ent := e.cache.Get(key); ent != nil {
		if age := now.Sub(ent.FilledAt); age <= e.freshFor+e.staleFor {
			e.staleServes.Add(1)
			e.tel.stale.Inc()
			span.SetStatus("stale", "origin failed; served stale")
			e.serveCached(w, span, ent, true)
			return
		}
		// Beyond the staleness window the copy is unusable; retire it
		// so residency reflects servable bytes.
		e.cache.Remove(key)
	}
	e.errors.Add(1)
	e.tel.errs.Inc()
	span.SetError(f.err)
	if f.finalStatus != 0 {
		if f.retryAfter > 0 {
			w.Header().Set("Retry-After", retryAfterSeconds(f.retryAfter))
		}
		http.Error(w, http.StatusText(f.finalStatus), f.finalStatus)
		return
	}
	hint := f.retryAfter
	if hint <= 0 {
		hint = DefaultEdgeRetryAfter
	}
	shedResponse(w, hint)
}

// fillOrigin fetches one segment from the origin into the flight's
// outcome fields, under a fill_origin span whose traceparent rides the
// request, so a traced origin joins the same trace. The fill runs
// under its own deadline, detached from the leading client's context:
// a leader that disconnects mid-fill must not poison the followers
// waiting on the flight.
func (e *Edge) fillOrigin(f *flight, key string, span *tracing.Span) {
	sp := span.StartChild("fill_origin")
	defer sp.End()
	ctx, cancel := context.WithTimeout(context.Background(), defaultEdgeFillTimeout)
	defer cancel()
	// A short body is the same torn delivery the streaming client
	// rejects; caching it would turn one origin fault into an unbounded
	// number of bad serves.
	a := GetSegment(ctx, e.hc, e.origin+"/seg/"+key, sp.TraceParent(), true)
	if a.Err != nil {
		sp.SetError(a.Err)
		if a.Status != http.StatusOK && a.Status != 0 {
			sp.SetAttrInt("http_status", int64(a.Status))
		}
		if a.Final() {
			f.finalStatus = a.Status
		}
		f.retryAfter, f.err = a.RetryAfter, fmt.Errorf("httpdash: origin: %w", a.Err)
		return
	}
	ct := a.ContentType
	if ct == "" {
		ct = "video/iso.segment"
	}
	ent, cached := e.cache.Fill(key, a.Body, ct, strconv.Itoa(len(a.Body)), time.Now())
	sp.SetAttrInt("bytes", int64(len(a.Body)))
	if !cached {
		sp.SetAttr("cached", "false")
	}
	f.entry = ent
}
