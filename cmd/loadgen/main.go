// Command loadgen is a concurrent load generator for the httpdash
// serving path with two drive modes. The default is a closed loop: N
// workers each fetch segments back-to-back (the next request starts
// when the previous one finishes) against a target server for a fixed
// duration, cycling through a configurable rung mix, reporting
// requests/sec, bytes/sec, and p50/p95/p99 latency from streaming P²
// estimators. With -rps it switches to an open loop that issues
// requests at a fixed offered rate regardless of completions — the
// drive an overloaded server actually sees — and classifies responses
// into goodput, sheds (5xx carrying Retry-After), errors, and aborts.
//
// Combined with the in-process admission flags, one command becomes an
// overload experiment, and -gate-overload turns it into a CI gate:
//
//	loadgen -rps 400 -max-inflight 4 -max-queue 8 -duration 2s -gate-overload
//
// The gate fails the run unless shedding actually happened, every
// issued request is accounted for (ok + shed + errors + aborted),
// every 5xx carried Retry-After, and the server drained cleanly.
//
// With no -url it stands up an in-process httpdash server on loopback
// — optionally rate-shaped (-rate) and fault-injected (-fault-*) — so
// a single command measures the full serving path:
//
//	loadgen -workers 16 -duration 10s -rungs 0,3,5 -json
//
// The JSON report is the machine-readable record; -bench-out
// additionally writes the latency percentiles as a benchfmt snapshot,
// so two load-test runs can be diffed with cmd/benchdiff exactly like
// micro-benchmark snapshots:
//
//	loadgen -duration 10s -bench-out load_old.json
//	loadgen -duration 10s -bench-out load_new.json   # after a change
//	benchdiff -old load_old.json -new load_new.json -metric ns
//
// -min-rps makes the process exit non-zero when throughput lands under
// the bar, which is what `make loadtest` gates CI on; -metrics-addr
// serves live telemetry (Prometheus text + JSON + pprof) during the
// run.
//
// -trace-cap turns on request tracing: every request chain is a root
// span with attempt (and, with -retries, backoff) children, each try
// carrying a W3C traceparent header so the in-process server's spans
// merge under the same trace ID. The tail sampler keeps errors and
// sheds, everything over -trace-latency, and a -trace-ratio slice of
// the rest; the report gains a traces section breaking down the
// -trace-slowest slowest sampled traces, -metrics-addr additionally
// serves the /debug/traces explorer, and -gate-trace turns the run
// into the CI smoke check `make tracesmoke` drives:
//
//	loadgen -duration 2s -fault-5xx 0.25 -retries 3 -trace-cap 2048 \
//	        -trace-ratio 1 -gate-trace
//
// -edge inserts a caching reverse proxy (httpdash.NewEdge) between the
// workers and the origin: requests hit the edge, repeated segments are
// served from its sharded in-memory cache, and the report gains an
// edge section — hit ratio, stale serves, and origin offload (the
// fraction of edge requests the origin never saw). -gate-hit-ratio
// turns the cache into a CI gate, and with tracing on, a miss shows up
// as one merged loadgen → edge → server trace (-gate-trace then also
// requires one three-service trace). `make edgesmoke` drives:
//
//	loadgen -edge -workers 8 -duration 2s -video-sec 20 -rungs 0 \
//	        -gate-hit-ratio 0.9 -trace-cap 1024 -trace-ratio 1 -gate-trace
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ecavs/internal/benchfmt"
	"ecavs/internal/dash"
	"ecavs/internal/edgecache"
	"ecavs/internal/faults"
	"ecavs/internal/httpdash"
	"ecavs/internal/stats"
	"ecavs/internal/telemetry"
	"ecavs/internal/tracing"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

// report is the machine-readable result of one run.
type report struct {
	URL         string  `json:"url"`
	Workers     int     `json:"workers"`
	RPS         float64 `json:"rps,omitempty"` // offered rate; 0 = closed loop
	RungMix     []int   `json:"rung_mix"`
	DurationSec float64 `json:"duration_sec"`
	WallSec     float64 `json:"wall_sec"`
	// Issued counts every request started; it always equals
	// Requests + Shed + Errors + Aborted — the accounting invariant
	// -gate-overload enforces.
	Issued   int64 `json:"issued"`
	Requests int64 `json:"requests"` // completed 200s: the goodput
	// Shed counts 5xx responses carrying Retry-After — the server
	// refusing work politely. A 5xx without the header is an error and
	// counted in MissingRetryAfter.
	Shed              int64   `json:"shed"`
	Errors            int64   `json:"errors"`
	Aborted           int64   `json:"aborted"` // cut off by the run deadline mid-flight
	MissingRetryAfter int64   `json:"missing_retry_after"`
	Bytes             int64   `json:"bytes"`
	RequestsPerSec    float64 `json:"requests_per_sec"` // goodput rate
	OfferedPerSec     float64 `json:"offered_per_sec"`
	ShedRate          float64 `json:"shed_rate"` // shed / issued
	BytesPerSec       float64 `json:"bytes_per_sec"`
	// Server-side drain record, filled only for an in-process server:
	// its own shed/fault/queued totals and the in-flight count after
	// Shutdown — 0 proves the drain leaked no transfers.
	ServerShed               int64   `json:"server_shed,omitempty"`
	ServerFaults             int64   `json:"server_faults,omitempty"`
	ServerQueued             int64   `json:"server_queued,omitempty"`
	ServerInFlightAfterDrain int64   `json:"server_in_flight_after_drain"`
	LatencyMeanMs            float64 `json:"latency_mean_ms"`
	LatencyP50Ms             float64 `json:"latency_p50_ms"`
	LatencyP95Ms             float64 `json:"latency_p95_ms"`
	LatencyP99Ms             float64 `json:"latency_p99_ms"`
	LatencyMaxMs             float64 `json:"latency_max_ms"`
	// Traces summarises the run's sampled request traces; nil unless
	// -trace-cap enabled tracing.
	Traces *traceReport `json:"traces,omitempty"`
	// Edge summarises the caching tier; nil unless -edge ran one.
	Edge *edgeReport `json:"edge,omitempty"`
}

// edgeReport is the edge-cache section of the run report: the edge's
// request accounting plus the two derived figures a capacity review
// reads first — hit ratio and origin offload.
type edgeReport struct {
	Requests    int64 `json:"requests"`
	Hits        int64 `json:"hits"`
	Fills       int64 `json:"fills"`
	StaleServes int64 `json:"stale_serves"`
	Errors      int64 `json:"errors"`
	SharedFills int64 `json:"shared_fills"`
	Evictions   int64 `json:"evictions"`
	Entries     int64 `json:"entries"`
	CacheBytes  int64 `json:"cache_bytes"`
	// HitRatio is (hits + stale serves) / requests — traffic served
	// without a successful origin round trip of its own.
	HitRatio float64 `json:"hit_ratio"`
	// OriginRequests is what the in-process origin actually saw; -1
	// when the origin was external and unobservable.
	OriginRequests int64 `json:"origin_requests"`
	// OriginOffload is 1 - origin/edge requests (only with an
	// in-process origin): the fraction of traffic the cache absorbed.
	OriginOffload float64 `json:"origin_offload"`
}

// buildEdgeReport derives the report section from the edge snapshot
// and — when the origin ran in-process — its request counter.
func buildEdgeReport(snap httpdash.EdgeSnapshot, originRequests int64) *edgeReport {
	er := &edgeReport{
		Requests:       snap.Requests,
		Hits:           snap.Hits,
		Fills:          snap.Fills,
		StaleServes:    snap.StaleServes,
		Errors:         snap.Errors,
		SharedFills:    snap.SharedFills,
		Evictions:      snap.Cache.Evictions,
		Entries:        snap.Cache.Entries,
		CacheBytes:     snap.Cache.Bytes,
		HitRatio:       snap.HitRatio(),
		OriginRequests: originRequests,
	}
	if originRequests >= 0 && snap.Requests > 0 {
		er.OriginOffload = 1 - float64(originRequests)/float64(snap.Requests)
	}
	return er
}

// traceReport is the tracing section of the run report: the tail
// sampler's accounting plus the slowest sampled traces, each the
// merged view the /debug/traces explorer serves.
type traceReport struct {
	Seen        int64 `json:"seen"`
	Kept        int64 `json:"kept"`
	KeptError   int64 `json:"kept_error"`
	KeptLatency int64 `json:"kept_latency"`
	KeptRatio   int64 `json:"kept_ratio"`
	Dropped     int64 `json:"dropped"`
	Stored      int   `json:"stored"` // merged traces the ring still holds whole
	// CrossProcess counts stored traces carrying spans from more than
	// one service — proof the traceparent header crossed the wire and
	// the server joined the client's trace.
	CrossProcess int `json:"cross_process"`
	// ThreeWay counts stored traces spanning three or more services —
	// in edge mode, a miss that merged loadgen, edge, and server
	// fragments under one trace ID.
	ThreeWay int                 `json:"three_way,omitempty"`
	Slowest  []tracing.TraceView `json:"slowest,omitempty"`
}

// buildTraceReport snapshots the store into the report's tracing
// section, with the slowest N merged traces broken down span by span.
func buildTraceReport(store *tracing.Store, slowest int) *traceReport {
	st := store.Stats()
	views := store.Views()
	tr := &traceReport{
		Seen:        st.Seen,
		Kept:        st.Kept,
		KeptError:   st.KeptError,
		KeptLatency: st.KeptLatency,
		KeptRatio:   st.KeptRatio,
		Dropped:     st.Dropped,
		Stored:      len(views),
	}
	for _, v := range views {
		if len(v.Services) >= 2 {
			tr.CrossProcess++
		}
		if len(v.Services) >= 3 {
			tr.ThreeWay++
		}
	}
	sort.SliceStable(views, func(i, j int) bool { return views[i].DurationMs > views[j].DurationMs })
	tr.Slowest = views[:min(max(slowest, 0), len(views))]
	return tr
}

// outcome is the report vocabulary one attempt — and, via the last
// attempt, the whole chain — maps onto.
type outcome int

const (
	outcomeOK       outcome = iota
	outcomeShed             // 5xx carrying Retry-After: a polite refusal
	outcomeFail             // transport error or unexpected status
	outcomeFailNoRA         // 5xx without Retry-After: the impolite kind
	outcomeAbort            // run deadline cut the request off mid-flight
	numOutcomes
)

// chainStatus is the status a chain's root span ends with, by outcome;
// goodput ends without one.
var chainStatus = [numOutcomes]struct{ status, note string }{
	outcomeShed:     {"shed", "refused with Retry-After"},
	outcomeFail:     {"error", "request failed"},
	outcomeFailNoRA: {"error", "5xx without Retry-After"},
	outcomeAbort:    {"cancelled", "run deadline"},
}

// collector aggregates worker observations. Workers hold the mutex
// only for the few counter updates per request; the requests
// themselves — the expensive part of a closed loop — run outside it.
type collector struct {
	// issued counts chains started, apart from their outcomes, so the
	// overload gate's issued == sum-of-outcomes check can fail.
	issued atomic.Int64

	mu     sync.Mutex
	counts [numOutcomes]int64 // finished chains by outcome
	bytes  int64              // goodput payload
	lat    stats.Accumulator  // goodput latency, seconds
	p50    *stats.P2
	p95    *stats.P2
	p99    *stats.P2

	// Live telemetry mirrors; nil without a registry, and nil metrics
	// are no-ops. Both error outcomes feed one errors counter; aborts
	// have none.
	tel      [numOutcomes]*telemetry.Counter
	telBytes *telemetry.Counter
}

func newCollector(reg *telemetry.Registry) *collector {
	c := &collector{p50: stats.NewP2(0.50), p95: stats.NewP2(0.95), p99: stats.NewP2(0.99)}
	c.tel[outcomeOK] = reg.Counter("loadgen_requests_total", "Segment requests completed successfully.")
	c.tel[outcomeFail] = reg.Counter("loadgen_errors_total", "Segment requests that failed.")
	c.tel[outcomeFailNoRA] = c.tel[outcomeFail]
	c.tel[outcomeShed] = reg.Counter("loadgen_shed_total", "Segment requests the server shed with Retry-After.")
	c.telBytes = reg.Counter("loadgen_bytes_total", "Segment payload bytes received.")
	return c
}

// record files one finished chain under its outcome; goodput also
// carries its latency and payload bytes.
func (c *collector) record(out outcome, latency time.Duration, n int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.counts[out]++
	c.tel[out].Inc()
	if out != outcomeOK {
		return
	}
	c.bytes += n
	c.telBytes.Add(n)
	sec := latency.Seconds()
	c.lat.Add(sec)
	c.p50.Add(sec)
	c.p95.Add(sec)
	c.p99.Add(sec)
}

func (c *collector) report(url string, workers int, rps float64, mix []int, configured, wall time.Duration) report {
	c.mu.Lock()
	defer c.mu.Unlock()
	rep := report{
		URL:               url,
		Workers:           workers,
		RPS:               rps,
		RungMix:           mix,
		DurationSec:       configured.Seconds(),
		WallSec:           wall.Seconds(),
		Issued:            c.issued.Load(),
		Requests:          c.counts[outcomeOK],
		Shed:              c.counts[outcomeShed],
		Errors:            c.counts[outcomeFail] + c.counts[outcomeFailNoRA],
		Aborted:           c.counts[outcomeAbort],
		MissingRetryAfter: c.counts[outcomeFailNoRA],
		Bytes:             c.bytes,
		LatencyMeanMs:     c.lat.Mean() * 1e3,
		LatencyP50Ms:      c.p50.Value() * 1e3,
		LatencyP95Ms:      c.p95.Value() * 1e3,
		LatencyP99Ms:      c.p99.Value() * 1e3,
		LatencyMaxMs:      c.lat.Max() * 1e3,
	}
	if rep.WallSec > 0 {
		rep.RequestsPerSec = float64(rep.Requests) / rep.WallSec
		rep.OfferedPerSec = float64(rep.Issued) / rep.WallSec
		rep.BytesPerSec = float64(rep.Bytes) / rep.WallSec
	}
	if rep.Issued > 0 {
		rep.ShedRate = float64(rep.Shed) / float64(rep.Issued)
	}
	return rep
}

// parseRungs resolves the -rungs selection against the ladder height:
// "all" is every rung, otherwise a comma-separated list of ladder
// indices cycled per request (repeats weight the mix).
func parseRungs(sel string, rungs int) ([]int, error) {
	if sel == "" || sel == "all" {
		mix := make([]int, rungs)
		for i := range mix {
			mix[i] = i
		}
		return mix, nil
	}
	var mix []int
	for _, tok := range strings.Split(sel, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		r, err := strconv.Atoi(tok)
		if err != nil {
			return nil, fmt.Errorf("bad rung %q", tok)
		}
		if r < 0 || r >= rungs {
			return nil, fmt.Errorf("rung %d outside ladder [0, %d)", r, rungs)
		}
		mix = append(mix, r)
	}
	if len(mix) == 0 {
		return nil, errors.New("-rungs selects no rungs")
	}
	return mix, nil
}

// faultPlan builds the in-process server's fault plan from the
// -fault-* flags; nil when every probability is zero, so a healthy run
// takes no plan lock per request.
func faultPlan(cfg faults.Config, seed int64) (*faults.Plan, error) {
	if cfg.Error5xxProb == 0 && cfg.ResetProb == 0 && cfg.StallProb == 0 && cfg.TruncateProb == 0 && cfg.LatencyProb == 0 {
		return nil, nil
	}
	return faults.NewPlan(cfg, seed)
}

// fetcher issues segment requests. One fetchOne call is a retry chain
// ending in exactly one collector record, which is what keeps
// issued == ok + shed + errors + aborted even with -retries set.
type fetcher struct {
	hc      *http.Client
	tracer  *tracing.Tracer // nil = tracing off; every span call no-ops
	retries int             // extra attempts after the first, on 5xx, transport error or truncation
	coll    *collector
}

// fetchOne issues one request chain and classifies its final outcome:
// 200 is goodput, a 5xx with Retry-After is a shed, a 5xx without one
// is the error the overload gate forbids, anything cut off by the run
// deadline is an abort. With -retries set, 5xx responses, transport
// errors and truncated bodies are retried after a short backoff; any
// other status is final. The chain still produces exactly one
// collector record, for its final outcome. With tracing on, the chain
// is one root span with an attempt child per try, and each try carries
// a traceparent header so a traced server joins the trace.
func (f *fetcher) fetchOne(ctx context.Context, req request) {
	f.coll.issued.Add(1)
	span := f.tracer.StartRoot("request")
	span.SetAttrInt("segment", int64(req.seg))
	span.SetAttrInt("rung", int64(req.rung))
	start := time.Now()
	var (
		out      outcome
		n        int64
		attempts int
	)
loop:
	for {
		attempts++
		att := span.StartChild("attempt")
		att.SetAttrInt("try", int64(attempts))
		a := httpdash.GetSegment(ctx, f.hc, req.url, att.TraceParent(), false)
		out, n = classify(a, att), a.Bytes
		att.End()
		if out == outcomeOK || out == outcomeAbort || a.Final() || attempts > f.retries || ctx.Err() != nil {
			break
		}
		delay := time.Duration(attempts) * 5 * time.Millisecond
		if delay > 50*time.Millisecond {
			delay = 50 * time.Millisecond
		}
		bo := span.StartChild("backoff")
		bo.SetAttrDuration("wait", delay)
		timer := time.NewTimer(delay)
		select {
		case <-ctx.Done():
			timer.Stop()
			bo.SetStatus("cancelled", "run deadline during backoff")
			bo.End()
			out = outcomeAbort
			break loop
		case <-timer.C:
		}
		bo.End()
	}
	span.SetAttrInt("attempts", int64(attempts))
	if out == outcomeOK {
		span.SetAttrInt("bytes", n)
	} else {
		span.SetStatus(chainStatus[out].status, chainStatus[out].note)
	}
	span.End()
	f.coll.record(out, time.Since(start), n)
}

// classify maps one attempt, as httpdash classified it, onto the
// report vocabulary and records it on att.
func classify(a httpdash.Attempt, att *tracing.Span) outcome {
	if a.Status != 0 {
		att.SetAttrInt("http_status", int64(a.Status))
	}
	switch {
	case a.Cancelled:
		att.SetStatus("cancelled", "run deadline")
		return outcomeAbort
	case a.Err == nil:
		att.SetAttrInt("bytes", a.Bytes)
		return outcomeOK
	case a.Shed():
		att.SetStatus("shed", a.Err.Error())
		return outcomeShed
	case a.Status >= 500:
		att.SetStatus("error", a.Err.Error())
		return outcomeFailNoRA
	default:
		att.SetError(a.Err)
		return outcomeFail
	}
}

// request is one scheduled segment GET.
type request struct {
	url       string
	seg, rung int
}

// schedule is the request order both drive modes share: segments in
// presentation order, wrapping at the end, with the rung mix cycling
// alongside.
type schedule struct {
	base     string
	repIDs   []string // by ladder rung
	segments int
	mix      []int
	seg, mi  int // the next request's segment and mix position
}

// from returns a cursor over s starting offset requests in.
func (s schedule) from(offset int) *schedule {
	s.seg, s.mi = offset%s.segments, offset%len(s.mix)
	return &s
}

// next returns the cursor's request and advances it.
func (s *schedule) next() request {
	r := request{seg: s.seg, rung: s.mix[s.mi]}
	r.url = httpdash.SegmentURL(s.base, s.repIDs[r.rung], r.seg)
	s.seg = (s.seg + 1) % s.segments
	s.mi = (s.mi + 1) % len(s.mix)
	return r
}

// worker is one closed loop: fetch, record, repeat until the run
// context expires.
func worker(ctx context.Context, f *fetcher, s *schedule) {
	for ctx.Err() == nil {
		f.fetchOne(ctx, s.next())
	}
}

// openLoop issues requests at a fixed offered rate regardless of how
// fast earlier ones complete — unlike a closed loop, which slows down
// with the server and so can never overload it. Each request runs in
// its own goroutine under the run context; at the deadline the
// stragglers resolve as aborts before openLoop returns.
func openLoop(ctx context.Context, f *fetcher, s *schedule, rps float64) {
	interval := time.Duration(float64(time.Second) / rps)
	if interval <= 0 {
		interval = time.Microsecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		req := s.next()
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.fetchOne(ctx, req)
		}()
	}
}

// serveLoopback serves h on an ephemeral loopback port, returning its
// base URL and the server to close when the run ends.
func serveLoopback(h http.Handler) (string, *http.Server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	go func() { _ = hs.Serve(ln) }()
	return "http://" + ln.Addr().String(), hs, nil
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	url := fs.String("url", "", "target base URL serving /manifest.mpd (default: in-process server)")
	workers := fs.Int("workers", 8, "concurrent closed-loop workers (ignored with -rps)")
	rps := fs.Float64("rps", 0, "open-loop offered rate in requests/sec (0 = closed loop)")
	duration := fs.Duration("duration", 10*time.Second, "run length")
	rungsSel := fs.String("rungs", "all", "rung mix: \"all\" or comma-separated ladder indices (repeats weight the mix)")
	videoSec := fs.Float64("video-sec", 60, "in-process presentation length in seconds")
	rate := fs.Float64("rate", 0, "in-process server shaping in MB/s, shared across connections (0 = unshaped)")
	var fc faults.Config
	fs.Float64Var(&fc.Error5xxProb, "fault-5xx", 0, "in-process server 5xx probability")
	fs.Float64Var(&fc.ResetProb, "fault-reset", 0, "in-process server connection-reset probability")
	fs.Float64Var(&fc.StallProb, "fault-stall", 0, "in-process server stall probability")
	fs.Float64Var(&fc.TruncateProb, "fault-truncate", 0, "in-process server truncated-body probability")
	fs.Float64Var(&fc.LatencyProb, "fault-latency", 0, "in-process server added-latency probability")
	fs.DurationVar(&fc.StallFor, "fault-stall-for", 2*time.Second, "stall length")
	fs.DurationVar(&fc.LatencyFor, "fault-latency-for", 200*time.Millisecond, "added latency")
	fs.IntVar(&fc.MaxFaultsPerKey, "fault-max-per-key", 0, "faults per URL before the plan relents (0 = never)")
	fSeed := fs.Int64("fault-seed", 1, "fault plan seed")
	var adm httpdash.AdmissionConfig
	fs.IntVar(&adm.MaxInFlight, "max-inflight", 0, "in-process server admission cap on concurrent transfers (0 = unbounded)")
	fs.IntVar(&adm.MaxQueue, "max-queue", 0, "in-process server admission wait-queue depth")
	fs.DurationVar(&adm.QueueWait, "queue-wait", 100*time.Millisecond, "in-process server admission queue deadline")
	fs.BoolVar(&adm.PriorityByRung, "priority-shed", false, "in-process server sheds top ladder rungs first under pressure")
	retries := fs.Int("retries", 0, "retries per request on 5xx, transport error or truncated body; 4xx is final (0 = none)")
	edgeMode := fs.Bool("edge", false, "front the origin with a caching edge proxy; workers hit the edge")
	var cache edgecache.Config
	fs.Int64Var(&cache.CapacityBytes, "edge-capacity", httpdash.DefaultEdgeCapacityBytes, "edge cache byte budget")
	fs.IntVar(&cache.Shards, "edge-shards", edgecache.DefaultShards, "edge cache shard count (power of two)")
	edgeFresh := fs.Duration("edge-fresh", httpdash.DefaultEdgeFreshFor, "edge freshness window: younger entries skip origin revalidation")
	edgeStale := fs.Duration("edge-stale", httpdash.DefaultEdgeStaleFor, "edge staleness window: how far past fresh an entry may still cover an origin failure")
	gateHitRatio := fs.Float64("gate-hit-ratio", 0, "exit non-zero unless the edge hit ratio reaches this and edge accounting balances (needs -edge)")
	traceCap := fs.Int("trace-cap", 0, "trace ring capacity; 0 disables request tracing")
	sampler := tracing.Sampler{KeepErrors: true}
	fs.Float64Var(&sampler.Ratio, "trace-ratio", 0.01, "tail-sampling keep ratio for healthy traces")
	fs.DurationVar(&sampler.LatencyThreshold, "trace-latency", 250*time.Millisecond, "tail-sampling latency threshold; slower traces are always kept")
	traceSlowest := fs.Int("trace-slowest", 3, "slowest sampled traces broken down in the report")
	gateTrace := fs.Bool("gate-trace", false, "exit non-zero unless a sampled cross-process trace was captured (needs -trace-cap)")
	gateOverload := fs.Bool("gate-overload", false, "exit non-zero unless shedding occurred, accounting balances, every 5xx carried Retry-After, and the drain leaked nothing")
	jsonOut := fs.Bool("json", false, "write the report as JSON to stdout")
	benchOut := fs.String("bench-out", "", "also write latency percentiles as a benchfmt snapshot to this file")
	minRPS := fs.Float64("min-rps", 0, "exit non-zero when requests/sec lands below this")
	metricsAddr := fs.String("metrics-addr", "", "serve live telemetry (Prometheus/JSON/pprof) on this address during the run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workers < 1 {
		return errors.New("-workers must be at least 1")
	}
	if *duration <= 0 {
		return errors.New("-duration must be positive")
	}
	if *rps < 0 {
		return errors.New("-rps must be non-negative")
	}
	if *retries < 0 {
		return errors.New("-retries must be non-negative")
	}
	if *gateTrace && *traceCap <= 0 {
		return errors.New("-gate-trace needs -trace-cap > 0 to sample traces")
	}
	if *gateHitRatio > 0 && !*edgeMode {
		return errors.New("-gate-hit-ratio needs -edge")
	}

	var reg *telemetry.Registry
	if *metricsAddr != "" {
		reg = telemetry.NewRegistry()
	}

	// Tracing topology: one shared store and one tracer per service —
	// "loadgen" on the request chains, "server" and "edge" in the
	// in-process tiers — so every hop of a request merges under one
	// trace ID. All run the same sampler; the ratio slice hashes the
	// trace ID, so they agree on every verdict without coordination.
	var store *tracing.Store
	if *traceCap > 0 {
		store = tracing.NewStore(*traceCap)
	}
	reg.AttachTraces(store) // nil registry or store is a no-op
	tracer := func(service string, seed uint64) *tracing.Tracer {
		return tracing.New(tracing.Config{Service: service, Sampler: sampler, Seed: seed}, store) // nil without a store
	}

	base := strings.TrimSuffix(*url, "/")
	var srv *httpdash.Server // non-nil for an in-process target: drained and snapshotted after the run
	if base == "" {
		plan, err := faultPlan(fc, *fSeed)
		if err != nil {
			return err
		}
		video := dash.Video{Title: "loadgen", SpatialInfo: 45, TemporalInfo: 15, DurationSec: *videoSec}
		m, err := dash.NewManifest(video, dash.TableIILadder(), dash.ManifestConfig{SegmentSec: 2, VBRJitter: 0, Seed: 1})
		if err != nil {
			return err
		}
		srv, err = httpdash.NewServer(m,
			httpdash.WithRateLimitMBps(*rate),
			httpdash.WithFaults(plan),
			httpdash.WithAdmissionControl(adm),
			httpdash.WithServerTelemetry(reg),
			httpdash.WithServerTracing(tracer("server", 2)))
		if err != nil {
			return err
		}
		var hs *http.Server
		if base, hs, err = serveLoopback(srv); err != nil {
			return err
		}
		defer hs.Close()
	}

	// -edge slots the caching proxy between the workers and whatever
	// base points at (the in-process origin or an external -url): the
	// edge listens on its own loopback socket and base moves to it, so
	// every worker request flows through the cache.
	var edge *httpdash.Edge
	if *edgeMode {
		var err error
		edge, err = httpdash.NewEdge(base,
			httpdash.WithEdgeCache(cache),
			httpdash.WithEdgeFreshness(*edgeFresh, *edgeStale),
			httpdash.WithEdgeTelemetry(reg),
			httpdash.WithEdgeTracing(tracer("edge", 3)))
		if err != nil {
			return err
		}
		var es *http.Server
		if base, es, err = serveLoopback(edge); err != nil {
			return err
		}
		defer es.Close()
	}

	hc := &http.Client{Timeout: 30 * time.Second, Transport: httpdash.NewTransport()}
	defer hc.CloseIdleConnections()
	info, _, err := httpdash.GetManifest(context.Background(), hc, base)
	if err != nil {
		return err
	}
	mix, err := parseRungs(*rungsSel, len(info.Ladder))
	if err != nil {
		return err
	}

	coll := newCollector(reg)
	if reg != nil {
		msrv, addr, err := telemetry.Serve(*metricsAddr, reg)
		if err != nil {
			return err
		}
		defer msrv.Close()
		fmt.Fprintf(os.Stderr, "loadgen: telemetry on http://%s/metrics\n", addr)
	}

	f := &fetcher{hc: hc, tracer: tracer("loadgen", 1), retries: *retries, coll: coll}
	sched := schedule{base: base, repIDs: info.RepIDs, segments: info.SegmentCount, mix: mix}
	start := time.Now()
	reg.GaugeFunc("loadgen_requests_per_sec", "Running mean request rate.", func() float64 {
		coll.mu.Lock()
		n := coll.counts[outcomeOK]
		coll.mu.Unlock()
		return float64(n) / time.Since(start).Seconds()
	})
	ctx, cancel := context.WithTimeout(context.Background(), *duration)
	defer cancel()
	if *rps > 0 {
		openLoop(ctx, f, sched.from(0), *rps)
	} else {
		// Workers start at staggered offsets so concurrent loops spread
		// across the presentation instead of convoying on one URL.
		var wg sync.WaitGroup
		for id := range *workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				worker(ctx, f, sched.from(id))
			}()
		}
		wg.Wait()
	}
	wall := time.Since(start)

	rep := coll.report(base, *workers, *rps, mix, *duration, wall)
	originRequests := int64(-1) // external origin: unobservable
	if srv != nil {
		// Drain the in-process server and record what it saw: its shed,
		// fault and queue totals, and — the leak check — how many
		// transfers were still in flight after Shutdown returned.
		drainCtx, drainCancel := context.WithTimeout(context.Background(), 5*time.Second)
		err := srv.Shutdown(drainCtx)
		drainCancel()
		if err != nil {
			return fmt.Errorf("server drain: %w", err)
		}
		snap := srv.Snapshot()
		rep.ServerShed = snap.Shed
		rep.ServerFaults = snap.Faults
		rep.ServerQueued = snap.Queued
		rep.ServerInFlightAfterDrain = snap.InFlight
		originRequests = snap.Requests
	}
	if edge != nil {
		rep.Edge = buildEdgeReport(edge.Snapshot(), originRequests)
	}
	if store != nil {
		rep.Traces = buildTraceReport(store, *traceSlowest)
	}
	if *benchOut != "" {
		snap := []benchfmt.Result{
			{Name: "Loadgen/request_mean", NsPerOp: rep.LatencyMeanMs * 1e6},
			{Name: "Loadgen/latency_p50", NsPerOp: rep.LatencyP50Ms * 1e6},
			{Name: "Loadgen/latency_p95", NsPerOp: rep.LatencyP95Ms * 1e6},
			{Name: "Loadgen/latency_p99", NsPerOp: rep.LatencyP99Ms * 1e6},
		}
		if err := benchfmt.WriteFile(*benchOut, snap); err != nil {
			return err
		}
	}
	if *jsonOut {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n", data)
	} else {
		writeHuman(stdout, rep)
	}
	if *minRPS > 0 && rep.RequestsPerSec < *minRPS {
		return fmt.Errorf("requests/sec %.1f below -min-rps %.1f", rep.RequestsPerSec, *minRPS)
	}
	if *gateOverload {
		if err := gateOverloadRun(rep, srv != nil); err != nil {
			return fmt.Errorf("overload gate: %w", err)
		}
	}
	if *gateTrace {
		if err := gateTraceRun(rep.Traces, srv != nil, edge != nil); err != nil {
			return fmt.Errorf("trace gate: %w", err)
		}
	}
	if *gateHitRatio > 0 {
		if err := gateEdgeRun(rep.Edge, *gateHitRatio); err != nil {
			return fmt.Errorf("edge gate: %w", err)
		}
	}
	return nil
}

// gateEdgeRun enforces the edge invariants on a finished run: the hit
// ratio reached the bar, and every edge request resolved to exactly
// one of hit, fill, stale serve, or error.
func gateEdgeRun(er *edgeReport, minRatio float64) error {
	if er == nil {
		return errors.New("no edge ran (-edge not set)")
	}
	if got := er.Hits + er.Fills + er.StaleServes + er.Errors; got != er.Requests {
		return fmt.Errorf("accounting leak: %d requests but hits+fills+stale+errors = %d", er.Requests, got)
	}
	if er.HitRatio < minRatio {
		return fmt.Errorf("hit ratio %.3f below %.3f (%d hits / %d requests)", er.HitRatio, minRatio, er.Hits, er.Requests)
	}
	return nil
}

// gateTraceRun enforces that tracing actually worked end to end: the
// tail sampler kept at least one trace, and — when the server ran
// in-process with its own tracer — at least one kept trace is
// cross-process, proving the traceparent header crossed the wire and
// the server's spans merged under the client's trace ID. In edge mode
// against an in-process origin, the bar rises to a three-service
// trace: a sampled miss must merge loadgen, edge, and server.
func gateTraceRun(tr *traceReport, inProcess, edged bool) error {
	if tr == nil {
		return errors.New("tracing disabled (-trace-cap 0)")
	}
	if tr.Kept == 0 {
		return fmt.Errorf("no traces sampled (%d seen) — raise -trace-ratio or lower -trace-latency", tr.Seen)
	}
	if inProcess && tr.CrossProcess == 0 {
		return errors.New("no cross-process trace: client and server fragments never merged")
	}
	if inProcess && edged && tr.ThreeWay == 0 {
		return errors.New("no three-service trace: no sampled miss merged loadgen, edge, and server")
	}
	return nil
}

// gateOverloadRun enforces the overload invariants on a finished run:
// the server actually shed (the run overloaded it), every issued
// request is accounted for exactly once, refusals were all polite
// (Retry-After present), and — for an in-process server — the drain
// left nothing in flight.
func gateOverloadRun(rep report, inProcess bool) error {
	if rep.Shed == 0 {
		return errors.New("no requests shed — the run never overloaded the server")
	}
	if got := rep.Requests + rep.Shed + rep.Errors + rep.Aborted; got != rep.Issued {
		return fmt.Errorf("accounting leak: issued %d but ok+shed+errors+aborted = %d", rep.Issued, got)
	}
	if rep.MissingRetryAfter != 0 {
		return fmt.Errorf("%d 5xx responses lacked Retry-After", rep.MissingRetryAfter)
	}
	if inProcess && rep.ServerInFlightAfterDrain != 0 {
		return fmt.Errorf("drain leaked %d in-flight transfers", rep.ServerInFlightAfterDrain)
	}
	return nil
}

// writeHuman renders the report as a compact table.
func writeHuman(w io.Writer, rep report) {
	mix := make([]string, len(rep.RungMix))
	for i, r := range rep.RungMix {
		mix[i] = strconv.Itoa(r)
	}
	fmt.Fprintf(w, "loadgen %s\n", rep.URL)
	if rep.RPS > 0 {
		fmt.Fprintf(w, "  open loop %.0f req/s offered  duration %.1fs (wall %.2fs)  rung mix [%s]\n",
			rep.RPS, rep.DurationSec, rep.WallSec, strings.Join(mix, " "))
	} else {
		fmt.Fprintf(w, "  workers %d  duration %.1fs (wall %.2fs)  rung mix [%s]\n",
			rep.Workers, rep.DurationSec, rep.WallSec, strings.Join(mix, " "))
	}
	fmt.Fprintf(w, "  requests %d (%d errors)  %.1f req/s  %.2f MB/s\n",
		rep.Requests, rep.Errors, rep.RequestsPerSec, rep.BytesPerSec/1e6)
	if rep.Shed > 0 || rep.RPS > 0 {
		fmt.Fprintf(w, "  issued %d  shed %d (%.0f%%)  aborted %d  goodput %.1f req/s of %.1f offered\n",
			rep.Issued, rep.Shed, rep.ShedRate*100, rep.Aborted, rep.RequestsPerSec, rep.OfferedPerSec)
	}
	if rep.ServerShed > 0 || rep.ServerQueued > 0 {
		fmt.Fprintf(w, "  server shed %d  queued %d  in-flight after drain %d\n",
			rep.ServerShed, rep.ServerQueued, rep.ServerInFlightAfterDrain)
	}
	if e := rep.Edge; e != nil {
		fmt.Fprintf(w, "  edge  requests %d  hits %d  fills %d  stale %d  errors %d  hit ratio %.1f%%\n",
			e.Requests, e.Hits, e.Fills, e.StaleServes, e.Errors, e.HitRatio*100)
		if e.OriginRequests >= 0 {
			fmt.Fprintf(w, "  edge  origin saw %d requests  offload %.1f%%  cache %d entries / %.2f MB  evictions %d\n",
				e.OriginRequests, e.OriginOffload*100, e.Entries, float64(e.CacheBytes)/1e6, e.Evictions)
		}
	}
	fmt.Fprintf(w, "  latency ms  mean %.2f  p50 %.2f  p95 %.2f  p99 %.2f  max %.2f\n",
		rep.LatencyMeanMs, rep.LatencyP50Ms, rep.LatencyP95Ms, rep.LatencyP99Ms, rep.LatencyMaxMs)
	if tr := rep.Traces; tr != nil {
		fmt.Fprintf(w, "  traces  seen %d  kept %d (error %d, latency %d, ratio %d)  cross-process %d/%d\n",
			tr.Seen, tr.Kept, tr.KeptError, tr.KeptLatency, tr.KeptRatio, tr.CrossProcess, tr.Stored)
		for _, s := range tr.Slowest {
			flag := ""
			if s.Error {
				flag = "  !"
			}
			fmt.Fprintf(w, "    %s  %.2fms  [%s]%s\n", s.TraceID, s.DurationMs, strings.Join(s.Services, " "), flag)
			for _, sp := range s.Spans {
				status := ""
				if sp.Status != "" {
					status = "  " + sp.Status
				}
				fmt.Fprintf(w, "      %-7s %-14s +%8.2fms %8.2fms%s\n",
					sp.Service, sp.Name, sp.OffsetMs, sp.DurationMs, status)
			}
		}
	}
}
