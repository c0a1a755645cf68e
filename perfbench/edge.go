package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"time"

	"ecavs/internal/dash"
	"ecavs/internal/edgecache"
	"ecavs/internal/httpdash"
)

// The edge workload exists to measure the caching tier: independent
// segment GETs, as arriving viewers issue them, through httpdash.Edge
// in front of the in-process origin. Keys follow a seeded Zipf
// popularity over every (rung, segment) of a presentation several
// times larger than the cache, so about a third of requests miss and
// evictions run. edgecache get/fill/evict and the edge's singleflight
// fill do the work; hits set p50_ms and fills set p90_ms. No ABR client
// runs, and tracing and telemetry are off, so their nil paths are what
// is measured. The load is a closed loop on one connection, each
// request sent as soon as the last one is done: an open loop leaves
// vCPUs idling between arrivals and queues requests behind slow ones,
// so on a shared host its latencies measure vCPU wake-ups and queueing
// rather than the edge, and a second connection doubles the memory
// traffic and CPU demand, which made runs of the same code spread about
// twice as much on a 2-vCPU host. With one connection no two misses
// meet, so every fill leads its singleflight.

type edgeParams struct {
	segments   int     // presentation length in 2 s segments; keys = rungs × segments
	capacityMB int64   // edge cache capacity
	zipfS      float64 // popularity skew
	warmup     int     // requests during set-up
}

func edgeDefaults() edgeParams {
	return edgeParams{segments: 150, capacityMB: 64, zipfS: 1.0, warmup: 1500}
}

type edgeInst struct {
	p      edgeParams
	rec    *recorder
	origin *httpdash.Server
	edge   *httpdash.Edge
	hs     []*http.Server
	base   string
	keys   []string // by popularity rank
	expect map[string]int64
	rungOf map[string]int
	seed   int64

	// The client keeps a single connection to the edge.
	transport     *http.Transport
	client        *http.Client
	fillTransport *http.Transport
	before, after edgeCounts // around the measured phase
}

type edgeCounts struct {
	edge   httpdash.EdgeSnapshot
	origin int64
}

func newEdge(p edgeParams, seed int64, rec *recorder) (*edgeInst, error) {
	ladder := dash.TableIILadder()
	m, err := dash.NewManifest(
		dash.Video{Title: "perfbench", SpatialInfo: 45, TemporalInfo: 15, DurationSec: 2 * float64(p.segments)},
		ladder, dash.ManifestConfig{SegmentSec: 2, VBRJitter: 0.12, Seed: seed})
	if err != nil {
		return nil, err
	}
	origin, err := httpdash.NewServer(m)
	if err != nil {
		return nil, err
	}
	mpd, err := dash.BuildMPD(m)
	if err != nil {
		return nil, err
	}
	e := &edgeInst{p: p, rec: rec, origin: origin, seed: seed, expect: map[string]int64{}, rungOf: map[string]int{}}
	// Rank r is (segment r/rungs, rung r%rungs): every popularity level
	// mixes small and large payloads.
	reps := mpd.Period.AdaptationSet.Representations
	for r := 0; r < len(reps)*p.segments; r++ {
		rung, seg := r%len(reps), r/len(reps)
		key := reps[rung].ID + "/" + strconv.Itoa(seg) + ".m4s"
		mb, err := m.SegmentSizeMB(seg, rung)
		if err != nil {
			return nil, err
		}
		e.keys = append(e.keys, key)
		e.expect[key] = max(int64(mb*1e6), 1)
		e.rungOf[key] = rung
	}

	var oh http.Handler = origin
	if rec != nil {
		oh = &timedHandler{h: origin, rec: rec, name: segmentOr("httpdash.server.serve", "httpdash.server.other")}
	}
	originURL, ohs, err := serve(oh)
	if err != nil {
		return nil, err
	}
	e.hs = append(e.hs, ohs)

	e.fillTransport = httpdash.NewTransport()
	var fill http.RoundTripper = e.fillTransport
	if rec != nil {
		fill = &timedTransport{base: e.fillTransport, rec: rec,
			name:   segmentOr("httpdash.edge.fill", "httpdash.edge.proxy"),
			spanOf: func() (int64, int64) { return 0, 0 }}
	}
	e.edge, err = httpdash.NewEdge(originURL,
		httpdash.WithEdgeCache(edgecache.Config{CapacityBytes: p.capacityMB << 20, Shards: 16}),
		httpdash.WithEdgeHTTPClient(&http.Client{Timeout: 30 * time.Second, Transport: fill}))
	if err != nil {
		e.close()
		return nil, err
	}
	var eh http.Handler = e.edge
	if rec != nil {
		eh = &timedHandler{h: e.edge, rec: rec, name: segmentOr("httpdash.edge.serve", "httpdash.edge.other")}
	}
	edgeURL, ehs, err := serve(eh)
	if err != nil {
		e.close()
		return nil, err
	}
	e.hs = append(e.hs, ehs)
	e.base = edgeURL + "/seg/"
	e.transport = httpdash.NewTransport()
	e.transport.MaxConnsPerHost, e.transport.MaxIdleConnsPerHost = 1, 1
	e.client = &http.Client{Timeout: 30 * time.Second, Transport: e.transport}

	// Warm-up: a fixed number of requests from a key stream of its own,
	// which fills the cache to its steady state before anything is
	// timed.
	for _, r := range e.drive(warmupSalt, func(sent int, _ time.Time) bool { return sent < p.warmup }) {
		if !r.ok {
			e.close()
			return nil, fmt.Errorf("warm-up: %s", r.reason)
		}
	}
	return e, nil
}

// get fetches one segment and checks it: 200, a body exactly as
// long as its Content-Length, which is the size the origin serves for
// the key. With a trace it records when the request got its
// connection.
func (e *edgeInst) get(key string, op int64, gotConn *time.Time) (int64, error) {
	ctx := context.Background()
	if gotConn != nil {
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			GotConn: func(httptrace.GotConnInfo) { *gotConn = time.Now() },
		})
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, e.base+key, nil)
	if err != nil {
		return 0, err
	}
	if op != 0 {
		req.Header.Set(spanHeader, strconv.FormatInt(op, 10)+"/"+strconv.FormatInt(op, 10))
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	n, err := io.Copy(io.Discard, resp.Body)
	if err != nil {
		return n, fmt.Errorf("%s: read body: %w", key, err)
	}
	if resp.StatusCode != http.StatusOK {
		return n, fmt.Errorf("%s: status %s", key, resp.Status)
	}
	if n != resp.ContentLength || n != e.expect[key] {
		return n, fmt.Errorf("%s: body %d bytes, Content-Length %d, origin size %d", key, n, resp.ContentLength, e.expect[key])
	}
	return n, nil
}

// Seed salts of the key streams: the warm-up draws from seed^warmupSalt,
// the measured phase from seed^measureSalt.
const (
	warmupSalt  = 0x3a3a << 32
	measureSalt = 0x6b3e5 << 32
)

// sample is one request.
type sample struct {
	latMs, lateMs, connWaitMs float64
	done                      time.Time
	ok                        bool
	reason                    string
}

// drive runs the closed loop: it sends the next key of a seeded Zipf
// stream as soon as the previous request is done, while more(requests
// sent, now) holds.
func (e *edgeInst) drive(salt uint64, more func(sent int, now time.Time) bool) []sample {
	var results []sample
	keys := newZipf(len(e.keys), e.p.zipfS, newSplitmix(uint64(e.seed)^salt))
	due := time.Now()
	for sent := 0; more(sent, due); sent++ {
		s := e.one(e.keys[keys.next()], due)
		results = append(results, s)
		due = s.done
	}
	return results
}

func (e *edgeInst) measure(deadline time.Time) (*phase, error) {
	e.before = e.counts()
	results := e.drive(measureSalt, func(_ int, now time.Time) bool { return now.Before(deadline) })

	p := &phase{}
	var late, wait []float64
	for _, r := range results {
		p.attempted++
		late = append(late, r.lateMs)
		wait = append(wait, r.connWaitMs)
		if !r.ok {
			p.fail(r.reason)
			continue
		}
		p.pass(r.done, r.latMs)
	}
	after := e.counts()
	d := after.edge
	if d.Requests != d.Hits+d.Fills+d.StaleServes+d.Errors || d.Fills != after.origin || d.Errors != 0 {
		p.fail(fmt.Sprintf("edge accounting: %d requests, %d hits, %d fills, %d stale, %d errors; origin served %d",
			d.Requests, d.Hits, d.Fills, d.StaleServes, d.Errors, after.origin))
	}
	late, wait = sortedCopy(late), sortedCopy(wait)
	p.meta = map[string]any{"edge": map[string]any{
		"keys": len(e.keys), "capacity_mb": e.p.capacityMB,
		"zipf_s":          e.p.zipfS,
		"late_ms":         map[string]float64{"p50": quantile(late, 0.5), "p90": quantile(late, 0.9), "p99": quantile(late, 0.99), "max": quantile(late, 1)},
		"conn_wait_ms":    map[string]float64{"p50": quantile(wait, 0.5), "p90": quantile(wait, 0.9)},
		"hit_ratio":       ratio(d.Hits+d.StaleServes-e.before.edge.Hits-e.before.edge.StaleServes, d.Requests-e.before.edge.Requests),
		"origin_requests": after.origin - e.before.origin,
	}}
	e.after = after
	return p, nil
}

// one sends one request for key and times it from send to the body's
// end. In the closed loop a request is due when the previous one
// ended, so how late it is sent is the generator's own time between
// requests.
func (e *edgeInst) one(key string, due time.Time) sample {
	sent := time.Now()
	var op int64
	var gotConn *time.Time
	if e.rec != nil {
		op = e.rec.newID()
		gotConn = new(time.Time)
	}
	_, err := e.get(key, op, gotConn)
	done := time.Now()
	s := sample{latMs: ms(done.Sub(sent)), lateMs: ms(sent.Sub(due)), done: done, ok: err == nil}
	if err != nil {
		s.reason = err.Error()
	}
	if e.rec != nil {
		s.connWaitMs = ms(gotConn.Sub(sent))
		e.rec.add(span{ID: op, Op: op, Name: "edge.request", Key: key,
			Start: int64(sent.Sub(e.rec.epoch)), End: int64(done.Sub(e.rec.epoch))})
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func (e *edgeInst) counts() edgeCounts {
	return edgeCounts{edge: e.edge.Snapshot(), origin: e.origin.Snapshot().Requests}
}

func (e *edgeInst) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := len(e.hs) - 1; i >= 0; i-- {
		_ = e.hs[i].Shutdown(ctx)
	}
	if e.transport != nil {
		e.transport.CloseIdleConnections()
	}
	if e.fillTransport != nil {
		e.fillTransport.CloseIdleConnections()
	}
}

// layers joins the traced phase's spans across tiers (a fill and the
// origin serve it caused share the request's key and nest in time) and
// derives the per-layer metrics.
func (e *edgeInst) layers(p *phase, spans []span) (map[string]float64, []layerTime) {
	linkByKey(spans, "httpdash.edge.fill", "httpdash.edge.serve")
	linkByKey(spans, "httpdash.server.serve", "httpdash.edge.fill")

	var serve, small, large, fill, origin, e2e []float64
	for _, sp := range spans {
		d := float64(sp.dur()) / 1e6
		switch sp.Name {
		case "httpdash.edge.serve":
			serve = append(serve, d)
			switch r := e.rungOf[sp.Key]; {
			case r <= 1:
				small = append(small, d)
			case r >= 4:
				large = append(large, d)
			}
		case "httpdash.edge.fill":
			fill = append(fill, d)
		case "httpdash.server.serve":
			origin = append(origin, d)
		case "edge.request":
			e2e = append(e2e, d)
		}
	}
	serve, fill, e2e = sortedCopy(serve), sortedCopy(fill), sortedCopy(e2e)
	b, a := e.before, e.after
	reqs := a.edge.Requests - b.edge.Requests
	meta := p.meta["edge"].(map[string]any)
	meta["e2e_p99_samples"] = len(e2e)
	late := meta["late_ms"].(map[string]float64)
	wait := meta["conn_wait_ms"].(map[string]float64)
	out := map[string]float64{
		"httpdash.edge.serve_ms.p50":      quantile(serve, 0.5),
		"httpdash.edge.serve_ms.p90":      quantile(serve, 0.9),
		"httpdash.edge.serve_ms.small":    median(small),
		"httpdash.edge.serve_ms.large":    median(large),
		"httpdash.edge.fill_ms.p50":       quantile(fill, 0.5),
		"httpdash.edge.fill_ms.p90":       quantile(fill, 0.9),
		"httpdash.server.serve_ms.p50":    median(origin),
		"edgecache.hit_ratio":             ratio(a.edge.Hits+a.edge.StaleServes-b.edge.Hits-b.edge.StaleServes, reqs),
		"httpdash.edge.origin_offload":    1 - ratio(a.origin-b.origin, reqs),
		"edgecache.evictions_per_kreq":    1000 * ratio(a.edge.Cache.Evictions-b.edge.Cache.Evictions, reqs),
		"edgecache.shared_fills_per_kreq": 1000 * ratio(a.edge.SharedFills-b.edge.SharedFills, reqs),
		"edgecache.resident_mb":           float64(a.edge.Cache.Bytes) / 1e6,
		"driver.late_ms":                  late["p90"],
		"driver.conn_wait_ms":             wait["p90"],
		"e2e.p99_ms":                      quantile(e2e, 0.99),
	}
	return out, selfTimes(spans)
}

// linkByKey makes each child-named span without a parent the child of
// the parent-named span with the same key whose interval contains it.
func linkByKey(spans []span, child, parent string) {
	type iv struct {
		id         int64
		op         int64
		start, end int64
	}
	byKey := map[string][]iv{}
	for _, sp := range spans {
		if sp.Name == parent {
			byKey[sp.Key] = append(byKey[sp.Key], iv{sp.ID, sp.Op, sp.Start, sp.End})
		}
	}
	for i := range spans {
		sp := &spans[i]
		if sp.Name != child || sp.Parent > 0 {
			continue
		}
		for _, c := range byKey[sp.Key] {
			if c.start <= sp.Start && sp.End <= c.end {
				sp.Parent, sp.Op = c.id, c.op
				break
			}
		}
	}
}
