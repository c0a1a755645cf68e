package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ecavs/internal/abr"
	"ecavs/internal/core"
	"ecavs/internal/dash"
	"ecavs/internal/httpdash"
	"ecavs/internal/power"
	"ecavs/internal/qoe"
	"ecavs/internal/telemetry"
	"ecavs/internal/tracing"
)

// The stream workload exists to measure the HTTP client's decide →
// fetch → observe loop, the origin's serving fast path and admission,
// with the program's production observability on: per-viewer sessions
// of back-to-back segment downloads, the way mobile video is
// delivered. It runs the paper's online algorithm at the default
// serial fetch depth against an httpdash.Server serving the Table II
// ladder; the simulator contributes only Online's decisions and no
// edge is involved. One op is one whole session, in a closed loop of
// at most nproc viewers.

type streamParams struct {
	viewers  int     // closed-loop viewers, at most nproc
	videoSec float64 // presentation length (2 s segments)
	warmup   int     // sessions per viewer during set-up
}

func streamDefaults() streamParams {
	return streamParams{viewers: min(2, runtime.NumCPU()), videoSec: 120, warmup: 3}
}

type streamInst struct {
	p        streamParams
	rec      *recorder
	srv      *httpdash.Server
	hs       *http.Server
	store    *tracing.Store
	viewers  []*viewer
	expect   [][]int64 // payload bytes per [rung][segment], as the origin sizes them
	segments int
	top      int
	received atomic.Int64 // segment bytes every session so far received

	decide   tally
	overhead time.Duration
	// Client totals of the measured ops, for the per-layer metrics.
	mu                            sync.Mutex
	segs, bytes, topSegs, retries int64
	seenBefore, seenAfter         tracing.StoreStats
}

// viewer is one closed-loop client. In a traced run op and session
// name the current session's span, for the instruments to hang
// theirs under.
type viewer struct {
	client    *httpdash.Client
	transport *http.Transport
	alg       *timedAlg
	op        atomic.Int64
	session   atomic.Int64
}

func newStream(p streamParams, seed int64, rec *recorder) (*streamInst, error) {
	m, err := dash.NewManifest(
		dash.Video{Title: "perfbench", SpatialInfo: 45, TemporalInfo: 15, DurationSec: p.videoSec},
		dash.TableIILadder(),
		dash.ManifestConfig{SegmentSec: 2, VBRJitter: 0.12, Seed: seed})
	if err != nil {
		return nil, err
	}
	s := &streamInst{p: p, rec: rec, segments: m.SegmentCount(), top: len(m.Ladder()) - 1}
	s.expect = make([][]int64, len(m.Ladder()))
	for r := range s.expect {
		s.expect[r] = make([]int64, s.segments)
		for n := range s.expect[r] {
			mb, err := m.SegmentSizeMB(n, r)
			if err != nil {
				return nil, err
			}
			s.expect[r][n] = max(int64(mb*1e6), 1)
		}
	}

	reg := telemetry.NewRegistry()
	s.store = tracing.NewStore(1024)
	sampler := tracing.DefaultSampler()
	srv, err := httpdash.NewServer(m,
		httpdash.WithAdmissionControl(httpdash.AdmissionConfig{MaxInFlight: 4 * p.viewers, MaxQueue: 4 * p.viewers}),
		httpdash.WithServerTelemetry(reg),
		httpdash.WithServerTracing(tracing.New(tracing.Config{Service: "server", Sampler: sampler, Seed: uint64(seed)*8 + 1}, s.store)))
	if err != nil {
		return nil, err
	}
	s.srv = srv
	var h http.Handler = srv
	if rec != nil {
		s.overhead = timerCost()
		h = &timedHandler{h: srv, rec: rec, name: segmentOr("httpdash.server.serve", "httpdash.server.manifest")}
	}
	base, hs, err := serve(h)
	if err != nil {
		return nil, err
	}
	s.hs = hs

	obj, err := core.NewObjective(core.DefaultAlpha, power.EvalModel(), qoe.Default())
	if err != nil {
		s.close()
		return nil, err
	}
	for i := 0; i < p.viewers; i++ {
		// The client's default HTTP client (30 s timeout over
		// NewTransport), built here so the run can close its idle
		// connections and, traced, time its requests.
		v := &viewer{transport: httpdash.NewTransport()}
		var alg abr.Algorithm = core.NewOnline(obj)
		var rt http.RoundTripper = v.transport
		if rec != nil {
			v.alg = &timedAlg{Algorithm: alg, tally: &s.decide, name: "core.decide", overhead: s.overhead, rec: rec}
			alg = v.alg
			rt = &timedTransport{
				base:   v.transport,
				rec:    rec,
				name:   segmentOr("httpdash.client.fetch", "httpdash.client.manifest"),
				spanOf: func() (int64, int64) { return v.op.Load(), v.session.Load() },
				tag:    true,
			}
		}
		s.viewers = append(s.viewers, v)
		if v.client, err = httpdash.NewClient(base, alg,
			httpdash.WithHTTPClient(&http.Client{Timeout: 30 * time.Second, Transport: rt}),
			httpdash.WithClientTelemetry(reg),
			httpdash.WithTracing(tracing.New(tracing.Config{Service: "client", Sampler: sampler, Seed: uint64(seed)*8 + 2 + uint64(i)}, s.store)),
		); err != nil {
			s.close()
			return nil, err
		}
	}

	// Warm-up: a fixed number of sessions per viewer, run the way the
	// measured ones are, so connections, pools and the server's chunk
	// pool reach steady state.
	p2 := &phase{}
	s.loop(p2, func(v *viewer, done int) bool { return done < p.warmup }, false)
	if p2.failed > 0 {
		s.close()
		return nil, fmt.Errorf("warm-up: %v", p2.failures)
	}
	return s, nil
}

// serve starts an http.Server for h on a loopback port.
func serve(h http.Handler) (string, *http.Server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	go func() { _ = hs.Serve(ln) }()
	return "http://" + ln.Addr().String(), hs, nil
}

// loop runs every viewer's closed loop while more(viewer, sessions it
// has done) holds, and folds the sessions into p.
func (s *streamInst) loop(p *phase, more func(v *viewer, done int) bool, measured bool) {
	var wg sync.WaitGroup
	var mu sync.Mutex
	for _, v := range s.viewers {
		wg.Add(1)
		go func(v *viewer) {
			defer wg.Done()
			for done := 0; more(v, done); done++ {
				ms, err := s.session(v, measured)
				done := time.Now()
				mu.Lock()
				p.attempted++
				if err != nil {
					p.fail(err.Error())
				} else {
					p.pass(done, ms)
				}
				mu.Unlock()
			}
		}(v)
	}
	wg.Wait()
}

// session streams one whole presentation and checks it: every segment
// fetched, with no retries or abandoned segments, and exactly the
// bytes the origin serves for the rungs chosen.
func (s *streamInst) session(v *viewer, measured bool) (float64, error) {
	op := s.rec.newID()
	sid := s.rec.newID()
	v.op.Store(op)
	v.session.Store(sid)
	if v.alg != nil {
		v.alg.op, v.alg.parent = op, sid
	}
	start := time.Now()
	st, err := v.client.Stream(context.Background())
	end := time.Now()
	if s.rec != nil {
		s.rec.add(span{ID: sid, Op: op, Name: "stream.session", Start: int64(start.Sub(s.rec.epoch)), End: int64(end.Sub(s.rec.epoch))})
	}
	if err != nil {
		return 0, err
	}
	if len(st.Fetches) != s.segments || st.Retries != 0 || st.AbandonedSegments != 0 {
		return 0, fmt.Errorf("session fetched %d of %d segments with %d retries and %d abandoned",
			len(st.Fetches), s.segments, st.Retries, st.AbandonedSegments)
	}
	var want int64
	var top int64
	for _, f := range st.Fetches {
		want += s.expect[f.Rung][f.Segment]
		if f.Rung == s.top {
			top++
		}
	}
	if st.TotalBytes != want {
		return 0, fmt.Errorf("session received %d bytes, origin serves %d for its rungs", st.TotalBytes, want)
	}
	s.received.Add(st.TotalBytes)
	if measured {
		s.mu.Lock()
		s.segs += int64(len(st.Fetches))
		s.bytes += st.TotalBytes
		s.topSegs += top
		s.retries += int64(st.Retries)
		s.mu.Unlock()
	}
	return float64(end.Sub(start)) / 1e6, nil
}

func (s *streamInst) measure(deadline time.Time) (*phase, error) {
	p := &phase{}
	s.decide.calls.Store(0) // the warm-up's decisions are not the ops'
	s.decide.ns.Store(0)
	s.seenBefore = s.store.Stats()
	s.loop(p, func(*viewer, int) bool { return time.Now().Before(deadline) }, true)
	s.seenAfter = s.store.Stats()
	// Cross-tier accounting: the origin shed nothing and sent exactly
	// the bytes the sessions received. The origin counts a chunk after
	// writing it, so a session can end before its last chunk is
	// counted: wait for every handler to return first.
	snap := s.srv.Snapshot()
	for give := time.Now().Add(2 * time.Second); snap.InFlight > 0 && time.Now().Before(give); snap = s.srv.Snapshot() {
		time.Sleep(time.Millisecond)
	}
	if snap.Shed != 0 || snap.Bytes != s.received.Load() {
		p.fail(fmt.Sprintf("origin shed %d and sent %d bytes; sessions received %d", snap.Shed, snap.Bytes, s.received.Load()))
	}
	p.meta = map[string]any{"stream": map[string]any{
		"viewers": s.p.viewers, "segments_per_session": s.segments, "video_sec": s.p.videoSec,
		"tracing_fragments_seen": s.seenAfter.Seen - s.seenBefore.Seen,
		"tracing_fragments_kept": s.seenAfter.Kept - s.seenBefore.Kept,
	}}
	return p, nil
}

func (s *streamInst) close() {
	if s.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.srv.Shutdown(ctx)
		_ = s.hs.Shutdown(ctx)
	}
	for _, v := range s.viewers {
		v.transport.CloseIdleConnections()
	}
}

func (s *streamInst) layers(p *phase, spans []span) (map[string]float64, []layerTime) {
	ops := float64(p.attempted)
	out := map[string]float64{}
	fetch := sortedCopy(named(spans, "httpdash.client.fetch"))
	serveMs := sortedCopy(named(spans, "httpdash.server.serve"))
	out["httpdash.client.manifest_ms"] = median(named(spans, "httpdash.client.manifest"))
	out["httpdash.client.fetch_ms.p50"] = quantile(fetch, 0.5)
	out["httpdash.client.fetch_ms.p90"] = quantile(fetch, 0.9)
	out["httpdash.server.serve_ms.p50"] = quantile(serveMs, 0.5)
	out["httpdash.server.serve_ms.p90"] = quantile(serveMs, 0.9)
	if f := sum(fetch); f > 0 {
		out["net.share"] = 1 - sum(serveMs)/f
	}

	// Startup: from a session's start to the end of its first segment.
	firstEnd := map[int64]int64{}
	var sessionNs int64
	for _, sp := range spans {
		switch sp.Name {
		case "httpdash.client.fetch":
			if e, ok := firstEnd[sp.Parent]; !ok || sp.End < e {
				firstEnd[sp.Parent] = sp.End
			}
		case "stream.session":
			sessionNs += sp.dur()
		}
	}
	var startup []float64
	for _, sp := range spans {
		if e, ok := firstEnd[sp.ID]; ok && sp.Name == "stream.session" {
			startup = append(startup, float64(e-sp.Start)/1e6)
		}
	}
	out["httpdash.client.startup_ms"] = median(startup)
	if sessionNs > 0 {
		out["core.decide_share"] = float64(s.decide.ns.Load()) / float64(sessionNs)
	}

	seen := float64(s.seenAfter.Seen - s.seenBefore.Seen)
	out["tracing.fragments_per_op"] = seen / ops
	if seen > 0 {
		out["tracing.kept_ratio"] = float64(s.seenAfter.Kept-s.seenBefore.Kept) / seen
	}
	s.mu.Lock()
	out["httpdash.client.segments_per_op"] = float64(s.segs) / ops
	out["httpdash.client.mb_per_op"] = float64(s.bytes) / 1e6 / ops
	if s.segs > 0 {
		out["httpdash.client.top_rung_share"] = float64(s.topSegs) / float64(s.segs)
	}
	out["httpdash.client.retries_per_op"] = float64(s.retries) / ops
	s.mu.Unlock()
	return out, selfTimes(spans)
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
