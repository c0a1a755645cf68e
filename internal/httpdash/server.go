// Package httpdash puts the DASH substrate on a real network: an
// http.Handler that serves an MPD manifest and synthetic media
// segments (with optional token-bucket rate shaping and fault
// injection), and a streaming client that fetches segments over HTTP,
// measures throughput, retries failures with bounded backoff,
// optionally prefetches ahead of the play head, and drives any
// abr.Algorithm — the same interface the simulator drives. It is the
// integration layer that shows the library working over an actual
// TCP/HTTP stack rather than the discrete-event simulator.
package httpdash

import (
	"context"
	"errors"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ecavs/internal/dash"
	"ecavs/internal/faults"
	"ecavs/internal/telemetry"
	"ecavs/internal/tracing"
)

// chunkSize is the pacing granule. While a rate is set, a body goes
// out in pieces of this size, and each piece reserves its bytes from
// the token bucket before the next is written.
const chunkSize = 64 << 10

// pieceSize is the write size of an unshaped body: a 1.45 MB top-rung
// segment goes out in 6 pieces rather than 23 pacing granules.
const pieceSize = 256 << 10

// bodyPayload is the one read-only payload every body is sliced from,
// filled on first use so a process that never serves a segment never
// holds it. It is four copies of a 64 KiB pattern and every piece
// starts on a 64 KiB boundary, so a body's bytes depend only on their
// offset, whichever piece size carried them.
var bodyPayload = sync.OnceValue(func() []byte {
	buf := make([]byte, pieceSize)
	for i := range buf {
		buf[i] = byte('0' + i%chunkSize%10) // synthetic but non-trivial payload
	}
	return buf
})

// Server serves one video: GET /manifest.mpd and
// GET /seg/<repID>/<n>.m4s.
//
// Construct with NewServer; the zero value is unusable.
type Server struct {
	mpdXML   []byte
	repIDs   []string       // index-aligned with the ladder
	rungByID map[string]int // repID -> ladder index
	faults   *faults.Plan   // nil = healthy server

	// admission bounds concurrent segment transfers (nil = accept
	// everything, the seed behaviour); gate tracks every in-flight
	// request for Shutdown's graceful drain and is always on.
	admission *admission
	gate      *drainGate
	shedDrain atomic.Int64 // requests refused while draining

	// Precomputed per-(rung, segment) response parameters: payload
	// sizes in bytes and their rendered Content-Length values, so the
	// hot path never re-derives sizes or formats integers.
	segBytes [][]int
	segCL    [][]string

	// Per-rung traffic accounting: lock-free so the piece loop in
	// writeBody never serialises transfers on a shared mutex.
	rungStats []rungCounters

	// Optional telemetry mirrors (nil without WithServerTelemetry;
	// nil metrics are no-ops, so the serving path stays branch-free).
	telRequests, telBytes, telFaults, telShed []*telemetry.Counter
	telLatency                                *telemetry.Histogram
	telReg                                    *telemetry.Registry

	// rateBits holds math.Float64bits of the shaping rate in MB/s
	// (0 = unshaped). Published atomically so every in-flight piece
	// loop picks rate changes up without a lock.
	rateBits atomic.Uint64

	// pacer is the shared egress shaper: one token bucket across all
	// connections, so aggregate egress — not per-connection egress —
	// honours the configured rate.
	pacer pacer

	// tracer records per-request spans (nil = tracing disabled; the
	// serving path pays one branch and zero allocations).
	tracer *tracing.Tracer
}

// rungCounters is one rung's atomic traffic counters.
type rungCounters struct {
	requests atomic.Int64
	bytes    atomic.Int64
	faults   atomic.Int64
	shed     atomic.Int64
}

var _ http.Handler = (*Server)(nil)

// pacer is a lock-free token bucket expressed as a virtual clock: the
// single atomic word holds the nanosecond at which the last reserved
// piece's tokens run out. Each sender CASes the clock forward by its
// piece's cost (bytes ÷ rate) and sleeps until its own reservation
// matures. Arrival order is service order, so concurrent connections
// interleave piece by piece and the aggregate rate stays pinned to the
// configured limit no matter how many transfers are in flight. An idle
// bucket carries no credit: a reservation never starts before now, so
// a quiet period is not followed by a burst above the cap.
type pacer struct {
	next atomic.Int64 // unix nanos when the last reservation matures
}

// reserve books n bytes at rateMBps and waits for the reservation to
// mature, returning false if the client went away first. The cost and
// the clock saturate at math.MaxInt64 nanoseconds, so a rate too small
// for the reservation to fit in an int64 waits until the client goes
// away rather than wrapping into one that matures at once.
func (p *pacer) reserve(r *http.Request, n int, rateMBps float64) bool {
	cost := int64(math.MaxInt64)
	if c := float64(n) / (rateMBps * 1e6) * 1e9; c < math.MaxInt64 {
		cost = int64(c)
	}
	for {
		now := time.Now().UnixNano()
		prev := p.next.Load()
		start := max(prev, now)
		end := start + cost
		if end < start {
			end = math.MaxInt64
		}
		if !p.next.CompareAndSwap(prev, end) {
			continue
		}
		if d := time.Duration(end - now); d > 0 {
			return sleepOrGone(r, d)
		}
		return true
	}
}

// reprice scales the time the bucket still owes, booked at oldMBps, by
// oldMBps/newMBps, so it is what the same bytes cost at newMBps. With
// oldMBps 0 (shaping was off) the bucket restarts at now. The clock
// saturates at math.MaxInt64 nanoseconds, as in reserve.
func (p *pacer) reprice(oldMBps, newMBps float64) {
	for {
		now := time.Now().UnixNano()
		prev := p.next.Load()
		end := now
		if oldMBps > 0 && prev > now {
			end = math.MaxInt64
			if owed := float64(prev-now) * (oldMBps / newMBps); owed < math.MaxInt64 {
				if e := now + int64(owed); e >= now {
					end = e
				}
			}
		}
		if p.next.CompareAndSwap(prev, end) {
			return
		}
	}
}

// WithRateLimitMBps shapes segment responses to the given aggregate
// rate (a token bucket shared by every connection, paced in 64 KiB
// pieces; unshaped bodies are written in 256 KiB pieces). Zero
// disables shaping.
func WithRateLimitMBps(mbps float64) ServerOption {
	return func(s *Server) {
		if mbps > 0 {
			s.rateBits.Store(math.Float64bits(mbps))
		}
	}
}

// WithServerTelemetry mirrors the server's per-rung traffic counters
// into a telemetry registry:
//
//	httpdash_server_requests_total{rung}  segment requests accepted
//	httpdash_server_bytes_total{rung}     segment payload bytes sent
//	httpdash_server_faults_total{rung}    fault verdicts realized
//	httpdash_server_shed_total{rung}      segment requests shed by admission control
//	httpdash_server_queued_total          segment requests that waited for a slot
//	httpdash_server_inflight              currently admitted requests (scrape-time)
//	httpdash_server_segment_seconds       segment serve latency
//
// A nil registry is a no-op (Snapshot still works — it reads the
// always-on atomic counters). The option only records the registry;
// every series is wired after all options applied, so it composes with
// admission control and tracing in any order.
func WithServerTelemetry(reg *telemetry.Registry) ServerOption {
	return func(s *Server) {
		s.telReg = reg
	}
}

// wireTelemetry registers the server's series on the recorded registry.
// It runs once, after every option has applied, which is what makes
// WithServerTelemetry order-independent with respect to
// WithAdmissionControl: the admission queue counter exists exactly when
// both options were given, whichever came first.
func (s *Server) wireTelemetry() {
	reg := s.telReg
	if reg == nil {
		return
	}
	requests := reg.CounterVec("httpdash_server_requests_total",
		"Segment requests accepted, by ladder rung.", "rung")
	bytes := reg.CounterVec("httpdash_server_bytes_total",
		"Segment payload bytes sent, by ladder rung.", "rung")
	faultsVec := reg.CounterVec("httpdash_server_faults_total",
		"Injected fault verdicts realized, by ladder rung.", "rung")
	shedVec := reg.CounterVec("httpdash_server_shed_total",
		"Segment requests shed by admission control, by ladder rung.", "rung")
	for i := range s.repIDs {
		rung := strconv.Itoa(i)
		s.telRequests[i] = requests.With(rung)
		s.telBytes[i] = bytes.With(rung)
		s.telFaults[i] = faultsVec.With(rung)
		s.telShed[i] = shedVec.With(rung)
	}
	s.telLatency = reg.Histogram("httpdash_server_segment_seconds",
		"Wall-clock time serving one segment request.", telemetry.DefLatencyBuckets())
	reg.GaugeFunc("httpdash_server_inflight",
		"Requests currently being served (sampled at scrape time).", func() float64 {
			return float64(s.gate.inFlight())
		})
	if s.admission != nil {
		s.admission.telQueued = reg.Counter("httpdash_server_queued_total",
			"Segment requests that waited in the admission queue.")
	}
}

// WithServerTracing records one span tree per segment request: a root
// span that joins the caller's trace when the request carries a W3C
// `traceparent` header (and starts a fresh trace otherwise), with
// child spans for admission-queue wait, injected fault latency/stalls,
// and the body write, piece by piece — the write span carries the bytes
// written and the time spent waiting on the shared pacing bucket. Shed
// and fault outcomes are recorded as span statuses, so the tail
// sampler always keeps them. A nil tracer keeps tracing disabled at
// zero cost on the serving path.
func WithServerTracing(tr *tracing.Tracer) ServerOption {
	return func(s *Server) {
		s.tracer = tr
	}
}

// WithFaults makes the server consult a fault plan for every segment
// request (the manifest stays reliable): Error5xx answers with the
// injected status, Reset aborts the connection, Stall hangs
// mid-transfer, Truncate closes the connection after a body prefix,
// and Latency delays the response. Nil disables injection.
func WithFaults(p *faults.Plan) ServerOption {
	return func(s *Server) {
		s.faults = p
	}
}

// NewServer builds the handler for a manifest.
func NewServer(m *dash.Manifest, opts ...ServerOption) (*Server, error) {
	if m == nil {
		return nil, errors.New("httpdash: nil manifest")
	}
	mpd, err := dash.BuildMPD(m)
	if err != nil {
		return nil, err
	}
	var sb strings.Builder
	if err := dash.WriteMPD(&sb, mpd); err != nil {
		return nil, err
	}
	ids := make([]string, len(m.Ladder()))
	byID := make(map[string]int, len(ids))
	for i, rep := range mpd.Period.AdaptationSet.Representations {
		ids[i] = rep.ID
		byID[rep.ID] = i
	}
	// Materialise every segment's payload size (and its Content-Length
	// header value) up front: the VBR-jittered sizes are deterministic
	// per manifest, and precomputing them keeps float math, error
	// handling, and integer formatting off the per-request path.
	segBytes := make([][]int, len(ids))
	segCL := make([][]string, len(ids))
	for rung := range ids {
		segBytes[rung] = make([]int, m.SegmentCount())
		segCL[rung] = make([]string, m.SegmentCount())
		for n := 0; n < m.SegmentCount(); n++ {
			sizeMB, err := m.SegmentSizeMB(n, rung)
			if err != nil {
				return nil, err
			}
			size := int(sizeMB * 1e6)
			if size < 1 {
				size = 1
			}
			segBytes[rung][n] = size
			segCL[rung][n] = strconv.Itoa(size)
		}
	}
	s := &Server{
		mpdXML:    []byte(sb.String()),
		repIDs:    ids,
		rungByID:  byID,
		segBytes:  segBytes,
		segCL:     segCL,
		rungStats: make([]rungCounters, len(ids)),
		gate:      newDrainGate(),
		// Telemetry mirrors default to nil entries — a nil *Counter is
		// a no-op, so the serving path increments unconditionally.
		telRequests: make([]*telemetry.Counter, len(ids)),
		telBytes:    make([]*telemetry.Counter, len(ids)),
		telFaults:   make([]*telemetry.Counter, len(ids)),
		telShed:     make([]*telemetry.Counter, len(ids)),
	}
	applyOptions(s, opts)
	s.wireTelemetry()
	return s, nil
}

// SetRateLimitMBps changes the shaping rate at runtime (0 disables) —
// handy for emulating network dips mid-session. The rate is published
// atomically: segment transfers already in flight pick the new rate up
// at their next piece. The bucket's unmatured reservations were priced
// at the old rate and are re-priced at the new one, so the debt a dip
// left behind shrinks when the rate rises; shaping turned on from off
// starts the bucket at now. A piece that loaded the old rate just
// before the swap still books at that rate: at most one piece per
// transfer.
func (s *Server) SetRateLimitMBps(mbps float64) {
	if mbps < 0 {
		mbps = 0
	}
	old := math.Float64frombits(s.rateBits.Swap(math.Float64bits(mbps)))
	if mbps > 0 && mbps != old {
		s.pacer.reprice(old, mbps)
	}
}

// rateMBps reads the currently published shaping rate.
func (s *Server) rateMBps() float64 {
	return math.Float64frombits(s.rateBits.Load())
}

// RungSnapshot is one ladder rung's traffic totals.
type RungSnapshot struct {
	// Requests counts accepted segment requests (before any fault
	// verdict), Bytes the payload actually written, Faults the injected
	// fault verdicts realized, and Shed the requests bounced by
	// admission control for this rung. Bytes grows one body piece at a
	// time (64 KiB shaped, up to 256 KiB unshaped), once the piece's
	// Write has returned without error.
	Requests int64
	Bytes    int64
	Faults   int64
	Shed     int64
}

// Snapshot is a point-in-time copy of the server's traffic counters.
type Snapshot struct {
	// Rungs is index-aligned with the manifest ladder.
	Rungs []RungSnapshot
	// Requests, Bytes, Faults are the cross-rung totals.
	Requests int64
	Bytes    int64
	Faults   int64
	// Shed totals every refused request: per-rung admission sheds plus
	// requests bounced while draining. Requests+Shed therefore equals
	// every request that resolved to a real segment (or arrived during
	// a drain) — the accepted+shed == issued accounting overload tests
	// gate on.
	Shed int64
	// Queued counts requests that waited in the admission queue before
	// being admitted or shed.
	Queued int64
	// InFlight is the number of requests being served at snapshot time
	// (0 after a completed Shutdown — no leaked transfers).
	InFlight int64
}

// Snapshot reads the per-rung traffic counters. Counters are sampled
// one atomic load at a time, so a snapshot taken mid-transfer is
// approximate across rungs but never torn within one counter.
func (s *Server) Snapshot() Snapshot {
	snap := Snapshot{Rungs: make([]RungSnapshot, len(s.rungStats))}
	for i := range s.rungStats {
		rc := &s.rungStats[i]
		r := RungSnapshot{
			Requests: rc.requests.Load(),
			Bytes:    rc.bytes.Load(),
			Faults:   rc.faults.Load(),
			Shed:     rc.shed.Load(),
		}
		snap.Rungs[i] = r
		snap.Requests += r.Requests
		snap.Bytes += r.Bytes
		snap.Faults += r.Faults
		snap.Shed += r.Shed
	}
	snap.Shed += s.shedDrain.Load()
	if s.admission != nil {
		snap.Queued = s.admission.queuedTotal.Load()
	}
	snap.InFlight = s.gate.inFlight()
	return snap
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// The drain gate brackets every request: once Shutdown has been
	// called new requests bounce with 503 + Retry-After, and Shutdown
	// returns only after the last gated request exits.
	if !s.gate.enter() {
		s.shedDrain.Add(1)
		shedResponse(w, shedRetryAfter)
		return
	}
	defer s.gate.exit()
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	switch {
	case r.URL.Path == "/manifest.mpd":
		w.Header().Set("Content-Type", "application/dash+xml")
		_, _ = w.Write(s.mpdXML)
	case strings.HasPrefix(r.URL.Path, "/seg/"):
		s.serveSegment(w, r)
	default:
		http.NotFound(w, r)
	}
}

// Shutdown drains the server gracefully: it stops accepting requests
// (new ones are refused with 503 + Retry-After so clients back off and
// retry elsewhere) and waits for in-flight transfers to finish,
// bounded by the context. It returns nil once the server is idle, or
// the context's error if the deadline expires first. Shutdown is
// idempotent and composes with http.Server.Shutdown — call this first
// so the handler refuses fresh work while the listener unwinds.
func (s *Server) Shutdown(ctx context.Context) error {
	s.gate.drain()
	select {
	case <-s.gate.idle:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// rungForRepID resolves a representation ID to its ladder index.
func (s *Server) rungForRepID(id string) (int, bool) {
	i, ok := s.rungByID[id]
	return i, ok
}

// sleepOrGone waits d, returning early (false) if the client went away.
func sleepOrGone(r *http.Request, d time.Duration) bool {
	if d <= 0 {
		return true
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-r.Context().Done():
		return false
	case <-timer.C:
		return true
	}
}

func (s *Server) serveSegment(w http.ResponseWriter, r *http.Request) {
	repID, n, ok := parseSegmentPath(r.URL.Path)
	if !ok {
		http.Error(w, "bad segment path", http.StatusBadRequest)
		return
	}
	rung, ok := s.rungForRepID(repID)
	if !ok {
		http.Error(w, "unknown representation", http.StatusNotFound)
		return
	}
	if n >= len(s.segBytes[rung]) {
		http.Error(w, "no such segment", http.StatusNotFound)
		return
	}
	size := s.segBytes[rung][n]

	// Tracing starts only once the path parsed to a real segment: a
	// `traceparent` header joins the caller's trace, its absence starts
	// a fresh one. The deferred End publishes the fragment on every
	// exit, including the panics the Reset/Truncate faults use.
	var span *tracing.Span
	if s.tracer != nil {
		span = s.tracer.StartRemote("serve_segment", r.Header.Get(tracing.Header))
		span.SetAttr("rep", repID)
		span.SetAttrInt("segment", int64(n))
		span.SetAttrInt("rung", int64(rung))
		defer span.End()
	}

	// Admission: acquire an in-flight slot (possibly waiting in the
	// bounded FIFO queue) or shed the request with 503 + Retry-After.
	// Malformed URLs never reach this point, so shedding is accounted
	// per real rung and the accepted+shed == issued invariant holds.
	if a := s.admission; a != nil {
		asp := span.StartChild("admission")
		switch a.admit(r, rung, len(s.repIDs)) {
		case shed:
			asp.SetStatus("shed", "queue full or wait budget exceeded")
			asp.End()
			span.SetStatus("shed", "admission control")
			s.rungStats[rung].shed.Add(1)
			s.telShed[rung].Inc()
			shedResponse(w, shedRetryAfter)
			return
		case gone:
			asp.SetStatus("cancelled", "client left the queue")
			asp.End()
			span.SetStatus("cancelled", "client left while queued")
			return // client left while queued; nothing to answer
		}
		asp.End()
		defer a.release()
	}

	// The request resolved to a real segment: account it (and its
	// serve latency) to the rung, whatever the fault plan does next.
	s.rungStats[rung].requests.Add(1)
	s.telRequests[rung].Inc()
	start := time.Now()
	defer func() { s.telLatency.Observe(time.Since(start).Seconds()) }()

	// Fault verdicts apply only to valid segment requests, so a broken
	// URL is still a plain 4xx and retries burn plan attempts only for
	// real segments.
	var verdict faults.Verdict
	if s.faults != nil {
		verdict = s.faults.Verdict(r.URL.Path)
	}
	if verdict.Kind != faults.None {
		s.rungStats[rung].faults.Add(1)
		s.telFaults[rung].Inc()
	}
	switch verdict.Kind {
	case faults.Error5xx:
		span.SetStatus("error", "injected 5xx fault")
		span.SetAttrInt("http_status", int64(verdict.Status))
		http.Error(w, "injected fault", verdict.Status)
		return
	case faults.Reset:
		// The deferred span.End() runs while this panic unwinds, so the
		// torn connection still leaves a trace.
		span.SetStatus("error", "injected connection reset")
		panic(http.ErrAbortHandler) // tear the connection down
	case faults.Latency:
		lsp := span.StartChild("fault_latency")
		lsp.SetAttrDuration("delay", verdict.Latency)
		ok := sleepOrGone(r, verdict.Latency)
		lsp.End()
		if !ok {
			span.SetStatus("cancelled", "client gone during injected latency")
			return
		}
	case faults.Truncate:
		// Deliver a prefix while still advertising the full size; the
		// aborted connection surfaces client-side as a short body. The
		// prefix is flushed before the abort: its last piece may still
		// sit in net/http's response buffer, which the abort discards,
		// and the byte counters already hold it.
		cut := int(float64(size) * verdict.TruncateFrac)
		if cut < 1 {
			cut = 1
		}
		h := w.Header()
		h.Set("Content-Type", "video/iso.segment")
		h.Set("Content-Length", s.segCL[rung][n])
		span.SetStatus("error", "injected truncation")
		s.writeBody(w, r, rung, cut, 0, span)
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		panic(http.ErrAbortHandler)
	}

	h := w.Header()
	h.Set("Content-Type", "video/iso.segment")
	h.Set("Content-Length", s.segCL[rung][n])
	// Only a Stall verdict hangs the body: probabilistic plans populate
	// every duration field on every verdict, so honouring Stall here for
	// other kinds would smuggle a 2 s default hang into, say, a Latency
	// verdict (which it historically did).
	var stall time.Duration
	if verdict.Kind == faults.Stall {
		stall = verdict.Stall
	}
	s.writeBody(w, r, rung, size, stall, span)
}

// writeBody streams size synthetic bytes for one rung, sliced from the
// shared payload — the serving path never copies or refills payload.
// Each piece starts with one atomic load of the shaping rate, which
// sets both its size and its reservation: unshaped, the piece is up to
// pieceSize bytes; shaped, it is up to chunkSize bytes, booked on the
// token bucket shared by every connection once it is written, so
// aggregate egress honours the limit. A rate SetRateLimitMBps
// publishes mid-transfer therefore applies from the next piece. Byte
// accounting and the client-disconnect check run once per piece, after
// its Write returns. A positive stall hangs the response before the
// first body byte — the client sits blocked on the transfer until its
// per-attempt deadline fires (or the stall ends). Under a non-nil span
// the stall becomes a child span and the write gets one carrying the
// bytes sent and the cumulative time spent waiting on the pacing
// bucket; that extra timing only runs when the span exists, so
// disabled tracing leaves the piece loop untouched.
func (s *Server) writeBody(w http.ResponseWriter, r *http.Request, rung, size int, stall time.Duration, span *tracing.Span) {
	if stall > 0 {
		ssp := span.StartChild("fault_stall")
		ssp.SetAttrDuration("stall", stall)
		ok := sleepOrGone(r, stall)
		ssp.End()
		if !ok {
			span.SetStatus("cancelled", "client gone during injected stall")
			return
		}
	}
	var wsp *tracing.Span
	var paceWait time.Duration
	if span != nil {
		wsp = span.StartChild("write")
	}
	buf := bodyPayload()
	written := 0
	for written < size {
		rate := s.rateMBps()
		n := pieceSize
		if rate > 0 {
			n = chunkSize
		}
		n = min(n, size-written)
		if _, err := w.Write(buf[:n]); err != nil {
			finishWriteSpan(wsp, written, paceWait, "client gone mid-write")
			return // client went away
		}
		written += n
		s.rungStats[rung].bytes.Add(int64(n))
		s.telBytes[rung].Add(int64(n))
		if rate > 0 {
			if wsp == nil {
				if !s.pacer.reserve(r, n, rate) {
					return
				}
			} else {
				t0 := time.Now()
				ok := s.pacer.reserve(r, n, rate)
				paceWait += time.Since(t0)
				if !ok {
					finishWriteSpan(wsp, written, paceWait, "client gone during pacing")
					return
				}
			}
		}
	}
	finishWriteSpan(wsp, written, paceWait, "")
}

// finishWriteSpan stamps a write span's payload accounting; a non-empty
// reason marks the write cut short by the client going away.
func finishWriteSpan(wsp *tracing.Span, written int, paceWait time.Duration, reason string) {
	if wsp == nil {
		return
	}
	wsp.SetAttrInt("bytes", int64(written))
	wsp.SetAttrDuration("pace_wait", paceWait)
	if reason != "" {
		wsp.SetStatus("cancelled", reason)
	}
	wsp.End()
}
