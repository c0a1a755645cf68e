// Package tracing is the repo's request-tracing substrate: spans with
// trace/span IDs, parent links, attributes, status, and monotonic
// timing, propagated across processes via the W3C `traceparent` header
// and collected — after a tail-sampling decision — into a lock-free
// ring-buffer store that telemetry.Handler exposes as /debug/traces.
// It is stdlib-only and built for hot paths: every method no-ops on a
// nil *Tracer or nil *Span, so call sites need no `if enabled`
// branching — wiring a nil tracer leaves the instrumented code
// allocation-free and branch-cheap, the same zero-overhead contract
// internal/telemetry pins for metrics.
//
// The model is deliberately smaller than OpenTelemetry's: one process
// records one *fragment* per local root span (a client segment fetch,
// a server request), and fragments from different processes — or from
// the client and server halves of one process, as in cmd/loadgen's
// in-process mode — are joined at read time by their shared 128-bit
// trace ID. Tail sampling is per fragment, but the probabilistic slice
// is computed from the trace ID alone, so every participant of a trace
// reaches the same keep/drop verdict without coordination.
package tracing

import (
	"encoding/binary"
	"encoding/hex"
	"sync"
	"time"

	"ecavs/internal/rng"
)

// Header is the W3C trace-context propagation header name.
const Header = "traceparent"

// TraceID is the 128-bit trace identifier shared by every span of a
// distributed trace.
type TraceID [16]byte

// SpanID is the 64-bit span identifier.
type SpanID [8]byte

// IsZero reports whether the ID is the invalid all-zero value.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// IsZero reports whether the ID is the invalid all-zero value.
func (id SpanID) IsZero() bool { return id == SpanID{} }

// String renders the ID as 32 lowercase hex digits.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// String renders the ID as 16 lowercase hex digits.
func (id SpanID) String() string { return hex.EncodeToString(id[:]) }

// Attr is one span attribute. Values are pre-rendered strings: the
// typed Set helpers format at record time, which only runs when
// tracing is enabled.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Config parameterises a Tracer.
type Config struct {
	// Service names the emitting side ("client", "server", "loadgen");
	// the explorer groups a trace's spans by it.
	Service string
	// Sampler is the tail-sampling policy applied when a fragment
	// completes. The zero value keeps nothing; use DefaultSampler as the
	// starting point.
	Sampler Sampler
	// Seed seeds the internal/rng ID stream. Zero derives a seed from the
	// wall clock; tests pass a fixed seed for reproducible IDs.
	Seed uint64
}

// Tracer creates spans and, when their root ends, offers the completed
// fragment to the store through the sampler. A nil *Tracer is fully
// inert: StartRoot/StartRemote return a nil *Span whose methods all
// no-op, so disabled tracing costs one branch and zero allocations.
//
// Construct with New; the zero value is unusable.
type Tracer struct {
	service string
	sampler Sampler
	store   *Store
	// now is the wall clock. Span durations use the monotonic reading
	// time.Time carries, so wall-clock jumps never produce negative
	// spans.
	now func() time.Time
	ids rng.Atomic // ID stream
}

// New builds a tracer emitting into store. A nil store returns a nil
// tracer — tracing without somewhere to put traces is disabled tracing.
func New(cfg Config, store *Store) *Tracer {
	if store == nil {
		return nil
	}
	t := &Tracer{
		service: cfg.Service,
		sampler: cfg.Sampler,
		store:   store,
		now:     time.Now,
	}
	if t.service == "" {
		t.service = "unknown"
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = uint64(time.Now().UnixNano())
	}
	t.ids.Seed(seed)
	return t
}

// newTraceID draws a non-zero 128-bit trace ID.
func (t *Tracer) newTraceID() TraceID {
	var id TraceID
	for id.IsZero() {
		binary.BigEndian.PutUint64(id[:8], t.ids.Uint64())
		binary.BigEndian.PutUint64(id[8:], t.ids.Uint64())
	}
	return id
}

// newSpanID draws a non-zero 64-bit span ID.
func (t *Tracer) newSpanID() SpanID {
	var id SpanID
	for id.IsZero() {
		binary.BigEndian.PutUint64(id[:], t.ids.Uint64())
	}
	return id
}

// StartRoot begins a new trace with a fresh trace ID and returns its
// root span. Ending the root completes the fragment: unfinished
// children are stamped, the sampler issues its verdict, and a kept
// fragment lands in the store.
func (t *Tracer) StartRoot(name string) *Span {
	if t == nil {
		return nil
	}
	return t.startFragment(name, t.newTraceID(), SpanID{})
}

// StartRemote joins the trace described by a W3C traceparent header
// value: the new span shares the remote trace ID and links to the
// remote span as its parent. An empty or malformed header starts a
// fresh root instead — a server never refuses to trace just because
// the caller's header was bad.
func (t *Tracer) StartRemote(name, traceparent string) *Span {
	if t == nil {
		return nil
	}
	if tid, parent, ok := ParseTraceParent(traceparent); ok {
		return t.startFragment(name, tid, parent)
	}
	return t.startFragment(name, t.newTraceID(), SpanID{})
}

// startFragment opens a fragment rooted at a new span.
func (t *Tracer) startFragment(name string, tid TraceID, parent SpanID) *Span {
	f := &fragment{tracer: t, traceID: tid}
	sp := &Span{
		frag:   f,
		ID:     t.newSpanID(),
		Parent: parent,
		Name:   name,
		Start:  t.now(),
		root:   true,
	}
	f.spans = append(f.spans, sp)
	return sp
}

// fragment accumulates the spans one process records for one local
// root. The mutex orders concurrent child creation (prefetch pipelines
// start spans from several goroutines); once the root ends the
// fragment is frozen — late mutations are dropped — so the published
// *Trace is immutable and readable without locks.
type fragment struct {
	tracer  *Tracer
	traceID TraceID

	mu    sync.Mutex
	spans []*Span
	done  bool
}

// Span is one timed operation inside a trace. Fields are exported for
// the explorer and tests but must be treated as read-only outside this
// package; mutate through the methods, which are safe on a nil
// receiver and become no-ops once the fragment has completed.
type Span struct {
	frag *fragment

	ID     SpanID
	Parent SpanID
	Name   string
	Start  time.Time
	// Duration is zero until End (or the fragment's completion, for
	// spans still running when the root ended).
	Duration time.Duration
	Attrs    []Attr
	// Status is "" for success; anything else ("error", "shed",
	// "fast_fail", "cancelled") marks the span noteworthy and makes the
	// sampler's KeepErrors slice retain the trace.
	Status string
	// Note carries the status detail (an error message).
	Note string

	root  bool
	ended bool
}

// StartChild opens a child span starting now.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	return s.StartChildAt(name, s.frag.tracer.now())
}

// StartChildAt opens a child span with an explicit start time — for
// intervals measured before the span object could be created, like a
// pipeline consumer that only learns which segment it waited on once
// the wait is over.
func (s *Span) StartChildAt(name string, start time.Time) *Span {
	if s == nil {
		return nil
	}
	f := s.frag
	child := &Span{
		frag:   f,
		ID:     f.tracer.newSpanID(),
		Parent: s.ID,
		Name:   name,
		Start:  start,
	}
	f.mu.Lock()
	if !f.done {
		f.spans = append(f.spans, child)
	}
	f.mu.Unlock()
	return child
}

// SetAttr records a string attribute.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	f := s.frag
	f.mu.Lock()
	if !f.done {
		s.Attrs = append(s.Attrs, Attr{Key: key, Value: value})
	}
	f.mu.Unlock()
}

// SetAttrInt records an integer attribute.
func (s *Span) SetAttrInt(key string, v int64) {
	if s == nil {
		return
	}
	s.SetAttr(key, itoa(v))
}

// SetAttrDuration records a duration attribute (Go duration syntax).
func (s *Span) SetAttrDuration(key string, d time.Duration) {
	if s == nil {
		return
	}
	s.SetAttr(key, d.String())
}

// SetStatus marks the span with a non-success status and detail note.
func (s *Span) SetStatus(status, note string) {
	if s == nil {
		return
	}
	f := s.frag
	f.mu.Lock()
	if !f.done {
		s.Status = status
		s.Note = note
	}
	f.mu.Unlock()
}

// SetError marks the span failed with the error's message. A nil error
// is ignored.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.SetStatus("error", err.Error())
}

// TraceParent renders the span's W3C traceparent header value, for
// injection into an outgoing request so the far side joins the trace
// as this span's child. Returns "" on a nil span.
func (s *Span) TraceParent() string {
	if s == nil {
		return ""
	}
	return FormatTraceParent(s.frag.traceID, s.ID)
}

// End stamps the span's duration. Ending the fragment's root span
// completes the fragment: children still running are stamped with the
// root's end time, the sampler decides, and a kept fragment is
// published to the store. End is idempotent; ends after the fragment
// completed are dropped.
func (s *Span) End() {
	if s == nil {
		return
	}
	f := s.frag
	now := f.tracer.now()
	f.mu.Lock()
	if f.done {
		f.mu.Unlock()
		return
	}
	if !s.ended {
		s.ended = true
		if d := now.Sub(s.Start); d > 0 {
			s.Duration = d
		}
	}
	if !s.root {
		f.mu.Unlock()
		return
	}
	// Root ended: freeze the fragment. Spans still open (a torn-down
	// prefetch, a handler panic) get the root's end stamp so the
	// explorer never shows a zero-length mystery.
	f.done = true
	for _, sp := range f.spans {
		if !sp.ended {
			sp.ended = true
			if d := now.Sub(sp.Start); d > 0 {
				sp.Duration = d
			}
		}
	}
	spans := f.spans
	f.mu.Unlock()

	t := f.tracer
	tr := &Trace{
		Service: t.service,
		TraceID: f.traceID,
		Root:    s,
		Spans:   spans,
		End:     now,
	}
	t.store.offer(tr, t.sampler)
}

// itoa is strconv.FormatInt without the import weight at call sites —
// attribute formatting only runs when tracing is enabled.
func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	neg := v < 0
	if neg {
		v = -v
	}
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// FormatTraceParent renders a version-00 W3C traceparent value:
// 00-<32 hex trace id>-<16 hex span id>-01. The sampled flag is always
// set — sampling here is a tail decision, taken after the trace ends,
// so the header cannot carry it.
func FormatTraceParent(tid TraceID, sid SpanID) string {
	var buf [55]byte
	buf[0], buf[1], buf[2] = '0', '0', '-'
	hex.Encode(buf[3:35], tid[:])
	buf[35] = '-'
	hex.Encode(buf[36:52], sid[:])
	buf[52], buf[53], buf[54] = '-', '0', '1'
	return string(buf[:])
}

// ParseTraceParent parses a version-00 traceparent header value,
// rejecting malformed lengths, anything but lowercase hex digits (the
// only form W3C Trace Context allows), unknown versions, and the
// all-zero IDs the spec forbids.
func ParseTraceParent(s string) (TraceID, SpanID, bool) {
	var tid TraceID
	var sid SpanID
	if len(s) != 55 || s[0] != '0' || s[1] != '0' || s[2] != '-' || s[35] != '-' || s[52] != '-' ||
		!isLowerHex(s[3:35]) || !isLowerHex(s[36:52]) || !isLowerHex(s[53:]) {
		return tid, sid, false
	}
	// Every digit is lowercase hex, so neither decode can fail.
	_, _ = hex.Decode(tid[:], []byte(s[3:35]))
	_, _ = hex.Decode(sid[:], []byte(s[36:52]))
	if tid.IsZero() || sid.IsZero() {
		return TraceID{}, SpanID{}, false
	}
	return tid, sid, true
}

// isLowerHex reports whether s is made of lowercase hex digits only.
func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
