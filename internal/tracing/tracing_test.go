package tracing

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// testTracer builds a deterministic tracer: fixed seed, stepped clock,
// keep-everything sampler.
func testTracer(service string, store *Store) *Tracer {
	return withClock(New(Config{
		Service: service,
		Sampler: Sampler{KeepErrors: true, Ratio: 1},
		Seed:    42,
	}, store), steppedClock())
}

// withClock replaces tr's wall clock with now and returns tr.
func withClock(tr *Tracer, now func() time.Time) *Tracer {
	tr.now = now
	return tr
}

// traceID reports the trace span s belongs to.
func (s *Span) traceID() TraceID { return s.frag.traceID }

// steppedClock advances 1ms per reading from a fixed epoch.
func steppedClock() func() time.Time {
	base := time.Date(2026, 8, 9, 12, 0, 0, 0, time.UTC)
	n := 0
	var mu sync.Mutex
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		n++
		return base.Add(time.Duration(n) * time.Millisecond)
	}
}

func TestIDGenerationDeterministic(t *testing.T) {
	a := testTracer("a", NewStore(4))
	b := testTracer("b", NewStore(4))
	for i := 0; i < 8; i++ {
		ta, tb := a.newTraceID(), b.newTraceID()
		if ta != tb {
			t.Fatalf("draw %d: same seed produced different trace IDs %s vs %s", i, ta, tb)
		}
		if ta.IsZero() {
			t.Fatalf("draw %d: zero trace ID", i)
		}
		sa, sb := a.newSpanID(), b.newSpanID()
		if sa != sb || sa.IsZero() {
			t.Fatalf("draw %d: span IDs diverged or zero: %s vs %s", i, sa, sb)
		}
	}
}

func TestTraceParentRoundTrip(t *testing.T) {
	tr := testTracer("rt", NewStore(4))
	tid, sid := tr.newTraceID(), tr.newSpanID()
	hdr := FormatTraceParent(tid, sid)
	if len(hdr) != 55 {
		t.Fatalf("traceparent length = %d, want 55: %q", len(hdr), hdr)
	}
	if !strings.HasPrefix(hdr, "00-") || !strings.HasSuffix(hdr, "-01") {
		t.Fatalf("traceparent framing wrong: %q", hdr)
	}
	gtid, gsid, ok := ParseTraceParent(hdr)
	if !ok || gtid != tid || gsid != sid {
		t.Fatalf("round trip failed: %q -> (%s, %s, %v)", hdr, gtid, gsid, ok)
	}
}

func TestParseTraceParentRejections(t *testing.T) {
	valid := FormatTraceParent(TraceID{1}, SpanID{2})
	bad := []string{
		"",
		"00-short",
		valid[:54],
		valid + "0",
		"01" + valid[2:], // unknown version
		"00-" + strings.Repeat("0", 32) + valid[35:], // zero trace id
		valid[:36] + strings.Repeat("0", 16) + "-01", // zero span id
		strings.Replace(valid, "-01", "-zz", 1),      // non-hex flags
		"00-" + strings.Repeat("g", 32) + valid[35:], // non-hex trace id
		strings.Replace(valid, "-", "_", 1),          // wrong separator
		// W3C Trace Context allows lowercase hex only.
		"00-0AF7651916CD43DD8448EB211C80319C-b7ad6b7169203331-01", // uppercase trace id
		"00-0af7651916cd43dd8448eb211c80319c-B7AD6B7169203331-01", // uppercase span id
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-0A", // uppercase flags
	}
	for _, s := range bad {
		if _, _, ok := ParseTraceParent(s); ok {
			t.Errorf("ParseTraceParent(%q) accepted, want reject", s)
		}
	}
}

// FuzzParseTraceParent feeds arbitrary header values to the parser.
// It never panics, and whatever it accepts carries non-zero IDs that
// FormatTraceParent renders back to the input's first 52 bytes: one
// accepted spelling per trace and span, so a joined span propagates
// the caller's IDs unchanged.
func FuzzParseTraceParent(f *testing.F) {
	valid := FormatTraceParent(TraceID{0x0a, 0xf7}, SpanID{0xb7, 0xad})
	for _, s := range []string{
		valid,
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
		"00-0AF7651916CD43DD8448EB211C80319C-B7AD6B7169203331-01",
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-ff",
		"00-" + strings.Repeat("0", 32) + valid[35:],
		valid[:36] + strings.Repeat("0", 16) + "-01",
		"ff" + valid[2:],
		"",
		valid[:54],
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		tid, sid, ok := ParseTraceParent(s)
		if !ok {
			return
		}
		if tid.IsZero() || sid.IsZero() {
			t.Fatalf("ParseTraceParent(%q) accepted a zero ID: %s-%s", s, tid, sid)
		}
		if got := FormatTraceParent(tid, sid); got[:52] != s[:52] {
			t.Fatalf("ParseTraceParent(%q) re-renders as %q", s, got)
		}
	})
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	sp := tr.StartRoot("x")
	if sp != nil {
		t.Fatal("nil tracer returned non-nil span")
	}
	// Every method must be callable on the nil span without panicking.
	child := sp.StartChild("y")
	child.SetAttr("k", "v")
	child.SetAttrInt("n", 7)
	child.SetAttrDuration("d", time.Second)
	child.SetStatus("error", "boom")
	child.SetError(errors.New("boom"))
	if got := child.TraceParent(); got != "" {
		t.Fatalf("nil span TraceParent = %q, want empty", got)
	}
	child.End()
	sp.End()
	rem := tr.StartRemote("z", FormatTraceParent(TraceID{1}, SpanID{2}))
	if rem != nil {
		t.Fatal("nil tracer StartRemote returned non-nil span")
	}
}

// TestNilTracerZeroAllocs pins the zero-overhead contract: the disabled
// instrumentation path must not allocate.
func TestNilTracerZeroAllocs(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.StartRoot("fetch")
		att := sp.StartChild("attempt")
		att.SetAttrInt("try", 1)
		att.SetError(nil)
		_ = sp.TraceParent()
		att.End()
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing allocated %.1f per op, want 0", allocs)
	}
}

func TestFragmentLifecycle(t *testing.T) {
	store := NewStore(8)
	tr := testTracer("client", store)

	root := tr.StartRoot("fetch")
	root.SetAttr("rep", "video")
	a1 := root.StartChild("attempt")
	a1.SetAttrInt("try", 1)
	a1.SetStatus("error", "503")
	a1.End()
	a2 := root.StartChild("attempt")
	a2.SetAttrInt("try", 2)
	a2.End()
	leak := root.StartChild("unfinished") // never ended by hand
	_ = leak
	root.End()

	frags := store.Fragments()
	if len(frags) != 1 {
		t.Fatalf("stored %d fragments, want 1", len(frags))
	}
	f := frags[0]
	if f.Service != "client" || f.Root != root || len(f.Spans) != 4 {
		t.Fatalf("fragment = {service %q, %d spans}, want client/4", f.Service, len(f.Spans))
	}
	if f.Verdict != VerdictError {
		t.Fatalf("verdict = %q, want %q (a child had error status)", f.Verdict, VerdictError)
	}
	for _, sp := range f.Spans {
		if sp.Duration <= 0 {
			t.Fatalf("span %q has duration %v, want > 0 (unfinished children must be stamped)", sp.Name, sp.Duration)
		}
	}

	// After completion the fragment is frozen: mutations are dropped.
	before := len(root.Attrs)
	root.SetAttr("late", "x")
	root.SetStatus("error", "late")
	if len(root.Attrs) != before || root.Status != "" {
		t.Fatal("fragment accepted mutations after completion")
	}
	if c := root.StartChild("late"); c != nil {
		c.End()
	}
	if got := len(store.Fragments()[0].Spans); got != 4 {
		t.Fatalf("late child landed in frozen fragment: %d spans", got)
	}

	// End is idempotent: no double publish.
	root.End()
	if got := store.Stats().Seen; got != 1 {
		t.Fatalf("seen = %d after double End, want 1", got)
	}
}

func TestRemoteJoin(t *testing.T) {
	store := NewStore(8)
	client := testTracer("client", store)
	server := withClock(New(Config{Service: "server", Sampler: Sampler{Ratio: 1}, Seed: 99}, store), steppedClock())

	croot := client.StartRoot("fetch")
	hdr := croot.TraceParent()
	sroot := server.StartRemote("request", hdr)
	if sroot.traceID() != croot.traceID() {
		t.Fatalf("server did not join client trace: %s vs %s", sroot.traceID(), croot.traceID())
	}
	if sroot.Parent != croot.ID {
		t.Fatalf("server root parent = %s, want client span %s", sroot.Parent, croot.ID)
	}
	sroot.End()
	croot.End()

	views := store.Views()
	if len(views) != 1 {
		t.Fatalf("got %d merged traces, want 1 (fragments share a trace ID)", len(views))
	}
	v := views[0]
	if len(v.Services) != 2 || v.Services[0] != "client" || v.Services[1] != "server" {
		t.Fatalf("services = %v, want [client server]", v.Services)
	}
	if v.Root != "fetch" {
		t.Fatalf("merged root = %q, want fetch", v.Root)
	}
	if v.SpanCount != 2 {
		t.Fatalf("span count = %d, want 2", v.SpanCount)
	}

	// A bad header degrades to a fresh root, never a refusal.
	fresh := server.StartRemote("request", "garbage")
	if fresh == nil || fresh.traceID().IsZero() || !fresh.Parent.IsZero() {
		t.Fatal("malformed traceparent should start a fresh root")
	}
	fresh.End()
}

func TestSamplerVerdicts(t *testing.T) {
	now := time.Date(2026, 8, 9, 12, 0, 0, 0, time.UTC)
	mk := func(status string, d time.Duration) *Trace {
		root := &Span{Name: "r", Start: now, Duration: d, Status: status}
		return &Trace{TraceID: TraceID{0xab}, Root: root, Spans: []*Span{root}}
	}
	sm := Sampler{KeepErrors: true, LatencyThreshold: 100 * time.Millisecond, Ratio: 0}
	if got := sm.verdict(mk("error", time.Millisecond)); got != VerdictError {
		t.Fatalf("error trace verdict = %q", got)
	}
	if got := sm.verdict(mk("", 150*time.Millisecond)); got != VerdictLatency {
		t.Fatalf("slow trace verdict = %q", got)
	}
	if got := sm.verdict(mk("", time.Millisecond)); got != "" {
		t.Fatalf("fast ok trace verdict = %q, want drop", got)
	}
	sm.Ratio = 1
	if got := sm.verdict(mk("", time.Millisecond)); got != VerdictRatio {
		t.Fatalf("ratio=1 verdict = %q", got)
	}

	// Shed status counts as noteworthy too.
	if got := sm.verdict(mk("shed", time.Millisecond)); got != VerdictError {
		t.Fatalf("shed trace verdict = %q", got)
	}
}

// TestRatioSamplingIsTraceIDConsistent pins the cross-process property:
// two independent samplers reach the same ratio verdict for the same
// trace ID, and the keep rate lands near the configured ratio.
func TestRatioSamplingIsTraceIDConsistent(t *testing.T) {
	smA := Sampler{Ratio: 0.25}
	smB := Sampler{Ratio: 0.25}
	tr := testTracer("x", NewStore(1))
	kept := 0
	const n = 4000
	for i := 0; i < n; i++ {
		id := tr.newTraceID()
		a, b := smA.ratioKeep(id), smB.ratioKeep(id)
		if a != b {
			t.Fatalf("trace %s: samplers disagreed (%v vs %v)", id, a, b)
		}
		if a {
			kept++
		}
	}
	rate := float64(kept) / n
	if rate < 0.20 || rate > 0.30 {
		t.Fatalf("keep rate %.3f for ratio 0.25, want ~0.25", rate)
	}
}

func TestStoreRingWrap(t *testing.T) {
	store := NewStore(4)
	tr := testTracer("w", store)
	for i := 0; i < 10; i++ {
		sp := tr.StartRoot("op")
		sp.SetAttrInt("i", int64(i))
		sp.End()
	}
	frags := store.Fragments()
	if len(frags) != 4 {
		t.Fatalf("ring holds %d, want capacity 4", len(frags))
	}
	// Newest-first: attrs i = 9, 8, 7, 6.
	for k, f := range frags {
		want := itoa(int64(9 - k))
		if got := f.Root.Attrs[0].Value; got != want {
			t.Fatalf("slot %d holds i=%s, want %s", k, got, want)
		}
	}
	st := store.Stats()
	if st.Seen != 10 || st.Kept != 10 || st.Dropped != 0 {
		t.Fatalf("stats = %+v, want seen=kept=10", st)
	}
}

// TestViewsOmitTracesCutByEviction pins that a trace which lost a
// fragment to the ring is left out rather than shown as a smaller
// whole, while a trace that began after that fragment ended is shown.
func TestViewsOmitTracesCutByEviction(t *testing.T) {
	store := NewStore(2)
	clock := steppedClock()
	client := withClock(New(Config{Service: "client", Sampler: Sampler{Ratio: 1}, Seed: 1}, store), clock)
	server := withClock(New(Config{Service: "server", Sampler: Sampler{Ratio: 1}, Seed: 2}, store), clock)

	// Trace A: two fragments, the server's published first.
	a := client.StartRoot("request")
	sa := server.StartRemote("serve", a.TraceParent())
	sa.End()
	a.End()
	// Trace B: one fragment, started after A ended. Publishing it
	// overwrites A's server fragment, the oldest in the ring.
	b := client.StartRoot("request")
	b.End()

	if got := len(store.Fragments()); got != 2 {
		t.Fatalf("ring holds %d fragments, want 2", got)
	}
	views := store.Views()
	if len(views) != 1 || views[0].TraceID != b.traceID().String() {
		var ids []string
		for _, v := range views {
			ids = append(ids, fmt.Sprintf("%s %v", v.TraceID, v.Services))
		}
		t.Fatalf("views = %v, want only the complete trace %s (half-evicted %s left out)",
			ids, b.traceID(), a.traceID())
	}
}

// TestConcurrentSpansAndReads exercises the ring and fragment locking
// under the race detector: many goroutines record spans while readers
// assemble views.
func TestConcurrentSpansAndReads(t *testing.T) {
	store := NewStore(64)
	tr := New(Config{Service: "c", Sampler: Sampler{Ratio: 1}, Seed: 7}, store)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = store.Views()
				_ = store.Stats()
			}
		}()
	}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				root := tr.StartRoot("op")
				var inner sync.WaitGroup
				for c := 0; c < 3; c++ {
					inner.Add(1)
					go func(c int) {
						defer inner.Done()
						sp := root.StartChild("child")
						sp.SetAttrInt("c", int64(c))
						sp.End()
					}(c)
				}
				inner.Wait()
				root.End()
			}
		}(g)
	}
	time.Sleep(10 * time.Millisecond)
	wgDone := make(chan struct{})
	go func() { wg.Wait(); close(wgDone) }()
	close(stop)
	<-wgDone
	if st := store.Stats(); st.Seen != 1600 {
		t.Fatalf("seen = %d, want 1600", st.Seen)
	}
}

// TestIDStreamGolden pins the seeded ID stream and the ratio sampler's
// hash of it bit for bit: the same seed must keep producing the same
// trace and span IDs, and the same IDs the same keep verdicts at every
// ratio, across any change to how the generator is spelled.
func TestIDStreamGolden(t *testing.T) {
	tr := New(Config{Service: "golden", Sampler: DefaultSampler(), Seed: 42}, NewStore(1))
	ids := []string{tr.newTraceID().String(), tr.newSpanID().String(), tr.newTraceID().String()}
	wantIDs := []string{"bdd732262feb6e9528efe333b266f103", "47526757130f9f52", "581ce1ff0e4ae39409bc585a244823f2"}
	if len(ids) != len(wantIDs) {
		t.Fatalf("ids = %#v", ids)
	}
	for i := range wantIDs {
		if ids[i] != wantIDs[i] {
			t.Fatalf("id %d = %s, want %s", i, ids[i], wantIDs[i])
		}
	}
	// One bit per trace ID and ratio: 64 IDs placed into quarters of
	// the sampler's [0, 1) draw.
	var masks [3]uint64
	for i := 0; i < 64; i++ {
		id := tr.newTraceID()
		for r, ratio := range []float64{0.25, 0.5, 0.75} {
			if (Sampler{Ratio: ratio}).ratioKeep(id) {
				masks[r] |= 1 << i
			}
		}
	}
	wantMasks := [3]uint64{0x2e403002805d1c1, 0x2e4b7262815d7d9, 0x73ffb73e38bff7df}
	if masks != wantMasks {
		t.Fatalf("keep masks = %#x, want %#x", masks, wantMasks)
	}
}
