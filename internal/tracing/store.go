package tracing

import (
	"encoding/binary"
	"sort"
	"sync/atomic"
	"time"

	"ecavs/internal/rng"
)

// Verdict values: why a fragment was kept.
const (
	// VerdictError — a span carried a non-success status (error, shed,
	// fast_fail, cancelled); always kept when Sampler.KeepErrors is set.
	VerdictError = "error"
	// VerdictLatency — the fragment's root ran at least
	// Sampler.LatencyThreshold.
	VerdictLatency = "latency"
	// VerdictRatio — the trace ID hashed into the probabilistic slice.
	VerdictRatio = "ratio"
)

// Sampler is the tail-sampling policy: the keep/drop decision runs
// when a fragment completes, with the whole fragment in hand — which
// is what lets it always keep failures and the slow tail while
// sampling the boring bulk down to Ratio.
//
// The Ratio decision hashes the trace ID, not a dice roll: every
// fragment of one trace — client and server, either side of a process
// boundary — reaches the same verdict without coordination, so a
// ratio-sampled trace is always complete.
type Sampler struct {
	// KeepErrors keeps every fragment containing a span with a
	// non-empty status.
	KeepErrors bool
	// LatencyThreshold keeps fragments whose root span ran at least
	// this long (0 disables the latency slice).
	LatencyThreshold time.Duration
	// Ratio keeps this fraction of the remaining traces, selected by
	// trace-ID hash: 0 keeps none, 1 keeps all.
	Ratio float64
}

// DefaultSampler keeps failures, the ≥250 ms tail, and 1% of the rest.
func DefaultSampler() Sampler {
	return Sampler{KeepErrors: true, LatencyThreshold: 250 * time.Millisecond, Ratio: 0.01}
}

// ratioKeep is the deterministic trace-ID-ratio decision.
func (sm Sampler) ratioKeep(id TraceID) bool {
	if sm.Ratio >= 1 {
		return true
	}
	if sm.Ratio <= 0 {
		return false
	}
	return rng.Unit(rng.Mix(binary.BigEndian.Uint64(id[8:]))) < sm.Ratio
}

// verdict returns why the fragment should be kept, or "" to drop it.
func (sm Sampler) verdict(tr *Trace) string {
	if sm.KeepErrors {
		for _, sp := range tr.Spans {
			if sp.Status != "" {
				return VerdictError
			}
		}
	}
	if sm.LatencyThreshold > 0 && tr.Root.Duration >= sm.LatencyThreshold {
		return VerdictLatency
	}
	if sm.ratioKeep(tr.TraceID) {
		return VerdictRatio
	}
	return ""
}

// Trace is one completed, immutable fragment: the spans one process
// recorded under one local root. Fragments sharing a TraceID — from
// other processes, or the other half of this one — are merged at read
// time by Views.
type Trace struct {
	Service string
	TraceID TraceID
	Verdict string
	Root    *Span
	Spans   []*Span
	End     time.Time
}

// StoreStats counts the store's sampling outcomes.
type StoreStats struct {
	// Seen counts completed fragments offered to the sampler.
	Seen int64
	// Kept counts fragments retained (KeptError+KeptLatency+KeptRatio).
	Kept int64
	// KeptError, KeptLatency, KeptRatio break Kept down by verdict.
	KeptError   int64
	KeptLatency int64
	KeptRatio   int64
	// Dropped counts fragments the sampler discarded.
	Dropped int64
}

// Store holds the most recent kept fragments in a lock-free ring:
// writers claim a slot with one atomic increment and publish with one
// atomic pointer store, so tracing's completion path never serialises
// concurrent requests on a lock. Readers snapshot slot by slot; a
// snapshot taken mid-write is approximate across slots but never sees
// a torn fragment.
//
// Construct with NewStore; the zero value is unusable.
type Store struct {
	slots []atomic.Pointer[Trace]
	next  atomic.Uint64
	// lost is the overwritten fragment that ended last (nil until the
	// ring first wraps); Views reads its End as the eviction horizon.
	lost atomic.Pointer[Trace]

	seen, dropped                   atomic.Int64
	keptErr, keptLatency, keptRatio atomic.Int64
}

// NewStore returns a ring holding the most recent `capacity` kept
// fragments (minimum 1).
func NewStore(capacity int) *Store {
	if capacity < 1 {
		capacity = 1
	}
	return &Store{slots: make([]atomic.Pointer[Trace], capacity)}
}

// offer runs the sampler on a completed fragment and, if kept, stamps
// its verdict and publishes it.
func (s *Store) offer(tr *Trace, sm Sampler) {
	s.seen.Add(1)
	v := sm.verdict(tr)
	if v == "" {
		s.dropped.Add(1)
		return
	}
	tr.Verdict = v
	switch v {
	case VerdictError:
		s.keptErr.Add(1)
	case VerdictLatency:
		s.keptLatency.Add(1)
	default:
		s.keptRatio.Add(1)
	}
	i := s.next.Add(1) - 1
	if old := s.slots[i%uint64(len(s.slots))].Swap(tr); old != nil {
		s.noteLost(old)
	}
}

// noteLost advances the eviction horizon to an overwritten fragment
// that ended later than every fragment overwritten before it.
func (s *Store) noteLost(tr *Trace) {
	for {
		cur := s.lost.Load()
		if cur != nil && !tr.End.After(cur.End) {
			return
		}
		if s.lost.CompareAndSwap(cur, tr) {
			return
		}
	}
}

// Stats reads the sampling counters.
func (s *Store) Stats() StoreStats {
	st := StoreStats{
		Seen:        s.seen.Load(),
		KeptError:   s.keptErr.Load(),
		KeptLatency: s.keptLatency.Load(),
		KeptRatio:   s.keptRatio.Load(),
		Dropped:     s.dropped.Load(),
	}
	st.Kept = st.KeptError + st.KeptLatency + st.KeptRatio
	return st
}

// Len reports how many fragments are currently held.
func (s *Store) Len() int {
	n := 0
	for i := range s.slots {
		if s.slots[i].Load() != nil {
			n++
		}
	}
	return n
}

// Fragments snapshots the held fragments, newest-first.
func (s *Store) Fragments() []*Trace {
	out := make([]*Trace, 0, len(s.slots))
	n := s.next.Load()
	cap64 := uint64(len(s.slots))
	limit := n
	if limit > cap64 {
		limit = cap64
	}
	// Walk backwards from the most recently claimed slot.
	for k := uint64(0); k < limit; k++ {
		if tr := s.slots[(n-1-k)%cap64].Load(); tr != nil {
			out = append(out, tr)
		}
	}
	return out
}

// SpanView is one span flattened for display: service-tagged, with its
// offset from the merged trace's start.
type SpanView struct {
	Service    string  `json:"service"`
	Name       string  `json:"name"`
	SpanID     string  `json:"span_id"`
	ParentID   string  `json:"parent_id,omitempty"`
	Start      string  `json:"start"`
	OffsetMs   float64 `json:"offset_ms"`
	DurationMs float64 `json:"duration_ms"`
	Status     string  `json:"status,omitempty"`
	Note       string  `json:"note,omitempty"`
	Attrs      []Attr  `json:"attrs,omitempty"`
}

// TraceView is one distributed trace assembled from every fragment in
// the store that shares its trace ID, spans sorted by start time.
type TraceView struct {
	TraceID    string     `json:"trace_id"`
	Services   []string   `json:"services"`
	Root       string     `json:"root"`
	Start      string     `json:"start"`
	DurationMs float64    `json:"duration_ms"`
	Error      bool       `json:"error"`
	Verdicts   []string   `json:"verdicts"`
	SpanCount  int        `json:"span_count"`
	Spans      []SpanView `json:"spans,omitempty"`
}

// Views assembles the held fragments into merged traces, newest-first
// by most recent fragment. Cross-process traces — a client fragment
// plus the server fragments its requests produced — appear once, with
// every side's spans on one timeline.
//
// A trace that may have lost a fragment to the ring is left out rather
// than shown as a smaller whole. The fragments of one trace nest in
// time, so an overwritten fragment can belong only to a trace whose
// earliest span started at or before that fragment's End; Views omits
// every trace that started at or before the latest End among
// overwritten fragments.
func (s *Store) Views() []TraceView {
	frags := s.Fragments()
	// Read after the snapshot, so the horizon covers every eviction
	// that could have taken a fragment the snapshot lacks.
	var horizon time.Time
	if lost := s.lost.Load(); lost != nil {
		horizon = lost.End
	}
	order := make([]TraceID, 0, len(frags))
	byID := make(map[TraceID][]*Trace, len(frags))
	for _, f := range frags {
		if _, ok := byID[f.TraceID]; !ok {
			order = append(order, f.TraceID)
		}
		byID[f.TraceID] = append(byID[f.TraceID], f)
	}
	out := make([]TraceView, 0, len(order))
	for _, id := range order {
		if group := byID[id]; horizon.IsZero() || earliestStart(group).After(horizon) {
			out = append(out, assemble(id, group))
		}
	}
	return out
}

// earliestStart is the start of the earliest span across fragments.
func earliestStart(group []*Trace) time.Time {
	first := group[0].Root.Start
	for _, f := range group {
		for _, sp := range f.Spans {
			if sp.Start.Before(first) {
				first = sp.Start
			}
		}
	}
	return first
}

// View assembles the single merged trace with the given ID, if any
// fragment of it is held.
func (s *Store) View(id TraceID) (TraceView, bool) {
	var group []*Trace
	for _, f := range s.Fragments() {
		if f.TraceID == id {
			group = append(group, f)
		}
	}
	if len(group) == 0 {
		return TraceView{}, false
	}
	return assemble(id, group), true
}

// assemble flattens one trace's fragments onto a shared timeline. The
// trace's root is the span with no in-trace parent (the true root, or
// the earliest fragment root when the true root's fragment was
// evicted); offsets are measured from the earliest span.
func assemble(id TraceID, group []*Trace) TraceView {
	v := TraceView{TraceID: id.String()}
	var spans []*Span
	svcOf := make(map[*Span]string)
	ids := make(map[SpanID]bool)
	seenSvc := make(map[string]bool)
	verdicts := make(map[string]bool)
	for _, f := range group {
		if !seenSvc[f.Service] {
			seenSvc[f.Service] = true
			v.Services = append(v.Services, f.Service)
		}
		if !verdicts[f.Verdict] {
			verdicts[f.Verdict] = true
			v.Verdicts = append(v.Verdicts, f.Verdict)
		}
		for _, sp := range f.Spans {
			spans = append(spans, sp)
			svcOf[sp] = f.Service
			ids[sp.ID] = true
		}
	}
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	sort.Strings(v.Services)
	sort.Strings(v.Verdicts)
	start := spans[0].Start
	var end time.Time
	for _, sp := range spans {
		if sp.Status != "" {
			v.Error = true
		}
		if e := sp.Start.Add(sp.Duration); e.After(end) {
			end = e
		}
		if v.Root == "" && (sp.Parent.IsZero() || !ids[sp.Parent]) {
			v.Root = sp.Name
		}
	}
	v.Start = start.UTC().Format(time.RFC3339Nano)
	v.DurationMs = float64(end.Sub(start)) / float64(time.Millisecond)
	v.SpanCount = len(spans)
	v.Spans = make([]SpanView, len(spans))
	for i, sp := range spans {
		sv := SpanView{
			Service:    svcOf[sp],
			Name:       sp.Name,
			SpanID:     sp.ID.String(),
			Start:      sp.Start.UTC().Format(time.RFC3339Nano),
			OffsetMs:   float64(sp.Start.Sub(start)) / float64(time.Millisecond),
			DurationMs: float64(sp.Duration) / float64(time.Millisecond),
			Status:     sp.Status,
			Note:       sp.Note,
			Attrs:      sp.Attrs,
		}
		if !sp.Parent.IsZero() {
			sv.ParentID = sp.Parent.String()
		}
		v.Spans[i] = sv
	}
	return v
}
