package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one interval the benchmark timed around a call into a layer
// of the program. Spans of one op share Op; Parent names the span that
// caused this one (0 for an op's root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Key    string `json:"key,omitempty"` // segment key, where a request has one
	Start  int64  `json:"start_ns"`      // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps a traced run's spans in memory until the run ends.
// It is the benchmark's own instrument, independent of the program's
// tracing package, so changes to that package cannot move it. A nil
// recorder is an untraced run: every method is a no-op.
type recorder struct {
	epoch time.Time
	ids   atomic.Int64

	mu      sync.Mutex
	spans   []span
	limit   int
	dropped int64
}

func newRecorder(limit int) *recorder {
	return &recorder{epoch: time.Now(), limit: limit}
}

// now is the recorder clock: nanoseconds since its epoch.
func (r *recorder) now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.epoch))
}

// newID reserves a span ID, so children can name a parent that has not
// ended yet.
func (r *recorder) newID() int64 {
	if r == nil {
		return 0
	}
	return r.ids.Add(1)
}

// add stores a finished span, assigning an ID when it has none. Past
// the limit spans are counted as dropped instead of kept.
func (r *recorder) add(s span) int64 {
	if r == nil {
		return 0
	}
	if s.ID == 0 {
		s.ID = r.newID()
	}
	r.mu.Lock()
	if len(r.spans) < r.limit {
		r.spans = append(r.spans, s)
	} else {
		r.dropped++
	}
	r.mu.Unlock()
	return s.ID
}

// addAt stores a finished span timed with wall-clock readings.
func (r *recorder) addAt(name string, op, parent int64, start, end time.Time) int64 {
	if r == nil {
		return 0
	}
	return r.add(span{Op: op, Parent: parent, Name: name, Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch))})
}

// reset forgets every span recorded so far (set-up's, before the
// measured ops start).
func (r *recorder) reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = r.spans[:0]
	r.dropped = 0
	r.mu.Unlock()
}

// snapshot returns the recorded spans and the count dropped.
func (r *recorder) snapshot() ([]span, int64) {
	if r == nil {
		return nil, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...), r.dropped
}

// named returns the durations in milliseconds of every span called name.
func named(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e6)
		}
	}
	return out
}

// layerTime is one layer's share of a traced run: how many spans it
// had, their summed duration, and their self time — duration minus the
// part of it that child spans cover.
type layerTime struct {
	Name    string `json:"name"`
	Count   int    `json:"count"`
	TotalNs int64  `json:"total_ns"`
	SelfNs  int64  `json:"self_ns"`
}

// selfTimes derives each layer's self time from the span tree.
// Children that overlap each other (concurrent work under one parent)
// are merged first, so overlapping intervals are subtracted once.
func selfTimes(spans []span) []layerTime {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	agg := make(map[string]*layerTime)
	for _, s := range spans {
		lt := agg[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			agg[s.Name] = lt
		}
		lt.Count++
		lt.TotalNs += s.dur()
		lt.SelfNs += s.dur() - covered(s, kids[s.ID])
	}
	out := make([]layerTime, 0, len(agg))
	for _, lt := range agg {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, children []span) int64 {
	if len(children) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	started := false
	for _, v := range iv {
		switch {
		case !started:
			curLo, curHi, started = v[0], v[1], true
		case v[0] <= curHi:
			curHi = max(curHi, v[1])
		default:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		}
	}
	if started {
		total += curHi - curLo
	}
	return total
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
