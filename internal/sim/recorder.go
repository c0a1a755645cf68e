package sim

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
)

// DecisionEvent is one ABR decision snapshot: why the policy picked a
// rung at a segment boundary. Together the events answer the
// post-mortem question "what did the algorithm see when it chose
// that?" without replaying the session.
type DecisionEvent struct {
	// Segment is the segment index the decision was made for.
	Segment int `json:"segment"`
	// Rung is the ladder rung the algorithm chose.
	Rung int `json:"rung"`
	// BitrateMbps is the chosen rung's bitrate.
	BitrateMbps float64 `json:"bitrate_mbps"`
	// BufferSec is the playback buffer level at decision time.
	BufferSec float64 `json:"buffer_sec"`
	// SignalDBm is the radio signal strength at decision time.
	SignalDBm float64 `json:"signal_dbm"`
	// Vibration is the sensed Eq. 5 vibration level.
	Vibration float64 `json:"vibration"`
	// PowerW is the instantaneous draw implied by the choice: decode
	// power at the chosen bitrate plus radio power at the current
	// signal.
	PowerW float64 `json:"power_w"`
	// QoE is the segment's realized Eq. 1 quality score.
	QoE float64 `json:"qoe"`
}

// DecisionRecorder is a sampled ring buffer of decision events. A
// session (or many sessions sharing one recorder) offers every
// decision; the recorder keeps every SampleEvery-th one, overwriting
// the oldest once Capacity is reached — bounded memory no matter how
// long the campaign runs. All methods are safe for concurrent use and
// no-ops on a nil receiver, so the simulator's hot path carries only a
// nil check when tracing is off.
type DecisionRecorder struct {
	mu      sync.Mutex
	ring    []DecisionEvent
	next    int  // ring slot the next kept event lands in
	wrapped bool // the ring has lapped at least once
	seen    int64
	every   int64
}

// NewDecisionRecorder returns a recorder keeping the most recent
// `capacity` sampled events, recording every sampleEvery-th decision
// (values below 1 mean every decision).
func NewDecisionRecorder(capacity, sampleEvery int) (*DecisionRecorder, error) {
	if capacity < 1 {
		return nil, errors.New("sim: recorder capacity must be at least 1")
	}
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	return &DecisionRecorder{
		ring:  make([]DecisionEvent, capacity),
		every: int64(sampleEvery),
	}, nil
}

// Record offers one event; the recorder keeps it if the sampling
// stride selects it.
func (r *DecisionRecorder) Record(ev DecisionEvent) {
	if r == nil {
		return
	}
	r.mu.Lock()
	keep := r.seen%r.every == 0
	r.seen++
	if keep {
		r.ring[r.next] = ev
		r.next++
		if r.next == len(r.ring) {
			r.next = 0
			r.wrapped = true
		}
	}
	r.mu.Unlock()
}

// Len reports how many events are currently held.
func (r *DecisionRecorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.wrapped {
		return len(r.ring)
	}
	return r.next
}

// Events returns the held events oldest-first.
func (r *DecisionRecorder) Events() []DecisionEvent {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]DecisionEvent, 0, len(r.ring))
	if r.wrapped {
		out = append(out, r.ring[r.next:]...)
	}
	return append(out, r.ring[:r.next]...)
}

// WriteNDJSON emits the held events oldest-first as newline-delimited
// JSON — one decision per line, the format offline analysis tooling
// (jq, a dataframe loader) ingests directly. A write failure surfaces
// immediately, wrapped with the segment whose line was lost, so a full
// disk or closed pipe aborts the export instead of silently truncating
// the trace.
func (r *DecisionRecorder) WriteNDJSON(w io.Writer) error {
	if r == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	for _, ev := range r.Events() {
		if err := enc.Encode(ev); err != nil {
			return fmt.Errorf("sim: write decision trace at segment %d: %w", ev.Segment, err)
		}
	}
	return nil
}
