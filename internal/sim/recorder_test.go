package sim

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ecavs/internal/abr"
)

func TestRecorderRingAndSampling(t *testing.T) {
	r, err := NewDecisionRecorder(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		r.Record(DecisionEvent{Segment: i})
	}
	if r.seen != 10 || r.Len() != 4 {
		t.Errorf("seen %d len %d, want 10 and 4", r.seen, r.Len())
	}
	evs := r.Events()
	for i, ev := range evs {
		if want := 6 + i; ev.Segment != want {
			t.Errorf("event %d is segment %d, want %d (oldest-first after wrap)", i, ev.Segment, want)
		}
	}

	sampled, err := NewDecisionRecorder(100, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		sampled.Record(DecisionEvent{Segment: i})
	}
	want := []int{0, 3, 6, 9}
	got := sampled.Events()
	if len(got) != len(want) {
		t.Fatalf("sampled %d events, want %d", len(got), len(want))
	}
	for i, ev := range got {
		if ev.Segment != want[i] {
			t.Errorf("sampled event %d is segment %d, want %d", i, ev.Segment, want[i])
		}
	}
}

func TestRecorderValidation(t *testing.T) {
	if _, err := NewDecisionRecorder(0, 1); err == nil {
		t.Error("capacity 0 accepted")
	}
	if r, err := NewDecisionRecorder(1, -5); err != nil || r.every != 1 {
		t.Errorf("sampleEvery below 1 not clamped: %v, %+v", err, r)
	}
}

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *DecisionRecorder
	r.Record(DecisionEvent{})
	if r.Len() != 0 || r.Events() != nil {
		t.Error("nil recorder reported state")
	}
	if err := r.WriteNDJSON(&strings.Builder{}); err != nil {
		t.Errorf("nil recorder NDJSON: %v", err)
	}
}

// failAfterWriter accepts n writes, then fails every subsequent one —
// a full disk or closed pipe mid-export.
type failAfterWriter struct {
	n   int
	err error
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, w.err
	}
	w.n--
	return len(p), nil
}

// TestNDJSONWriteFailure pins the export error contract: a failing
// writer aborts WriteNDJSON immediately with a wrapped error that
// names the package, keeps the cause inspectable with errors.Is, and
// identifies the segment whose line was lost.
func TestNDJSONWriteFailure(t *testing.T) {
	rec, err := NewDecisionRecorder(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		rec.Record(DecisionEvent{Segment: i})
	}

	cause := errors.New("disk full")
	for _, failAt := range []int{0, 2} {
		werr := rec.WriteNDJSON(&failAfterWriter{n: failAt, err: cause})
		if werr == nil {
			t.Fatalf("writer failing at line %d: WriteNDJSON returned nil", failAt)
		}
		if !errors.Is(werr, cause) {
			t.Errorf("cause not wrapped: %v", werr)
		}
		if !strings.Contains(werr.Error(), "sim: write decision trace") {
			t.Errorf("error lacks package context: %v", werr)
		}
		if want := fmt.Sprintf("segment %d", failAt); !strings.Contains(werr.Error(), want) {
			t.Errorf("error %v does not identify %s", werr, want)
		}
	}
}

// TestSessionDecisionTrace replays a session with the recorder
// attached and checks that the trace mirrors the segment log: one
// event per fetched segment carrying the same rung, vibration, and QoE
// the simulator recorded.
func TestSessionDecisionTrace(t *testing.T) {
	rec, err := NewDecisionRecorder(1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	link := &fixedLink{signal: -95, rate: 1.5}
	cfg := baseConfig(t, abr.NewFESTIVE(), link)
	cfg.VibrationAt = func(tSec float64) float64 { return 2 + float64(int(tSec)%3) }
	cfg.Recorder = rec
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	evs := rec.Events()
	if len(evs) != len(m.Segments) {
		t.Fatalf("%d trace events for %d segments", len(evs), len(m.Segments))
	}
	for i, ev := range evs {
		log := m.Segments[i]
		if ev.Segment != log.Index || ev.Rung != log.Rung ||
			ev.BitrateMbps != log.BitrateMbps || ev.Vibration != log.Vibration ||
			ev.QoE != log.QoE {
			t.Errorf("event %d diverges from segment log:\nevent = %+v\nlog   = %+v", i, ev, log)
		}
		if ev.PowerW <= 0 {
			t.Errorf("event %d has non-positive power draw %v", i, ev.PowerW)
		}
	}
}

// TestRecorderDoesNotPerturbMetrics pins the observability contract:
// attaching a recorder must leave every session metric bit-identical.
func TestRecorderDoesNotPerturbMetrics(t *testing.T) {
	run := func(rec *DecisionRecorder) *Metrics {
		link := &fixedLink{signal: -95, rate: 1.5}
		cfg := baseConfig(t, abr.NewFESTIVE(), link)
		cfg.MetricsOnly = true
		cfg.Recorder = rec
		m, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	rec, err := NewDecisionRecorder(64, 2)
	if err != nil {
		t.Fatal(err)
	}
	plain, traced := run(nil), run(rec)
	if !reflect.DeepEqual(plain, traced) {
		t.Errorf("recorder changed session metrics:\nplain  = %+v\ntraced = %+v", plain, traced)
	}
	if rec.Len() == 0 {
		t.Error("recorder captured nothing")
	}
}

// TestNDJSONOutput checks the offline-analysis format: one JSON object
// per line, schema fields present, order oldest-first.
func TestNDJSONOutput(t *testing.T) {
	rec, err := NewDecisionRecorder(16, 1)
	if err != nil {
		t.Fatal(err)
	}
	link := &fixedLink{signal: -95, rate: 1.5}
	cfg := baseConfig(t, abr.NewFESTIVE(), link)
	cfg.Recorder = rec
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := rec.WriteNDJSON(&sb); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(strings.NewReader(sb.String()))
	lines := 0
	prevSegment := -1
	for sc.Scan() {
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d is not JSON: %v", lines+1, err)
		}
		for _, key := range []string{"segment", "rung", "bitrate_mbps", "buffer_sec", "signal_dbm", "vibration", "power_w", "qoe"} {
			if _, ok := ev[key]; !ok {
				t.Errorf("line %d missing %q", lines+1, key)
			}
		}
		seg := int(ev["segment"].(float64))
		if seg <= prevSegment {
			t.Errorf("line %d out of order: segment %d after %d", lines+1, seg, prevSegment)
		}
		prevSegment = seg
		lines++
	}
	if lines != rec.Len() {
		t.Errorf("NDJSON emitted %d lines for %d held events", lines, rec.Len())
	}
	if lines == 0 {
		t.Error("no trace lines emitted")
	}
}
