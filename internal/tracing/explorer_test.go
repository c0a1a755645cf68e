package tracing

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
)

func seededExplorer(t *testing.T) (*Explorer, *Store, TraceID) {
	t.Helper()
	store := NewStore(16)
	tr := testTracer("client", store)
	var last TraceID
	for i := 0; i < 3; i++ {
		sp := tr.StartRoot("fetch")
		sp.SetAttrInt("segment", int64(i))
		if i == 1 {
			att := sp.StartChild("attempt")
			att.SetStatus("error", "injected 503")
			att.End()
		}
		last = sp.traceID()
		sp.End()
	}
	return NewExplorer(store), store, last
}

func TestExplorerList(t *testing.T) {
	ex, _, _ := seededExplorer(t)
	rec := httptest.NewRecorder()
	ex.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var resp struct {
		Stats  StoreStats  `json:"stats"`
		Held   int         `json:"held_fragments"`
		Traces []TraceView `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if resp.Stats.Seen != 3 || resp.Held != 3 || len(resp.Traces) != 3 {
		t.Fatalf("list = seen %d, held %d, %d traces; want 3/3/3", resp.Stats.Seen, resp.Held, len(resp.Traces))
	}
	if resp.Traces[0].Spans != nil {
		t.Fatal("list inlined spans without ?spans=1")
	}

	// limit + spans query parameters.
	rec = httptest.NewRecorder()
	ex.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?limit=1&spans=1", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(resp.Traces) != 1 || len(resp.Traces[0].Spans) == 0 {
		t.Fatalf("limit=1&spans=1 gave %d traces, spans %v", len(resp.Traces), resp.Traces[0].Spans)
	}
}

func TestExplorerDetail(t *testing.T) {
	ex, _, id := seededExplorer(t)
	rec := httptest.NewRecorder()
	ex.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces/"+id.String(), nil))
	if rec.Code != 200 {
		t.Fatalf("status %d for known trace", rec.Code)
	}
	var v TraceView
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if v.TraceID != id.String() || len(v.Spans) == 0 {
		t.Fatalf("detail = %q with %d spans", v.TraceID, len(v.Spans))
	}

	rec = httptest.NewRecorder()
	ex.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces/"+strings.Repeat("ab", 16), nil))
	if rec.Code != 404 {
		t.Fatalf("status %d for unknown trace, want 404", rec.Code)
	}
	rec = httptest.NewRecorder()
	ex.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces/nothex", nil))
	if rec.Code != 400 {
		t.Fatalf("status %d for malformed id, want 400", rec.Code)
	}
}

func TestExplorerNDJSON(t *testing.T) {
	ex, _, _ := seededExplorer(t)
	rec := httptest.NewRecorder()
	ex.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces.ndjson", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d NDJSON lines, want 3", len(lines))
	}
	for i, ln := range lines {
		var v TraceView
		if err := json.Unmarshal([]byte(ln), &v); err != nil {
			t.Fatalf("line %d not JSON: %v", i, err)
		}
		if len(v.Spans) == 0 {
			t.Fatalf("line %d has no spans — NDJSON export must be complete", i)
		}
	}
}

func TestExplorerNil(t *testing.T) {
	var ex *Explorer
	rec := httptest.NewRecorder()
	ex.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if rec.Code != 404 {
		t.Fatalf("nil explorer status %d, want 404", rec.Code)
	}
	if NewExplorer(nil) != nil {
		t.Fatal("NewExplorer(nil) should be nil")
	}
}
