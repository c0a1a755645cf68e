package httpdash

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"ecavs/internal/faults"
)

// errInjectedReset is the transport error surfaced by Reset verdicts on
// the client side (http.Client wraps it in *url.Error; unwrap with
// errors.Is).
var errInjectedReset = errors.New("faults: injected connection reset")

// faultRoundTripper injects a plan's verdicts on the client side of the
// HTTP exchange, so the chaos tests can fault one request without
// touching the server; Server's WithFaults injects at the origin.
//
// Error5xx verdicts synthesize the response locally (the request never
// reaches the wire); Reset returns errInjectedReset; Stall and Latency
// sleep before forwarding, honouring the request context; Truncate
// forwards the request and clips the response body while preserving
// the advertised Content-Length. Requests go out through
// http.DefaultTransport.
type faultRoundTripper struct {
	plan *faults.Plan
	// filter, when non-nil, limits injection to requests it accepts;
	// everything else passes straight through without consuming a
	// verdict.
	filter func(*http.Request) bool
}

// RoundTrip implements http.RoundTripper.
func (rt *faultRoundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	base := http.DefaultTransport
	if rt.filter != nil && !rt.filter(req) {
		return base.RoundTrip(req)
	}
	v := rt.plan.Verdict(req.URL.Path)
	switch v.Kind {
	case faults.Error5xx:
		body := fmt.Sprintf("injected %d", v.Status)
		return &http.Response{
			StatusCode:    v.Status,
			Status:        fmt.Sprintf("%d %s", v.Status, http.StatusText(v.Status)),
			Proto:         "HTTP/1.1",
			ProtoMajor:    1,
			ProtoMinor:    1,
			Header:        http.Header{"Content-Type": []string{"text/plain"}},
			Body:          io.NopCloser(strings.NewReader(body)),
			ContentLength: int64(len(body)),
			Request:       req,
		}, nil
	case faults.Reset:
		return nil, errInjectedReset
	case faults.Stall, faults.Latency:
		d := v.Latency
		if v.Kind == faults.Stall {
			d = v.Stall
		}
		if err := sleepCtx(req, d); err != nil {
			return nil, err
		}
		return base.RoundTrip(req)
	case faults.Truncate:
		resp, err := base.RoundTrip(req)
		if err != nil || resp.ContentLength <= 0 {
			return resp, err
		}
		keep := int64(float64(resp.ContentLength) * v.TruncateFrac)
		if keep < 1 {
			keep = 1
		}
		resp.Body = &truncatedBody{r: io.LimitReader(resp.Body, keep), c: resp.Body}
		return resp, nil
	}
	return base.RoundTrip(req)
}

// truncatedBody reads a clipped prefix of the real body while closing
// the full underlying stream.
type truncatedBody struct {
	r io.Reader
	c io.Closer
}

func (t *truncatedBody) Read(p []byte) (int, error) { return t.r.Read(p) }
func (t *truncatedBody) Close() error               { return t.c.Close() }

// sleepCtx sleeps for d or until the request context is done.
func sleepCtx(req *http.Request, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-req.Context().Done():
		return req.Context().Err()
	case <-timer.C:
		return nil
	}
}

// newBodyServer serves body, with its Content-Length, at every path.
func newBodyServer(t *testing.T, body string) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		_, _ = io.WriteString(w, body)
	}))
	t.Cleanup(ts.Close)
	return ts
}

func TestChaosRoundTripper5xxAndReset(t *testing.T) {
	ts := newBodyServer(t, "payload")
	client := &http.Client{Transport: &faultRoundTripper{
		plan: faults.NewScript([]faults.Verdict{{Kind: faults.Error5xx, Status: 503}, {Kind: faults.Reset}}),
	}}
	resp, err := client.Get(ts.URL + "/x")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Errorf("status = %d, want 503", resp.StatusCode)
	}
	if _, err := client.Get(ts.URL + "/x"); !errors.Is(err, errInjectedReset) {
		t.Errorf("reset verdict error = %v, want errInjectedReset", err)
	}
	// Script exhausted: clean pass-through.
	resp, err = client.Get(ts.URL + "/x")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if string(b) != "payload" {
		t.Errorf("clean body = %q", b)
	}
}

func TestChaosRoundTripperTruncatePreservesContentLength(t *testing.T) {
	ts := newBodyServer(t, "0123456789")
	client := &http.Client{Transport: &faultRoundTripper{
		plan: faults.NewScript([]faults.Verdict{{Kind: faults.Truncate, TruncateFrac: 0.5}}),
	}}
	resp, err := client.Get(ts.URL + "/x")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.ContentLength != 10 {
		t.Errorf("ContentLength = %d, want 10 (advertised full size)", resp.ContentLength)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("truncated read should end in clean EOF, got %v", err)
	}
	if len(b) != 5 {
		t.Errorf("delivered %d bytes, want 5", len(b))
	}
}

func TestChaosRoundTripperStallHonoursContext(t *testing.T) {
	ts := newBodyServer(t, "payload")
	client := &http.Client{Transport: &faultRoundTripper{
		plan: faults.NewScript([]faults.Verdict{{Kind: faults.Stall, Stall: 10 * time.Second}}),
	}}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/x", nil)
	start := time.Now()
	_, err := client.Do(req)
	if err == nil {
		t.Fatal("stalled request succeeded")
	}
	if time.Since(start) > 5*time.Second {
		t.Error("stall ignored the request deadline")
	}
}

func TestChaosRoundTripperFilterSkipsWithoutConsuming(t *testing.T) {
	ts := newBodyServer(t, "payload")
	plan := faults.NewScript([]faults.Verdict{{Kind: faults.Error5xx, Status: 500}})
	client := &http.Client{Transport: &faultRoundTripper{
		plan:   plan,
		filter: func(r *http.Request) bool { return r.URL.Path != "/manifest.mpd" },
	}}
	resp, err := client.Get(ts.URL + "/manifest.mpd")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("filtered request got %d", resp.StatusCode)
	}
	if plan.Stats().Requests != 0 {
		t.Error("filtered request consumed a verdict")
	}
	resp, err = client.Get(ts.URL + "/seg/x")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 500 {
		t.Errorf("unfiltered request got %d, want injected 500", resp.StatusCode)
	}
}
