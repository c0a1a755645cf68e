package httpdash

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ecavs/internal/abr"
	"ecavs/internal/dash"
	"ecavs/internal/faults"
)

func testManifest(t *testing.T, durationSec float64) *dash.Manifest {
	t.Helper()
	video := dash.Video{Title: "http-test", SpatialInfo: 45, TemporalInfo: 15, DurationSec: durationSec}
	m, err := dash.NewManifest(video, dash.TableIILadder(), dash.ManifestConfig{SegmentSec: 2, VBRJitter: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func newTestServer(t *testing.T, durationSec float64, opts ...ServerOption) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := NewServer(testManifest(t, durationSec), opts...)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

// segmentURL renders the media URL for (rung, segment) through the
// package's SegmentURL; a trailing slash on base is ignored.
func (s *Server) segmentURL(base string, rung, segment int) (string, error) {
	if rung < 0 || rung >= len(s.repIDs) {
		return "", fmt.Errorf("httpdash: rung %d out of range", rung)
	}
	return SegmentURL(strings.TrimSuffix(base, "/"), s.repIDs[rung], segment), nil
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer(nil); err == nil {
		t.Error("nil manifest accepted")
	}
}

func TestServerManifestEndpoint(t *testing.T) {
	_, ts := newTestServer(t, 20)
	resp, err := http.Get(ts.URL + "/manifest.mpd")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/dash+xml" {
		t.Errorf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "urn:mpeg:dash:schema:mpd:2011") {
		t.Error("manifest body does not look like an MPD")
	}
	// It parses back into usable info.
	info, a, err := GetManifest(context.Background(), http.DefaultClient, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if info.SegmentCount != 10 || len(info.Ladder) != 6 || len(info.RepIDs) != 6 {
		t.Errorf("info = %+v", info)
	}
	if a.Bytes != int64(len(body)) {
		t.Errorf("GetManifest read %d bytes, the endpoint served %d", a.Bytes, len(body))
	}
}

func TestServerSegmentEndpoint(t *testing.T) {
	srv, ts := newTestServer(t, 20)
	url, err := srv.segmentURL(ts.URL, 3, 0) // 1.5 Mbps rung
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %s", resp.Status)
	}
	n, err := io.Copy(io.Discard, resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	man := testManifest(t, 20)
	wantMB, err := man.SegmentSizeMB(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := float64(n) / 1e6; got < wantMB*0.99 || got > wantMB*1.01 {
		t.Errorf("segment bytes = %.3f MB, want ≈ %.3f MB", got, wantMB)
	}
	waitIdle(t, srv)
	if got := srv.Snapshot().Bytes; got != n {
		t.Errorf("Snapshot().Bytes = %d, want %d", got, n)
	}
}

func TestServerErrorPaths(t *testing.T) {
	srv, ts := newTestServer(t, 20)
	cases := []struct {
		path string
		want int
	}{
		{path: "/nope", want: http.StatusNotFound},
		{path: "/seg/bogus-rep/0.m4s", want: http.StatusNotFound},
		{path: "/seg/v0-144p/999.m4s", want: http.StatusNotFound},
		{path: "/seg/v0-144p/abc.m4s", want: http.StatusBadRequest},
		{path: "/seg/v0-144p/0.mp4", want: http.StatusBadRequest},
		{path: "/seg/onlyonepart", want: http.StatusBadRequest},
		// One URL per segment: no other spelling of its number.
		{path: "/seg/v0-144p/03.m4s", want: http.StatusBadRequest},
		{path: "/seg/v0-144p/+3.m4s", want: http.StatusBadRequest},
		{path: "/seg/v0-144p/-1.m4s", want: http.StatusBadRequest},
		{path: "/seg/v0-144p/.m4s", want: http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, err := http.Get(ts.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("GET %s = %d, want %d", tc.path, resp.StatusCode, tc.want)
		}
	}
	// Non-GET rejected.
	resp, err := http.Post(ts.URL+"/manifest.mpd", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST = %d, want 405", resp.StatusCode)
	}
	if _, err := srv.segmentURL(ts.URL, 99, 0); err == nil {
		t.Error("out-of-range rung accepted")
	}
}

// FuzzSegmentPath feeds arbitrary request paths to the server's
// segment-path parse. It never panics, and every path it accepts is
// exactly the one SegmentURL renders for the parsed representation and
// number: one URL per segment.
func FuzzSegmentPath(f *testing.F) {
	for _, p := range []string{
		"/seg/v0-144p/3.m4s", "/seg/v0-144p/0.m4s", "/seg/v0-144p/03.m4s", "/seg/v0-144p/+3.m4s",
		"/seg/v0-144p/-1.m4s", "/seg/v0-144p/.m4s", "/seg/a/b/3.m4s", "/seg//3.m4s",
		"/seg/v0/99999999999999999999.m4s", "/seg/v0/3.mp4", "/manifest.mpd", "",
	} {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, path string) {
		repID, n, ok := parseSegmentPath(path)
		if !ok {
			return
		}
		if got := SegmentURL("", repID, n); got != path {
			t.Fatalf("parseSegmentPath(%q) = (%q, %d), which renders as %q", path, repID, n, got)
		}
	})
}

func TestNewClientValidation(t *testing.T) {
	if _, err := NewClient("", abr.NewYoutube()); err == nil {
		t.Error("empty URL accepted")
	}
	if _, err := NewClient("http://x", nil); err == nil {
		t.Error("nil algorithm accepted")
	}
}

func TestClientStreamsWholePresentation(t *testing.T) {
	_, ts := newTestServer(t, 20)
	client, err := NewClient(ts.URL, abr.NewFESTIVE(), WithBufferThreshold(10))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := client.Stream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Fetches) != 10 {
		t.Fatalf("fetched %d segments, want 10", len(stats.Fetches))
	}
	if stats.TotalBytes <= 0 {
		t.Error("no payload downloaded")
	}
	// FESTIVE starts at the bottom rung and climbs on a fast loopback.
	if stats.Fetches[0].Rung != 0 {
		t.Errorf("first rung = %d, want 0", stats.Fetches[0].Rung)
	}
	last := stats.Fetches[len(stats.Fetches)-1]
	if last.Rung <= stats.Fetches[0].Rung {
		t.Error("FESTIVE never climbed on a fast link")
	}
	if stats.Switches == 0 {
		t.Error("no switches recorded during the climb")
	}
	if last.ThroughputMbps <= 0 || stats.MeanBitrateMbps <= 0 {
		t.Errorf("degenerate rates: %+v", stats)
	}
}

// A base URL given with a trailing slash addresses the same
// presentation: the client must not request //manifest.mpd.
func TestClientIgnoresTrailingSlash(t *testing.T) {
	_, ts := newTestServer(t, 10)
	client, err := NewClient(ts.URL+"/", abr.NewYoutube())
	if err != nil {
		t.Fatal(err)
	}
	stats, err := client.Stream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Fetches) != 5 {
		t.Fatalf("fetched %d segments, want 5", len(stats.Fetches))
	}
}

func TestClientHonoursRateShaping(t *testing.T) {
	// Shape to ~4 MB/s: measured throughput must be near it, not the
	// multi-GB/s loopback rate.
	_, ts := newTestServer(t, 8, WithRateLimitMBps(4))
	client, err := NewClient(ts.URL, &abr.Fixed{Rung: 3}) // 1.5 Mbps
	if err != nil {
		t.Fatal(err)
	}
	stats, err := client.Stream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var weighted float64 // byte-weighted mean download rate
	for _, f := range stats.Fetches {
		weighted += f.ThroughputMbps * float64(f.Bytes)
	}
	if mean := weighted / float64(stats.TotalBytes); mean > 120 { // 4 MB/s = 32 Mbps; generous slack for chunk timing
		t.Errorf("throughput %.1f Mbps ignores shaping", mean)
	}
}

func TestClientCancellation(t *testing.T) {
	_, ts := newTestServer(t, 60, WithRateLimitMBps(0.5))
	client, err := NewClient(ts.URL, abr.NewYoutube())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	if _, err := client.Stream(ctx); err == nil {
		t.Error("cancelled stream reported success")
	}
}

func TestClientAgainstDeadServer(t *testing.T) {
	client, err := NewClient("http://127.0.0.1:1", abr.NewYoutube(),
		WithHTTPClient(&http.Client{Timeout: 200 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Stream(context.Background()); err == nil {
		t.Error("dead server reported success")
	}
}

// A manifest the client cannot stream fails the session with an
// error: neither its duration nor its Content-Length may size a loop
// or an allocation before it is checked.
func TestClientRejectsMalformedManifest(t *testing.T) {
	mpd, err := dash.BuildMPD(testManifest(t, 10))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ duration, contentLength string }{
		{"PT-4S", ""},
		{"PT0S", ""},
		{"PTNaNS", ""},
		{"PT1e300S", ""},
		{mpd.MediaPresentationDur, "9223372036854775807"},
	}
	for _, c := range cases {
		m := *mpd
		m.MediaPresentationDur = c.duration
		var body bytes.Buffer
		if err := dash.WriteMPD(&body, &m); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if c.contentLength != "" {
				w.Header().Set("Content-Length", c.contentLength)
			}
			w.Write(body.Bytes())
		}))
		client, err := NewClient(ts.URL, abr.NewYoutube())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := client.Stream(context.Background()); err == nil {
			t.Errorf("duration %q, Content-Length %q: Stream succeeded", c.duration, c.contentLength)
		}
		ts.Close()
	}
}

func TestServerRuntimeRateChange(t *testing.T) {
	srv, ts := newTestServer(t, 8)
	srv.SetRateLimitMBps(-5) // clamps to unshaped
	client, err := NewClient(ts.URL, &abr.Fixed{Rung: 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Stream(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// Any abr.Algorithm drops into the HTTP client unchanged — BOLA and
// RobustMPC stream the same presentation FESTIVE does.
func TestClientInterfaceParity(t *testing.T) {
	_, ts := newTestServer(t, 12)
	for _, alg := range []abr.Algorithm{abr.NewBOLA(), abr.NewMPC()} {
		client, err := NewClient(ts.URL, alg, WithBufferThreshold(8))
		if err != nil {
			t.Fatal(err)
		}
		stats, err := client.Stream(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		if len(stats.Fetches) != 6 {
			t.Errorf("%s fetched %d segments, want 6", alg.Name(), len(stats.Fetches))
		}
	}
}

// A truncated body must surface the typed ErrTruncated, never a silent
// short byte count (the strict single-attempt client fails the session
// on it).
func TestClientRejectsTruncatedBody(t *testing.T) {
	script := faults.NewScript([]faults.Verdict{{Kind: faults.Truncate, TruncateFrac: 0.4}})
	_, ts := newTestServer(t, 20, WithFaults(script))
	client, err := NewClient(ts.URL, &abr.Fixed{Rung: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, err = client.Stream(context.Background())
	if !errors.Is(err, ErrTruncated) {
		t.Errorf("error = %v, want ErrTruncated", err)
	}
}

// Cancelling the context mid-download aborts the in-flight request and
// returns the partial stats uncorrupted: no phantom fetch for the
// aborted segment, and the totals still add up.
func TestClientCancellationMidDownload(t *testing.T) {
	// 0.2 MB/s against ~1.4 MB segments: the first download takes
	// seconds, the cancel lands mid-transfer.
	_, ts := newTestServer(t, 20, WithRateLimitMBps(0.2))
	client, err := NewClient(ts.URL, &abr.Fixed{Rung: 5})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(200 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	stats, err := client.Stream(ctx)
	if err == nil {
		t.Fatal("cancelled stream reported success")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error = %v, want context.Canceled in the chain", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("cancellation did not abort the in-flight request")
	}
	if stats == nil {
		t.Fatal("no partial stats returned after manifest fetch succeeded")
	}
	var sum int64
	for _, f := range stats.Fetches {
		if f.Bytes <= 0 {
			t.Errorf("segment %d recorded with %d bytes", f.Segment, f.Bytes)
		}
		sum += f.Bytes
	}
	if sum != stats.TotalBytes {
		t.Errorf("TotalBytes = %d but fetches sum to %d", stats.TotalBytes, sum)
	}
	if len(stats.Fetches) >= 10 {
		t.Errorf("%d fetches recorded despite the early cancel", len(stats.Fetches))
	}
}

// SetRateLimitMBps must apply to a transfer already in flight: the
// write loop re-reads the rate per chunk, so lifting a crawl-speed
// limit mid-segment lets the download finish promptly.
func TestServerRateChangeAppliesMidTransfer(t *testing.T) {
	// Rung 5 segments are ~1.4 MB; at 0.05 MB/s one segment would take
	// ~29 s. Lift the limit 300 ms in: with the per-chunk re-read the
	// whole 10-segment session finishes in a couple of seconds.
	srv, ts := newTestServer(t, 20, WithRateLimitMBps(0.05))
	client, err := NewClient(ts.URL, &abr.Fixed{Rung: 5})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(300 * time.Millisecond)
		srv.SetRateLimitMBps(0)
	}()
	start := time.Now()
	stats, err := client.Stream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Fetches) != 10 {
		t.Fatalf("fetched %d segments, want 10", len(stats.Fetches))
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("session took %v; mid-transfer rate change was ignored", elapsed)
	}
}
