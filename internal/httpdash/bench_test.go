package httpdash

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ecavs/internal/abr"
	"ecavs/internal/dash"
	"ecavs/internal/faults"
)

// discardResponseWriter sinks a response without buffering it, so the
// server benchmarks measure the serving path itself rather than
// httptest's recorder or the kernel's loopback stack.
type discardResponseWriter struct {
	h     http.Header
	bytes int64
}

func (d *discardResponseWriter) Header() http.Header { return d.h }
func (d *discardResponseWriter) Write(p []byte) (int, error) {
	d.bytes += int64(len(p))
	return len(p), nil
}
func (d *discardResponseWriter) WriteHeader(int) {}

func newBenchServer(tb testing.TB, opts ...ServerOption) *Server {
	tb.Helper()
	video := dash.Video{Title: "bench", SpatialInfo: 45, TemporalInfo: 15, DurationSec: 20}
	m, err := dash.NewManifest(video, dash.TableIILadder(), dash.ManifestConfig{SegmentSec: 2, VBRJitter: 0, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	srv, err := NewServer(m, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	return srv
}

// BenchmarkServerThroughput hammers the segment path with 8 concurrent
// connections (one goroutine each, requests drawn off a shared
// counter), unshaped, against a discarding writer: the measured cost is
// the handler itself — path parse, accounting, pacing check, body
// write. Pre-PR (per-request 64 KiB buffer fill, mutex-guarded rate
// reads) this ran at ~98,700 ns/op and 65,606 B/op on the reference
// machine; the pooled path pins a small constant per-request budget.
func BenchmarkServerThroughput(b *testing.B) {
	srv := newBenchServer(b)
	const conns = 8
	url, err := srv.SegmentURL("", 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodGet, url, nil)
	var n int64
	sizeMB, err := srv.manifest.SegmentSizeMB(0, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(sizeMB * 1e6))
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := &discardResponseWriter{h: make(http.Header, 4)}
			r := req.Clone(req.Context())
			for atomic.AddInt64(&n, 1) <= int64(b.N) {
				srv.ServeHTTP(w, r)
			}
		}()
	}
	wg.Wait()
}

// BenchmarkGetSegment is the client's body-read layer: one GET of the
// top Table II rung's first segment (~1.45 MB) from a loopback server,
// classified by GetSegment. discard is how the streaming client and
// cmd/loadgen read a segment; keep is how the edge reads a fill.
func BenchmarkGetSegment(b *testing.B) {
	srv := newBenchServer(b)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	top := len(srv.repIDs) - 1
	url, err := srv.SegmentURL(ts.URL, top, 0)
	if err != nil {
		b.Fatal(err)
	}
	hc := &http.Client{Transport: NewTransport()}
	defer hc.CloseIdleConnections()
	for _, keep := range []bool{false, true} {
		name := "discard"
		if keep {
			name = "keep"
		}
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(srv.segBytes[top][0]))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if a := GetSegment(context.Background(), hc, url, "", keep); a.Err != nil {
					b.Fatal(a.Err)
				}
			}
		})
	}
}

// BenchmarkFetchPipeline streams a 10-segment presentation over real
// HTTP with 10 ms of injected per-request latency — the regime the
// prefetch pipeline exists for. ahead=0 is the serial client paying
// the latency once per segment; ahead=3 overlaps fetches so the
// latency amortises across the pipeline depth.
func BenchmarkFetchPipeline(b *testing.B) {
	for _, ahead := range []int{0, 3} {
		b.Run(fmt.Sprintf("ahead=%d", ahead), func(b *testing.B) {
			plan, err := faults.NewPlan(faults.Config{LatencyProb: 1, LatencyFor: 10 * time.Millisecond}, 1)
			if err != nil {
				b.Fatal(err)
			}
			srv := newBenchServer(b, WithFaults(plan))
			ts := httptest.NewServer(srv)
			defer ts.Close()
			client, err := NewClient(ts.URL, &abr.Fixed{Rung: 0},
				WithBufferThreshold(8), WithFetchAhead(ahead))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				stats, err := client.Stream(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				if len(stats.Fetches) != 10 {
					b.Fatalf("fetched %d segments, want 10", len(stats.Fetches))
				}
			}
		})
	}
}
