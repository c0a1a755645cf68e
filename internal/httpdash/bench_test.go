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
	"ecavs/internal/tracing"
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
	srv, err := NewServer(benchManifest(tb), opts...)
	if err != nil {
		tb.Fatal(err)
	}
	return srv
}

// benchManifest is the presentation every bench server serves.
func benchManifest(tb testing.TB) *dash.Manifest {
	tb.Helper()
	video := dash.Video{Title: "bench", SpatialInfo: 45, TemporalInfo: 15, DurationSec: 20}
	m, err := dash.NewManifest(video, dash.TableIILadder(), dash.ManifestConfig{SegmentSec: 2, VBRJitter: 0, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// benchConns is how many connections the server-throughput benchmarks
// drive at once.
const benchConns = 8

// BenchmarkServerThroughput hammers the segment path with 8 concurrent
// connections (one goroutine each, requests drawn off a shared
// counter), unshaped, against a discarding writer: the measured cost is
// the handler itself — path parse, accounting, pacing check, body
// write. Pre-PR (per-request 64 KiB buffer fill, mutex-guarded rate
// reads) this ran at ~98,700 ns/op and 65,606 B/op on the reference
// machine; the shared payload pins a small constant per-request budget.
func BenchmarkServerThroughput(b *testing.B) {
	benchServerThroughput(b, newBenchServer(b))
}

// BenchmarkServerThroughputAdmission is BenchmarkServerThroughput with
// admission control on: slots for half the connections and a queue for
// the rest, so requests wait for slots and none is shed.
func BenchmarkServerThroughputAdmission(b *testing.B) {
	srv := newBenchServer(b, WithAdmissionControl(AdmissionConfig{
		MaxInFlight: benchConns / 2,
		MaxQueue:    benchConns / 2,
		QueueWait:   time.Second,
	}))
	benchServerThroughput(b, srv)
	if shed := srv.Snapshot().Shed; shed != 0 {
		b.Errorf("admission shed %d requests; the benchmark measures admitted ones", shed)
	}
}

// BenchmarkServerThroughputTracingKept is BenchmarkServerThroughput
// with every segment request traced and every fragment kept.
func BenchmarkServerThroughputTracingKept(b *testing.B) {
	benchServerThroughput(b, newTracedBenchServer(b, tracing.Sampler{Ratio: 1}))
}

// BenchmarkServerThroughputTracingDropped traces every request under
// the zero Sampler, which keeps nothing: the cost of building spans
// the sampler then drops.
func BenchmarkServerThroughputTracingDropped(b *testing.B) {
	benchServerThroughput(b, newTracedBenchServer(b, tracing.Sampler{}))
}

func newTracedBenchServer(b *testing.B, sm tracing.Sampler) *Server {
	tr := tracing.New(tracing.Config{Service: "server", Sampler: sm, Seed: 1}, tracing.NewStore(256))
	return newBenchServer(b, WithServerTracing(tr))
}

// benchServerThroughput serves rung 0's first segment to benchConns
// goroutines at once, each with its own discarding writer, b.N
// requests in all. srv serves benchManifest.
func benchServerThroughput(b *testing.B, srv *Server) {
	url, err := srv.segmentURL("", 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodGet, url, nil)
	var n int64
	sizeMB, err := benchManifest(b).SegmentSizeMB(0, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(sizeMB * 1e6))
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for c := 0; c < benchConns; c++ {
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

// BenchmarkEdgeHit is the edge's fresh-hit path: rung 0's first
// segment, filled once from a loopback origin, then served from cache
// through Edge.ServeHTTP into a discarding writer.
func BenchmarkEdgeHit(b *testing.B) {
	edge, srv, _ := newTestEdge(b, nil)
	path, err := srv.segmentURL("", 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := &discardResponseWriter{h: make(http.Header, 4)}
	edge.ServeHTTP(w, req) // the one fill
	b.SetBytes(int64(srv.segBytes[0][0]))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		edge.ServeHTTP(w, req)
	}
	b.StopTimer()
	if snap := edge.Snapshot(); snap.Fills != 1 || snap.Hits != int64(b.N) {
		b.Errorf("%d fills and %d hits over %d requests, want 1 fill and every request a hit", snap.Fills, snap.Hits, b.N)
	}
}

// BenchmarkEdgeMissSingleflight is the edge's miss path under a burst:
// each iteration evicts the top rung's first segment, then 8
// goroutines request it at once through Edge.ServeHTTP. One leads the
// fill from a loopback origin; the others wait on its flight or, if
// they arrive after it, hit the entry it cached. fills/op is origin
// fills per burst, which singleflight holds at 1.
func BenchmarkEdgeMissSingleflight(b *testing.B) {
	const burst = 8
	edge, srv, _ := newTestEdge(b, nil)
	top := len(srv.repIDs) - 1
	path, err := srv.segmentURL("", top, 0)
	if err != nil {
		b.Fatal(err)
	}
	key := path[len("/seg/"):]
	req := httptest.NewRequest(http.MethodGet, path, nil)
	writers := make([]*discardResponseWriter, burst)
	for g := range writers {
		writers[g] = &discardResponseWriter{h: make(http.Header, 4)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		edge.cache.Remove(key)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for _, w := range writers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				edge.ServeHTTP(w, req)
			}()
		}
		close(start)
		wg.Wait()
	}
	b.StopTimer()
	snap := edge.Snapshot()
	b.ReportMetric(float64(snap.Fills)/float64(b.N), "fills/op")
	if snap.Fills != int64(b.N) || snap.Requests != int64(burst*b.N) || snap.Errors != 0 {
		b.Errorf("%d bursts of %d: %d fills, %d requests, %d errors; want one fill a burst and no errors",
			b.N, burst, snap.Fills, snap.Requests, snap.Errors)
	}
}

// BenchmarkGetSegment is the client's body-read layer: one GET of the
// top Table II rung's first segment (~1.45 MB) from a loopback server,
// classified by GetSegment. discard is how the streaming client and
// cmd/loadgen read a segment; keep is how the edge reads a fill.
// conn-writes/op counts the server's writes to the connection per
// segment.
func BenchmarkGetSegment(b *testing.B) {
	srv := newBenchServer(b)
	var writes atomic.Int64
	ts := newCountingServer(b, srv, func(int) { writes.Add(1) })
	top := len(srv.repIDs) - 1
	url, err := srv.segmentURL(ts.URL, top, 0)
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
			writes.Store(0)
			for i := 0; i < b.N; i++ {
				if a := GetSegment(context.Background(), hc, url, "", keep); a.Err != nil {
					b.Fatal(a.Err)
				}
			}
			b.ReportMetric(float64(writes.Load())/float64(b.N), "conn-writes/op")
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
