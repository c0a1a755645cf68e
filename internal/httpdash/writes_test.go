package httpdash

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"ecavs/internal/faults"
)

// writeCountingListener wraps every conn it accepts so that each Write
// reports its size to onWrite before the bytes reach the socket: by the
// time a client has read a byte, the write that carried it is counted.
type writeCountingListener struct {
	net.Listener
	onWrite func(n int)
}

func (l writeCountingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &writeCountingConn{Conn: c, onWrite: l.onWrite}, nil
}

type writeCountingConn struct {
	net.Conn
	onWrite func(n int)
}

func (c *writeCountingConn) Write(p []byte) (int, error) {
	c.onWrite(len(p))
	return c.Conn.Write(p)
}

// newCountingServer serves h through a listener whose conns report
// every Write to onWrite.
func newCountingServer(tb testing.TB, h http.Handler, onWrite func(n int)) *httptest.Server {
	tb.Helper()
	ts := httptest.NewUnstartedServer(h)
	ts.Listener = writeCountingListener{Listener: ts.Listener, onWrite: onWrite}
	ts.Start()
	tb.Cleanup(ts.Close)
	return ts
}

// TestServerWritesPerSegment pins how many conn writes carry one
// top-rung segment (1,450,000 bytes) and how large they are. Unshaped,
// the body goes out in 256 KiB pieces: 6 pieces plus the flush that
// carries the headers with the first body bytes, where 64 KiB pieces
// took 24 writes. Shaped, the pacing granule stays 64 KiB. A rate
// published while the first piece is on the wire applies from the next
// piece. The counts are bounds, not exact: net/http's 4 KiB buffer
// decides how the headers and the first body bytes share a write.
func TestServerWritesPerSegment(t *testing.T) {
	const fastMBps = 200 // shaped, yet the segment takes ~7 ms
	cases := []struct {
		name       string
		rate       float64 // set before the request
		midRate    float64 // published from inside the first conn write
		maxWrites  int     // 0 = no bound on the count
		firstPiece int     // size of the piece in flight when the first write runs
		laterPiece int     // largest write allowed once that piece is out
	}{
		{name: "unshaped", maxWrites: 7, firstPiece: pieceSize, laterPiece: pieceSize},
		{name: "shaped", rate: fastMBps, firstPiece: chunkSize, laterPiece: chunkSize},
		{name: "rate published mid-transfer", midRate: fastMBps, firstPiece: pieceSize, laterPiece: chunkSize},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			srv := newBenchServer(t, WithRateLimitMBps(c.rate))
			var mu sync.Mutex
			var writes []int
			ts := newCountingServer(t, srv, func(n int) {
				mu.Lock()
				first := len(writes) == 0
				writes = append(writes, n)
				mu.Unlock()
				if first && c.midRate > 0 {
					srv.SetRateLimitMBps(c.midRate)
				}
			})
			top := len(srv.repIDs) - 1
			size := srv.segBytes[top][0]
			url, err := srv.segmentURL(ts.URL, top, 0)
			if err != nil {
				t.Fatal(err)
			}
			hc := &http.Client{Transport: NewTransport()}
			defer hc.CloseIdleConnections()
			a := GetSegment(context.Background(), hc, url, "", true)
			if a.Err != nil {
				t.Fatal(a.Err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				t.Fatal(err)
			}

			if len(a.Body) != size {
				t.Errorf("body is %d bytes, want the segment's %d", len(a.Body), size)
			}
			for i, b := range a.Body {
				if want := byte('0' + i%chunkSize%10); b != want {
					t.Fatalf("body byte %d is %q, want %q: the payload is not position-deterministic", i, b, want)
				}
			}
			if got := srv.Snapshot().Bytes; got != int64(size) {
				t.Errorf("Snapshot().Bytes = %d, want the segment's %d", got, size)
			}

			mu.Lock()
			defer mu.Unlock()
			total := 0
			for _, n := range writes {
				total += n
			}
			header := total - size // the status line and headers ride the first write
			t.Logf("%d conn writes: %v", len(writes), writes)
			if c.maxWrites > 0 && len(writes) > c.maxWrites {
				t.Errorf("%d conn writes for one segment, want at most %d: %v", len(writes), c.maxWrites, writes)
			}
			firstPieceEnd := header + c.firstPiece
			off := 0
			for i, n := range writes {
				limit := c.firstPiece
				if off >= firstPieceEnd {
					limit = c.laterPiece
				}
				if n > limit {
					t.Errorf("write %d (at conn byte %d) is %d bytes, want at most %d: %v", i, off, n, limit, writes)
				}
				off += n
			}
		})
	}
}

// TestServerTruncateWritesItsPrefix pins the Truncate fault on the
// piece loop: the origin writes exactly the prefix the verdict cuts,
// here two whole 256 KiB pieces and part of a third, counts exactly
// those bytes, and aborts, so the client reads a truncated body of that
// length.
func TestServerTruncateWritesItsPrefix(t *testing.T) {
	const frac = 0.5
	srv := newBenchServer(t, WithFaults(faults.NewScript([]faults.Verdict{{Kind: faults.Truncate, TruncateFrac: frac}})))
	ts := httptest.NewServer(srv)
	defer ts.Close()
	top := len(srv.repIDs) - 1
	cut := int64(float64(srv.segBytes[top][0]) * frac)
	url, err := srv.segmentURL(ts.URL, top, 0)
	if err != nil {
		t.Fatal(err)
	}
	a := GetSegment(context.Background(), ts.Client(), url, "", false)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if !a.Truncated || a.Bytes != cut {
		t.Errorf("client read %d bytes (truncated %v), want a truncated body of %d", a.Bytes, a.Truncated, cut)
	}
	if got := srv.Snapshot().Bytes; got != cut {
		t.Errorf("Snapshot().Bytes = %d, want the %d-byte prefix", got, cut)
	}
}

// TestRateLimitTinyRateHoldsUntilDeadline pins the pacer at a rate so
// small that one 64 KiB piece costs more nanoseconds than an int64
// holds. The reservation must saturate and hold the transfer until the
// client gives up; a cost that wrapped negative used to mature at once
// and deliver the whole segment unpaced.
func TestRateLimitTinyRateHoldsUntilDeadline(t *testing.T) {
	srv, ts := newTestServer(t, 20, WithRateLimitMBps(1e-12))
	url, err := srv.segmentURL(ts.URL, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	size := int64(srv.segBytes[5][0])
	const deadline = 300 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	a := GetSegment(ctx, ts.Client(), url, "", false)
	elapsed := time.Since(start)
	if a.Err == nil || a.Bytes >= size {
		t.Fatalf("got %d of %d bytes in %v (err %v); want a short body cut off at the deadline", a.Bytes, size, elapsed, a.Err)
	}
	if !a.Cancelled || elapsed < deadline {
		t.Errorf("attempt ended after %v, cancelled %v; want it held until its %v deadline", elapsed, a.Cancelled, deadline)
	}
}
