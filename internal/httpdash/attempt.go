package httpdash

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"ecavs/internal/tracing"
)

// Attempt is the classified outcome of one GET — the one place the
// repository decides what a response means. The streaming client's
// segment and manifest attempts, the edge's origin fills and
// cmd/loadgen all classify through GetSegment, so what counts as a
// shed, a final failure, or a truncated body cannot drift between them.
type Attempt struct {
	// Status is the response status code; 0 when no response arrived
	// (transport error or unbuildable request).
	Status int
	// HasRetryAfter reports a non-empty Retry-After header.
	HasRetryAfter bool
	// RetryAfter is the header's delay in whole seconds. It is zero when
	// the header is absent, negative, not a decimal integer (the
	// HTTP-date form included), or too large for a time.Duration.
	RetryAfter time.Duration
	// ContentType is the response's Content-Type header.
	ContentType string
	// Bytes counts the body bytes of a 200 that were read.
	Bytes int64
	// Body is the payload of a complete 200 when GetSegment was asked to
	// keep it.
	Body []byte
	// Truncated marks a 200 whose body ended short of its
	// Content-Length.
	Truncated bool
	// Cancelled marks an attempt cut off because its context ended.
	Cancelled bool
	// Err is nil exactly when the attempt is a complete 200; a short
	// body wraps ErrTruncated.
	Err error
}

// Shed reports a polite refusal: a 5xx carrying Retry-After.
func (a Attempt) Shed() bool { return a.Status >= 500 && a.HasRetryAfter }

// Final reports a failure no retry can fix: a response other than 200
// and below 500, meaning the request itself is wrong. Transport
// errors, truncated bodies and 5xx responses are worth retrying.
func (a Attempt) Final() bool {
	return a.Status != 0 && a.Status != http.StatusOK && a.Status < 500
}

// GetSegment issues one GET of url through hc and classifies the
// result. A non-empty traceparent rides the request as the W3C trace
// header, so a tracing server joins the caller's trace. A 200's body is
// read to the end and checked against Content-Length; with keep it is
// returned in Body, otherwise discarded. Any other response's body is
// drained so the connection can be reused.
func GetSegment(ctx context.Context, hc *http.Client, url, traceparent string, keep bool) Attempt {
	var a Attempt
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		a.Err = fmt.Errorf("build request: %w", err)
		return a
	}
	if traceparent != "" {
		req.Header.Set(tracing.Header, traceparent)
	}
	resp, err := hc.Do(req)
	if err != nil {
		a.Cancelled = ctx.Err() != nil
		a.Err = fmt.Errorf("fetch: %w", err)
		return a
	}
	defer resp.Body.Close()
	a.Status = resp.StatusCode
	a.ContentType = resp.Header.Get("Content-Type")
	if v := resp.Header.Get("Retry-After"); v != "" {
		a.HasRetryAfter = true
		a.RetryAfter = parseRetryAfter(v)
	}
	if resp.StatusCode != http.StatusOK {
		if _, err := discard(resp.Body); err != nil {
			a.Cancelled = ctx.Err() != nil
		}
		a.Err = errors.New("status " + resp.Status)
		return a
	}
	a.Body, a.Bytes, err = readBody(resp, keep)
	if err != nil {
		a.Cancelled = ctx.Err() != nil
		a.Truncated = errors.Is(err, ErrTruncated)
		a.Err = err
	}
	return a
}

// maxPrealloc caps how much of a kept body is allocated on the word of
// its Content-Length before any of it arrives: above a few top-rung
// segments, the buffer grows with the bytes actually sent, so a lying
// header cannot make the reader allocate more than the peer delivers.
const maxPrealloc = 8 << 20

// readBody reads a 200's body to the end, insisting on the advertised
// Content-Length: a short body — whether it ends in a clean EOF or a
// torn connection — is ErrTruncated, never a smaller segment. With
// keep the payload is returned; otherwise it is discarded.
func readBody(resp *http.Response, keep bool) ([]byte, int64, error) {
	want := resp.ContentLength
	var data []byte
	var n int64
	var err error
	switch {
	case !keep:
		n, err = discard(resp.Body)
	case want >= 0 && want <= maxPrealloc:
		data = make([]byte, want)
		var m int
		m, err = io.ReadFull(resp.Body, data)
		n = int64(m)
	default:
		data, err = io.ReadAll(resp.Body)
		n = int64(len(data))
	}
	if want >= 0 && n != want {
		if err != nil {
			return nil, n, fmt.Errorf("%w: %d of %d bytes (%v)", ErrTruncated, n, want, err)
		}
		return nil, n, fmt.Errorf("%w: %d of %d bytes", ErrTruncated, n, want)
	}
	if err != nil {
		return nil, n, fmt.Errorf("read body: %w", err)
	}
	return data, n, nil
}

// discardBlock is the size of the reads discard makes: a 1.45 MB
// top-rung segment takes at least 23 of them, where io.Discard's 8 KiB
// reads take at least 178. It is the client's own choice, independent
// of how the server sizes its writes.
const discardBlock = 64 << 10

// discardPool recycles the blocks discard reads into. Reads never go
// into the server's shared body payload: client and server share a
// process in tests and load runs, and a read into that payload would
// corrupt the bytes the origin serves.
var discardPool = sync.Pool{New: func() any {
	buf := make([]byte, discardBlock)
	return &buf
}}

// discard reads r to its end and returns the byte count; like io.Copy,
// a clean EOF is a nil error. It reads in blocks of discardBlock bytes;
// io.Discard reads 8 KiB per call.
func discard(r io.Reader) (int64, error) {
	bp := discardPool.Get().(*[]byte)
	defer discardPool.Put(bp)
	buf := *bp
	var n int64
	for {
		m, err := r.Read(buf)
		n += int64(m)
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
	}
}

// parseRetryAfter reads a Retry-After value in its delay-seconds form;
// the HTTP-date form is not used by this package's servers and, like
// negative or malformed values, yields zero. So does a delay too large
// for a time.Duration, rather than wrapping around.
func parseRetryAfter(v string) time.Duration {
	sec, err := strconv.ParseInt(v, 10, 64)
	if err != nil || sec < 0 || sec > math.MaxInt64/int64(time.Second) {
		return 0
	}
	return time.Duration(sec) * time.Second
}
