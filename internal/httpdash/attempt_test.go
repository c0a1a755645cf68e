package httpdash

import (
	"context"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// roundTripFunc serves synthetic responses without a network.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// cannedClient answers every request with status, the given headers and
// body, advertising contentLength.
func cannedClient(status int, header http.Header, body string, contentLength int64) *http.Client {
	return &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		return &http.Response{
			StatusCode:    status,
			Status:        strconv.Itoa(status) + " " + http.StatusText(status),
			Header:        header,
			Body:          io.NopCloser(strings.NewReader(body)),
			ContentLength: contentLength,
			Request:       r,
		}, nil
	})}
}

// payload is an n-byte body whose content depends on position only:
// "abcd" for n = 4.
func payload(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + i%26)
	}
	return string(b)
}

// TestGetSegmentClassifies pins the classifier's verdict for every kind
// of response the serving path produces.
func TestGetSegmentClassifies(t *testing.T) {
	ra := http.Header{"Retry-After": {"2"}}
	cases := []struct {
		name                   string
		hc                     *http.Client
		keep                   bool
		wantStatus             int
		wantBytes              int64
		ok, shed, final, trunc bool
	}{
		{"ok", cannedClient(200, http.Header{}, "abcd", 4), false, 200, 4, true, false, false, false},
		{"ok kept", cannedClient(200, http.Header{}, "abcd", 4), true, 200, 4, true, false, false, false},
		{"short body", cannedClient(200, http.Header{}, "ab", 4), false, 200, 2, false, false, false, true},
		{"short body kept", cannedClient(200, http.Header{}, "ab", 4), true, 200, 2, false, false, false, true},
		// A Content-Length no body could meet must not size an
		// allocation: the read tracks the bytes sent and comes up short.
		{"huge Content-Length kept", cannedClient(200, http.Header{}, "ab", math.MaxInt64), true, 200, 2, false, false, false, true},
		{"above prealloc cap kept", cannedClient(200, http.Header{}, "ab", maxPrealloc+1), true, 200, 2, false, false, false, true},
		{"unknown length kept", cannedClient(200, http.Header{}, "abcd", -1), true, 200, 4, true, false, false, false},
		// The discard path reads in blocks of discardBlock. A body of
		// exactly one block, and one a byte longer, count every byte,
		// discarded or kept; a body advertising three blocks and a byte
		// that stops after two is truncated at the bytes that arrived.
		{"one block", cannedClient(200, http.Header{}, payload(discardBlock), discardBlock), false, 200, discardBlock, true, false, false, false},
		{"one block kept", cannedClient(200, http.Header{}, payload(discardBlock), discardBlock), true, 200, discardBlock, true, false, false, false},
		{"one block and a byte", cannedClient(200, http.Header{}, payload(discardBlock+1), discardBlock+1), false, 200, discardBlock + 1, true, false, false, false},
		{"one block and a byte kept", cannedClient(200, http.Header{}, payload(discardBlock+1), discardBlock+1), true, 200, discardBlock + 1, true, false, false, false},
		{"short body across blocks", cannedClient(200, http.Header{}, payload(2*discardBlock), 3*discardBlock+1), false, 200, 2 * discardBlock, false, false, false, true},
		{"shed", cannedClient(503, ra, "busy", 4), false, 503, 0, false, true, false, false},
		{"5xx without Retry-After", cannedClient(502, http.Header{}, "", 0), false, 502, 0, false, false, false, false},
		{"4xx", cannedClient(404, http.Header{}, "", 0), false, 404, 0, false, false, true, false},
		{"4xx with Retry-After", cannedClient(429, ra, "", 0), false, 429, 0, false, false, true, false},
		{"transport error", &http.Client{Transport: roundTripFunc(func(*http.Request) (*http.Response, error) {
			return nil, errors.New("connection reset")
		})}, false, 0, 0, false, false, false, false},
	}
	for _, c := range cases {
		a := GetSegment(context.Background(), c.hc, "http://origin.invalid/seg/v0/0.m4s", "", c.keep)
		if a.Status != c.wantStatus || a.Bytes != c.wantBytes || (a.Err == nil) != c.ok ||
			a.Shed() != c.shed || a.Final() != c.final || a.Truncated != c.trunc || a.Cancelled {
			t.Errorf("%s: got %+v (shed %v, final %v)", c.name, a, a.Shed(), a.Final())
		}
		if c.trunc && !errors.Is(a.Err, ErrTruncated) {
			t.Errorf("%s: err %v does not wrap ErrTruncated", c.name, a.Err)
		}
		if c.keep && c.ok && string(a.Body) != payload(int(c.wantBytes)) {
			t.Errorf("%s: body %q, want the payload", c.name, a.Body)
		}
	}
	if a := GetSegment(context.Background(), cannedClient(503, ra, "", 0), "http://o.invalid/", "", false); a.RetryAfter != 2*time.Second {
		t.Errorf("shed RetryAfter = %v, want 2s", a.RetryAfter)
	}
}

// TestGetSegmentCancelled pins that an attempt whose context ends
// mid-request is marked Cancelled rather than failed.
func TestGetSegmentCancelled(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	a := GetSegment(ctx, ts.Client(), ts.URL, "", false)
	if !a.Cancelled || a.Err == nil || a.Status != 0 {
		t.Fatalf("got %+v, want a cancelled attempt without a status", a)
	}
}

// FuzzRetryAfter fuzzes the Retry-After parse behind the attempt
// classifier. Whatever the header holds, parsing never panics or
// yields a negative delay; anything but a plain non-negative decimal
// integer — garbage, negative numbers, the HTTP-date form — yields zero;
// and a 5xx carrying the header classifies as a shed either way. Every
// delay the servers render parses back to the same whole seconds.
func FuzzRetryAfter(f *testing.F) {
	for _, v := range []string{"1", "0", "120", "-1", "abc", "", "1.5", " 2", "+3",
		"Wed, 21 Oct 2015 07:28:00 GMT", "9223372036", "9223372037", "99999999999999999999"} {
		f.Add(v, int64(1500*time.Millisecond))
	}
	f.Add("5", math.MaxInt64/int64(time.Second)*int64(time.Second))
	f.Add("5", int64(-1))
	f.Fuzz(func(t *testing.T, header string, ns int64) {
		d := parseRetryAfter(header)
		if d < 0 || d%time.Second != 0 {
			t.Fatalf("parseRetryAfter(%q) = %v, want whole non-negative seconds", header, d)
		}
		if sec, err := strconv.ParseInt(header, 10, 64); d != 0 && (err != nil || time.Duration(sec)*time.Second != d) {
			t.Fatalf("parseRetryAfter(%q) = %v from a value that is not its delay-seconds", header, d)
		}
		if _, err := http.ParseTime(header); err == nil && d != 0 {
			t.Fatalf("HTTP-date %q parsed to %v, want 0", header, d)
		}

		a := GetSegment(context.Background(), cannedClient(503, http.Header{"Retry-After": {header}}, "", 0),
			"http://origin.invalid/seg/v0/0.m4s", "", false)
		if a.Shed() != (header != "") || a.RetryAfter != d {
			t.Fatalf("503 with Retry-After %q: shed %v, delay %v; want shed %v, delay %v",
				header, a.Shed(), a.RetryAfter, header != "", d)
		}

		// The render rounds up to whole seconds, at least one; delays
		// whose round-up a time.Duration cannot hold are out of scope.
		if ns <= 0 || ns > math.MaxInt64/int64(time.Second)*int64(time.Second) {
			return
		}
		sec := ns / int64(time.Second)
		if ns%int64(time.Second) != 0 {
			sec++
		}
		want := time.Duration(sec) * time.Second
		if got := parseRetryAfter(retryAfterSeconds(time.Duration(ns))); got != want {
			t.Fatalf("retryAfterSeconds(%v) = %q parses to %v, want %v", time.Duration(ns), retryAfterSeconds(time.Duration(ns)), got, want)
		}
	})
}
