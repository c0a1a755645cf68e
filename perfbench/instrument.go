package main

import (
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ecavs/internal/abr"
)

// The instruments below are the benchmark's seams: wrappers around
// what the program's public entry points accept (an abr.Algorithm, an
// http.RoundTripper, an http.Handler), each recording spans into the
// benchmark's own recorder. None of them changes what it wraps.

// tally counts and times wrapped decisions across sessions.
type tally struct {
	calls atomic.Int64
	ns    atomic.Int64 // timer cost already subtracted
}

// timedAlg counts and times an algorithm's decisions. With a recorder
// each decision is also a span under parent. One session uses it at a
// time, so its own fields need no synchronisation; the shared tally is
// atomic.
type timedAlg struct {
	abr.Algorithm
	tally    *tally
	name     string
	overhead time.Duration // calibrated timer cost, subtracted per call
	rec      *recorder
	op       int64
	parent   int64

	calls int
	ns    int64
}

func (a *timedAlg) ChooseRung(ctx abr.Context) (int, error) {
	start := time.Now()
	rung, err := a.Algorithm.ChooseRung(ctx)
	end := time.Now()
	d := end.Sub(start) - a.overhead
	a.calls++
	a.ns += int64(d)
	a.tally.calls.Add(1)
	a.tally.ns.Add(int64(d))
	a.rec.addAt(a.name, a.op, a.parent, start, end)
	return rung, err
}

// spanHeader carries "<op>/<span id>" from the benchmark's client-side
// span to the server-side one it caused.
const spanHeader = "X-Perfbench-Span"

func parseSpanHeader(v string) (op, parent int64) {
	a, b, ok := strings.Cut(v, "/")
	if !ok {
		return 0, 0
	}
	op, _ = strconv.ParseInt(a, 10, 64)
	parent, _ = strconv.ParseInt(b, 10, 64)
	return op, parent
}

// timedTransport records a span per request, from RoundTrip until the
// response body reaches EOF or is closed. name names the span and
// spanOf gives its op and parent (zeros when only the span's key can
// join it to the rest of its op, later).
type timedTransport struct {
	base   http.RoundTripper
	rec    *recorder
	name   func(*http.Request) string
	spanOf func() (op, parent int64)
	// tag, when set, carries the span to the server in spanHeader.
	tag bool
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	op, parent := t.spanOf()
	id := t.rec.newID()
	if t.tag && op != 0 {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.FormatInt(op, 10)+"/"+strconv.FormatInt(id, 10))
	}
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	sp := span{ID: id, Op: op, Parent: parent, Name: t.name(req), Key: keyOf(req.URL.Path)}
	if err != nil {
		t.finish(sp, start)
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() { t.finish(sp, start) }}
	return resp, nil
}

func (t *timedTransport) finish(sp span, start time.Time) {
	sp.Start, sp.End = int64(start.Sub(t.rec.epoch)), t.rec.now()
	t.rec.add(sp)
}

// timedBody calls done once, at EOF or Close, whichever comes first.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.once.Do(b.done)
	}
	return n, err
}

func (b *timedBody) Close() error {
	b.once.Do(b.done)
	return b.ReadCloser.Close()
}

// timedHandler records a span per request around a server's handler,
// joined to the client span named in spanHeader.
type timedHandler struct {
	h    http.Handler
	rec  *recorder
	name func(*http.Request) string
}

func (t *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	t.h.ServeHTTP(w, r)
	end := time.Now()
	op, parent := parseSpanHeader(r.Header.Get(spanHeader))
	t.rec.add(span{Op: op, Parent: parent, Name: t.name(r), Key: keyOf(r.URL.Path),
		Start: int64(start.Sub(t.rec.epoch)), End: int64(end.Sub(t.rec.epoch))})
}

// keyOf is a segment path's cache key ("<repID>/<n>.m4s"), or "".
func keyOf(path string) string {
	k, _ := strings.CutPrefix(path, "/seg/")
	if k == path {
		return ""
	}
	return k
}

// segmentOr names segment requests one way and everything else another.
func segmentOr(seg, other string) func(*http.Request) string {
	return func(r *http.Request) string {
		if strings.HasPrefix(r.URL.Path, "/seg/") {
			return seg
		}
		return other
	}
}
