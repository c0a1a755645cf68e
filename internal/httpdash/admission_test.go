package httpdash

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ecavs/internal/faults"
	"ecavs/internal/telemetry"
)

// waitForRequests polls the server snapshot until the accepted-request
// total reaches n (i.e. n requests hold admission slots) or the
// deadline passes.
func waitForRequests(t *testing.T, srv *Server, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if srv.Snapshot().Requests >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("server never accepted %d requests (snapshot %+v)", n, srv.Snapshot())
}

// getStatus fetches a URL and returns the status code and Retry-After
// header, draining the body.
func getStatus(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, resp.Header.Get("Retry-After")
}

// TestAdmissionShedsWith503RetryAfter pins the shedding contract: with
// the only in-flight slot held and no queue, an excess request bounces
// immediately with 503 + Retry-After: 1 and is accounted as shed on its
// rung — it never waits, never 500s, never hangs.
func TestAdmissionShedsWith503RetryAfter(t *testing.T) {
	// The first request stalls server-side while holding the slot.
	plan := faults.NewScript([]faults.Verdict{{Kind: faults.Stall, Stall: time.Second}})
	srv, ts := newTestServer(t, 20,
		WithFaults(plan),
		WithAdmissionControl(AdmissionConfig{MaxInFlight: 1}))

	urlA, err := srv.segmentURL(ts.URL, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		resp, err := http.Get(urlA)
		if err != nil {
			done <- err
			return
		}
		defer resp.Body.Close()
		_, err = io.Copy(io.Discard, resp.Body)
		done <- err
	}()
	waitForRequests(t, srv, 1)

	urlB, err := srv.segmentURL(ts.URL, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	code, retryAfter := getStatus(t, urlB)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("excess request got %d, want 503", code)
	}
	if retryAfter != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", retryAfter)
	}
	if err := <-done; err != nil {
		t.Fatalf("admitted transfer failed: %v", err)
	}

	snap := srv.Snapshot()
	if snap.Requests != 1 || snap.Shed != 1 {
		t.Errorf("snapshot = %d accepted / %d shed, want 1 / 1", snap.Requests, snap.Shed)
	}
	if snap.Rungs[2].Shed != 1 || snap.Rungs[0].Shed != 0 {
		t.Errorf("per-rung sheds = %+v, want the shed accounted to rung 2", snap.Rungs)
	}
}

// TestAdmissionQueueAdmitsWhenSlotFrees pins the FIFO wait queue's
// happy path: a request that arrives while the slot is held waits (it
// is counted as queued) and is admitted once the slot frees, well
// within its queue deadline.
func TestAdmissionQueueAdmitsWhenSlotFrees(t *testing.T) {
	plan := faults.NewScript([]faults.Verdict{{Kind: faults.Stall, Stall: 200 * time.Millisecond}})
	srv, ts := newTestServer(t, 20,
		WithFaults(plan),
		WithAdmissionControl(AdmissionConfig{MaxInFlight: 1, MaxQueue: 1, QueueWait: 5 * time.Second}))

	urlA, _ := srv.segmentURL(ts.URL, 0, 0)
	done := make(chan error, 1)
	go func() {
		resp, err := http.Get(urlA)
		if err != nil {
			done <- err
			return
		}
		defer resp.Body.Close()
		_, err = io.Copy(io.Discard, resp.Body)
		done <- err
	}()
	waitForRequests(t, srv, 1)

	urlB, _ := srv.segmentURL(ts.URL, 1, 1)
	code, _ := getStatus(t, urlB) // queues behind the stall, then admits
	if code != http.StatusOK {
		t.Fatalf("queued request got %d, want 200", code)
	}
	if err := <-done; err != nil {
		t.Fatalf("admitted transfer failed: %v", err)
	}
	snap := srv.Snapshot()
	if snap.Queued != 1 {
		t.Errorf("Queued = %d, want 1", snap.Queued)
	}
	if snap.Requests != 2 || snap.Shed != 0 {
		t.Errorf("snapshot = %d accepted / %d shed, want 2 / 0", snap.Requests, snap.Shed)
	}
}

// TestAdmissionQueueDeadlineSheds pins the queue deadline: a waiter
// whose QueueWait expires before a slot frees is shed with 503 +
// Retry-After instead of waiting forever.
func TestAdmissionQueueDeadlineSheds(t *testing.T) {
	plan := faults.NewScript([]faults.Verdict{{Kind: faults.Stall, Stall: time.Second}})
	srv, ts := newTestServer(t, 20,
		WithFaults(plan),
		WithAdmissionControl(AdmissionConfig{MaxInFlight: 1, MaxQueue: 1, QueueWait: 30 * time.Millisecond}))

	urlA, _ := srv.segmentURL(ts.URL, 0, 0)
	done := make(chan error, 1)
	go func() {
		resp, err := http.Get(urlA)
		if err != nil {
			done <- err
			return
		}
		defer resp.Body.Close()
		_, err = io.Copy(io.Discard, resp.Body)
		done <- err
	}()
	waitForRequests(t, srv, 1)

	urlB, _ := srv.segmentURL(ts.URL, 1, 1)
	start := time.Now()
	code, retryAfter := getStatus(t, urlB)
	waited := time.Since(start)
	if code != http.StatusServiceUnavailable || retryAfter == "" {
		t.Fatalf("queue-deadline shed got %d (Retry-After %q), want 503 with a hint", code, retryAfter)
	}
	if waited > 500*time.Millisecond {
		t.Errorf("shed after %v, want ~the 30ms queue deadline", waited)
	}
	if err := <-done; err != nil {
		t.Fatalf("admitted transfer failed: %v", err)
	}
	if snap := srv.Snapshot(); snap.Queued != 1 || snap.Shed != 1 {
		t.Errorf("snapshot = %d queued / %d shed, want 1 / 1", snap.Queued, snap.Shed)
	}
}

// TestAdmissionPriorityShedsTopRungFirst pins the degrade-before-fail
// policy: under queue pressure a top-rung request sheds while a
// bottom-rung request arriving later still queues and completes —
// quality gives way before availability, mirroring the paper's Eq. 1
// tradeoff.
func TestAdmissionPriorityShedsTopRungFirst(t *testing.T) {
	plan := faults.NewScript([]faults.Verdict{{Kind: faults.Stall, Stall: time.Second}})
	srv, ts := newTestServer(t, 20,
		WithFaults(plan),
		WithAdmissionControl(AdmissionConfig{
			MaxInFlight:    1,
			MaxQueue:       2,
			QueueWait:      5 * time.Second,
			PriorityByRung: true,
		}))

	// A (rung 0) stalls holding the only slot.
	urlA, _ := srv.segmentURL(ts.URL, 0, 0)
	doneA := make(chan error, 1)
	go func() {
		resp, err := http.Get(urlA)
		if err != nil {
			doneA <- err
			return
		}
		defer resp.Body.Close()
		_, err = io.Copy(io.Discard, resp.Body)
		doneA <- err
	}()
	waitForRequests(t, srv, 1)

	// B (top rung 5) takes the top-half queue allowance (2/2 = 1 slot).
	urlB, _ := srv.segmentURL(ts.URL, 5, 1)
	doneB := make(chan int, 1)
	go func() {
		resp, err := http.Get(urlB)
		if err != nil {
			doneB <- -1
			return
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		doneB <- resp.StatusCode
	}()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Snapshot().Queued < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if srv.Snapshot().Queued < 1 {
		t.Fatal("request B never queued")
	}

	// C (top rung 4) exceeds the top-half allowance: shed immediately,
	// even though the full queue still has room.
	urlC, _ := srv.segmentURL(ts.URL, 4, 2)
	code, retryAfter := getStatus(t, urlC)
	if code != http.StatusServiceUnavailable || retryAfter == "" {
		t.Fatalf("top-rung request got %d (Retry-After %q), want an immediate 503 shed", code, retryAfter)
	}

	// D (rung 1, bottom half) still queues in the room C was denied.
	urlD, _ := srv.segmentURL(ts.URL, 1, 3)
	codeD, _ := getStatus(t, urlD)
	if codeD != http.StatusOK {
		t.Fatalf("bottom-rung request got %d, want 200 after queuing", codeD)
	}

	if code := <-doneB; code != http.StatusOK {
		t.Errorf("queued top-rung request got %d, want 200 once the slot freed", code)
	}
	if err := <-doneA; err != nil {
		t.Fatalf("admitted transfer failed: %v", err)
	}
	snap := srv.Snapshot()
	if snap.Rungs[4].Shed != 1 {
		t.Errorf("rung 4 shed = %d, want 1", snap.Rungs[4].Shed)
	}
	if snap.Rungs[1].Shed != 0 || snap.Rungs[0].Shed != 0 {
		t.Errorf("bottom rungs shed = %+v, want none", snap.Rungs)
	}
}

// TestAdmissionAccountingUnderBurst fires a concurrent burst at a
// tightly bounded server and checks the conservation law the overload
// suite gates on: every request resolves to exactly one of 200 or
// 503-with-Retry-After, and client-side totals match the server
// snapshot (accepted + shed == issued).
func TestAdmissionAccountingUnderBurst(t *testing.T) {
	srv, ts := newTestServer(t, 20,
		WithAdmissionControl(AdmissionConfig{MaxInFlight: 2, MaxQueue: 2, QueueWait: 5 * time.Millisecond}))

	const workers, perWorker = 16, 4
	var ok, shed, other atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				url, err := srv.segmentURL(ts.URL, (w+i)%6, i)
				if err != nil {
					other.Add(1)
					continue
				}
				resp, err := http.Get(url)
				if err != nil {
					other.Add(1)
					continue
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch {
				case resp.StatusCode == http.StatusOK:
					ok.Add(1)
				case resp.StatusCode == http.StatusServiceUnavailable && resp.Header.Get("Retry-After") != "":
					shed.Add(1)
				default:
					other.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()

	if other.Load() != 0 {
		t.Fatalf("%d responses were neither 200 nor 503-with-Retry-After", other.Load())
	}
	if ok.Load()+shed.Load() != workers*perWorker {
		t.Fatalf("accounting leak: %d ok + %d shed != %d issued", ok.Load(), shed.Load(), workers*perWorker)
	}
	waitIdle(t, srv)
	snap := srv.Snapshot()
	if snap.Requests != ok.Load() || snap.Shed != shed.Load() {
		t.Errorf("server snapshot %d accepted / %d shed, client saw %d / %d",
			snap.Requests, snap.Shed, ok.Load(), shed.Load())
	}
	if snap.InFlight != 0 {
		t.Errorf("InFlight = %d after the burst drained, want 0", snap.InFlight)
	}
}

// TestAdmissionAtCapacityShedsNothing drives a server exactly at its
// capacity: 8 callers against 4 slots and a queue of 4, each issuing
// its next request as soon as the last one returns. At most 8 requests
// ever hold or wait for a slot, so none may be shed. A waiter handed a
// slot by a release holds that slot and no longer counts against the
// queue, even before the scheduler runs it.
func TestAdmissionAtCapacityShedsNothing(t *testing.T) {
	srv, err := NewServer(testManifest(t, 20),
		WithAdmissionControl(AdmissionConfig{MaxInFlight: 4, MaxQueue: 4, QueueWait: 10 * time.Second}))
	if err != nil {
		t.Fatal(err)
	}
	url, err := srv.segmentURL("", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodGet, url, nil)
	const callers, perCaller = 8, 2000
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := &discardResponseWriter{h: make(http.Header, 4)}
			r := req.Clone(req.Context())
			for i := 0; i < perCaller; i++ {
				srv.ServeHTTP(w, r)
			}
		}()
	}
	wg.Wait()
	snap := srv.Snapshot()
	if snap.Shed != 0 {
		t.Errorf("admission shed %d of %d requests at capacity, want 0", snap.Shed, callers*perCaller)
	}
	if snap.Requests != callers*perCaller {
		t.Errorf("Requests = %d, want %d", snap.Requests, callers*perCaller)
	}
}

// TestAdmissionTelemetryExposition checks the overload series surface
// in the registry (in either option order) and mirror the snapshot.
func TestAdmissionTelemetryExposition(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv, ts := newTestServer(t, 20,
		WithAdmissionControl(AdmissionConfig{MaxInFlight: 1, MaxQueue: 1, QueueWait: 5 * time.Millisecond}),
		WithServerTelemetry(reg))

	// A couple of clean requests, then a shed forced by a held slot.
	url0, _ := srv.segmentURL(ts.URL, 0, 0)
	if code, _ := getStatus(t, url0); code != http.StatusOK {
		t.Fatalf("clean request got %d", code)
	}

	plan := faults.NewScript([]faults.Verdict{{Kind: faults.Stall, Stall: 300 * time.Millisecond}})
	srv2, ts2 := newTestServer(t, 20,
		WithServerTelemetry(reg), // shared registry, options reversed
		WithFaults(plan),
		WithAdmissionControl(AdmissionConfig{MaxInFlight: 1}))
	urlA, _ := srv2.segmentURL(ts2.URL, 0, 0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Get(urlA)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	waitForRequests(t, srv2, 1)
	urlB, _ := srv2.segmentURL(ts2.URL, 2, 1)
	if code, _ := getStatus(t, urlB); code != http.StatusServiceUnavailable {
		t.Fatalf("excess request got %d, want 503", code)
	}
	<-done

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	expo := sb.String()
	for _, want := range []string{
		`httpdash_server_shed_total{rung="2"} 1`,
		"# TYPE httpdash_server_queued_total counter",
		"httpdash_server_inflight",
	} {
		if !strings.Contains(expo, want) {
			t.Errorf("exposition missing %q:\n%s", want, expo)
		}
	}
}

// TestShutdownDrainsInFlight pins graceful drain: Shutdown stops new
// work (503 + Retry-After) but lets the in-flight transfer finish, and
// returns only once the server is idle with no leaked transfers.
func TestShutdownDrainsInFlight(t *testing.T) {
	plan := faults.NewScript([]faults.Verdict{{Kind: faults.Stall, Stall: 300 * time.Millisecond}})
	srv, ts := newTestServer(t, 20, WithFaults(plan))

	urlA, _ := srv.segmentURL(ts.URL, 3, 0)
	type res struct {
		n   int64
		err error
	}
	done := make(chan res, 1)
	go func() {
		resp, err := http.Get(urlA)
		if err != nil {
			done <- res{err: err}
			return
		}
		defer resp.Body.Close()
		n, err := io.Copy(io.Discard, resp.Body)
		done <- res{n: n, err: err}
	}()
	waitForRequests(t, srv, 1)

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	// Shutdown must not return while the stalled transfer is in flight.
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned %v with a transfer in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	// New work is refused with the shed contract while draining.
	urlB, _ := srv.segmentURL(ts.URL, 0, 1)
	code, retryAfter := getStatus(t, urlB)
	if code != http.StatusServiceUnavailable || retryAfter == "" {
		t.Fatalf("request during drain got %d (Retry-After %q), want 503 with a hint", code, retryAfter)
	}

	// The in-flight transfer completes in full, then Shutdown returns.
	r := <-done
	if r.err != nil {
		t.Fatalf("in-flight transfer failed during drain: %v", r.err)
	}
	want := int64(srv.segBytes[3][0])
	if r.n != want {
		t.Errorf("drained transfer delivered %d of %d bytes", r.n, want)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown = %v, want nil after the transfer finished", err)
	}
	snap := srv.Snapshot()
	if snap.InFlight != 0 {
		t.Errorf("InFlight = %d after Shutdown, want 0", snap.InFlight)
	}
	if snap.Shed == 0 {
		t.Error("drain-time refusal not accounted in Snapshot.Shed")
	}
	// Shutdown is idempotent: a second call returns immediately.
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Errorf("second Shutdown = %v", err)
	}
}

// TestShutdownDeadline pins the bounded drain: when the context
// expires before in-flight work finishes, Shutdown returns the
// context's error instead of hanging.
func TestShutdownDeadline(t *testing.T) {
	plan := faults.NewScript([]faults.Verdict{{Kind: faults.Stall, Stall: 2 * time.Second}})
	srv, ts := newTestServer(t, 20, WithFaults(plan))

	urlA, _ := srv.segmentURL(ts.URL, 0, 0)
	reqCtx, cancelReq := context.WithCancel(context.Background())
	defer cancelReq()
	done := make(chan struct{})
	go func() {
		defer close(done)
		req, _ := http.NewRequestWithContext(reqCtx, http.MethodGet, urlA, nil)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	waitForRequests(t, srv, 1)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want context.DeadlineExceeded", err)
	}
	cancelReq() // release the stalled transfer so the test server closes cleanly
	<-done
}

// TestAdmissionReusesQueueTimers drives one admission through rounds
// that end each way a queued wait can end, so every round after the
// first waits on a pooled timer: shed when QueueWait expires, admitted
// when the slot frees, gone when the client leaves. A reused timer
// holding a stale value would shed the next round's request early.
func TestAdmissionReusesQueueTimers(t *testing.T) {
	a := &admission{cfg: AdmissionConfig{MaxInFlight: 1, MaxQueue: 1, QueueWait: 150 * time.Millisecond}.withDefaults(),
		slots: make(chan struct{}, 1)}
	req := httptest.NewRequest(http.MethodGet, "/", nil)
	if a.admit(req, 0, 1) != admitted {
		t.Fatal("the free slot was not admitted")
	}
	for round := 0; round < 9; round++ {
		queued := a.queuedTotal.Load()
		ctx, cancel := context.WithCancel(context.Background())
		r := req.WithContext(ctx)
		done := make(chan admitResult)
		start := time.Now()
		go func() { done <- a.admit(r, 0, 1) }()
		for a.queuedTotal.Load() == queued {
			time.Sleep(100 * time.Microsecond)
		}
		var want admitResult
		switch round % 3 {
		case 0:
			want = shed // nobody frees the slot
		case 1:
			want = admitted
			a.release() // the holder leaves; the waiter takes its slot
		case 2:
			want = gone
			cancel()
		}
		got := <-done
		cancel()
		if got != want {
			t.Fatalf("round %d: admit = %d, want %d", round, got, want)
		}
		if want == shed && time.Since(start) < a.cfg.QueueWait {
			t.Fatalf("round %d: shed after %v, before QueueWait %v", round, time.Since(start), a.cfg.QueueWait)
		}
	}
	if n := a.pending.Load(); n != 1 {
		t.Errorf("pending = %d after the rounds, want 1 (the slot holder)", n)
	}
}
