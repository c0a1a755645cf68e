package httpdash

import (
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ecavs/internal/telemetry"
)

// AdmissionConfig bounds how much concurrent work the server accepts.
// Excess demand is shed with 503 + Retry-After instead of queuing
// unboundedly — the serving-path analogue of the paper's Eq. 1
// tradeoff: degrade (shed a request the client can retry at a lower
// rung) before failing outright (an unbounded queue that takes every
// session down when it finally topples).
type AdmissionConfig struct {
	// MaxInFlight caps concurrently served segment transfers. Required
	// (>= 1); everything else defaults.
	MaxInFlight int
	// MaxQueue bounds the FIFO wait queue in front of the in-flight
	// slots. Zero queues nothing: a request beyond MaxInFlight is shed.
	MaxQueue int
	// QueueWait is the longest a queued request waits for a slot before
	// being shed (default 100ms). Short by design — a client retry with
	// backoff is cheaper than a convoy of stale waiters.
	QueueWait time.Duration
	// PriorityByRung makes top-half ladder rungs shed first under
	// pressure: they may use only half the wait queue, so when the
	// queue fills past the midpoint the server keeps admitting cheap
	// low-rung requests while expensive top-rung ones bounce. Combined
	// with the client's downgrade-on-retry this degrades quality before
	// availability.
	PriorityByRung bool
}

// shedRetryAfter is the Retry-After hint on every response the server
// sheds, by admission or by drain; clients honour it in their backoff
// computation.
const shedRetryAfter = time.Second

func (c AdmissionConfig) withDefaults() AdmissionConfig {
	if c.QueueWait <= 0 {
		c.QueueWait = 100 * time.Millisecond
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	}
	return c
}

// WithAdmissionControl bounds concurrent segment transfers: MaxInFlight
// run, up to MaxQueue wait FIFO for at most QueueWait, and everything
// beyond that is shed with 503 + Retry-After. A zero-valued config is
// ignored (admission control stays off, the seed behaviour).
func WithAdmissionControl(cfg AdmissionConfig) ServerOption {
	return func(s *Server) {
		if cfg.MaxInFlight < 1 {
			return
		}
		cfg = cfg.withDefaults()
		s.admission = &admission{
			cfg:   cfg,
			slots: make(chan struct{}, cfg.MaxInFlight),
		}
	}
}

// admission is the server's bounded admission controller. The slot
// semaphore is a buffered channel: blocked senders park in the
// runtime's FIFO wait queue, which is exactly the "short FIFO wait
// queue" the config describes. The pending counter bounds the queue:
// it counts the requests that hold or wait for a slot, so the waiters
// are the ones beyond MaxInFlight. A waiter a release has handed its
// slot holds that slot, whether or not the scheduler has run it yet.
type admission struct {
	cfg     AdmissionConfig
	slots   chan struct{} // capacity MaxInFlight; send = acquire
	pending atomic.Int64  // requests holding or waiting for a slot

	// queuedTotal counts requests that waited for a slot (always on;
	// telQueued is the optional registry mirror, nil = no-op).
	queuedTotal atomic.Int64
	telQueued   *telemetry.Counter

	// timers recycles the QueueWait timers of queued requests, so a
	// request that waits allocates none. A pooled timer is expired with
	// its value received, or stopped before it fired: either way its
	// channel is empty, under the timer semantics of go.mod's go 1.22
	// (a fired timer's value waits in its channel) and of later ones.
	timers sync.Pool
}

// admitResult says how an admission attempt ended.
type admitResult int

const (
	admitted admitResult = iota // slot acquired; caller must release
	shed                        // bounced: respond 503 + Retry-After
	gone                        // client left while queued: just return
)

// admit tries to acquire an in-flight slot for a rung's request,
// waiting in the bounded FIFO queue if necessary. A request that would
// take the pending count past the slots plus the rung's share of the
// queue is shed. Top-half rungs see half the queue under
// PriorityByRung, so they start shedding while low rungs still
// buffer — quality degrades before availability does.
func (a *admission) admit(r *http.Request, rung, rungs int) admitResult {
	queue := a.cfg.MaxQueue
	if a.cfg.PriorityByRung && rung >= (rungs+1)/2 {
		queue /= 2
	}
	if a.pending.Add(1) > int64(cap(a.slots)+queue) {
		a.pending.Add(-1)
		return shed
	}
	select {
	case a.slots <- struct{}{}:
		return admitted
	default:
	}
	a.queuedTotal.Add(1)
	a.telQueued.Inc()
	timer, _ := a.timers.Get().(*time.Timer)
	if timer == nil {
		timer = time.NewTimer(a.cfg.QueueWait)
	} else {
		timer.Reset(a.cfg.QueueWait)
	}
	res := admitted
	select {
	case a.slots <- struct{}{}:
	case <-timer.C:
		a.pending.Add(-1)
		a.timers.Put(timer)
		return shed
	case <-r.Context().Done():
		a.pending.Add(-1)
		res = gone
	}
	// A timer that fired as the wait ended may hold its value, or be
	// about to send it: it is dropped rather than drained and reused.
	if timer.Stop() {
		a.timers.Put(timer)
	}
	return res
}

// release frees an in-flight slot. The pending count drops first, so a
// waiter the slot goes to is never counted against the queue.
func (a *admission) release() {
	a.pending.Add(-1)
	<-a.slots
}

// retryAfterSeconds renders a Retry-After header value: whole seconds,
// rounded up, at least 1 (the header has no sub-second form). The
// round-up divides first, so it cannot overflow near the largest
// durations.
func retryAfterSeconds(d time.Duration) string {
	sec := int64(d / time.Second)
	if d%time.Second > 0 {
		sec++
	}
	if sec < 1 {
		sec = 1
	}
	return strconv.FormatInt(sec, 10)
}

// shedResponse answers 503 Service Unavailable with a Retry-After
// hint — the contract every shed path (admission, drain) goes through,
// so a client never sees an overload 5xx without a hint.
func shedResponse(w http.ResponseWriter, retryAfter time.Duration) {
	w.Header().Set("Retry-After", retryAfterSeconds(retryAfter))
	http.Error(w, "server overloaded", http.StatusServiceUnavailable)
}

// drainGate tracks in-flight requests for graceful shutdown. The
// packed atomic word holds the in-flight count plus a draining bit, so
// the per-request cost is two atomic RMWs; idle is closed exactly once,
// when the gate is draining and the count reaches zero.
type drainGate struct {
	state    atomic.Int64 // count | drainingBit
	idleOnce sync.Once
	idle     chan struct{}
}

const drainingBit = int64(1) << 62

func newDrainGate() *drainGate {
	return &drainGate{idle: make(chan struct{})}
}

// enter registers a request; false means the server is draining and
// the request must be refused.
func (g *drainGate) enter() bool {
	for {
		v := g.state.Load()
		if v&drainingBit != 0 {
			return false
		}
		if g.state.CompareAndSwap(v, v+1) {
			return true
		}
	}
}

// exit deregisters a request, closing idle if it was the last one out
// during a drain.
func (g *drainGate) exit() {
	if v := g.state.Add(-1); v == drainingBit {
		g.idleOnce.Do(func() { close(g.idle) })
	}
}

// drain flips the gate: subsequent enters fail, and idle closes once
// the in-flight count hits zero.
func (g *drainGate) drain() {
	for {
		v := g.state.Load()
		if v&drainingBit != 0 {
			return // already draining; the first drainer owns idle
		}
		if g.state.CompareAndSwap(v, v|drainingBit) {
			if v == 0 {
				g.idleOnce.Do(func() { close(g.idle) })
			}
			return
		}
	}
}

// draining reports whether drain has been called.
func (g *drainGate) draining() bool {
	return g.state.Load()&drainingBit != 0
}

// inFlight reports the currently entered request count.
func (g *drainGate) inFlight() int64 {
	return g.state.Load() &^ drainingBit
}
