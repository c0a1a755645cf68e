package httpdash

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"ecavs/internal/abr"
	"ecavs/internal/dash"
	"ecavs/internal/netsim"
	"ecavs/internal/player"
	"ecavs/internal/rng"
	"ecavs/internal/sim"
	"ecavs/internal/telemetry"
	"ecavs/internal/tracing"
)

// Typed fetch failures.
var (
	// ErrTruncated marks a segment whose body ended short of the
	// advertised Content-Length — a half-delivered download that must
	// never be silently counted as a success.
	ErrTruncated = errors.New("httpdash: truncated segment body")
	// ErrSegmentAbandoned marks a segment given up after the retry
	// budget (including rung downgrades) was exhausted; the session
	// terminates with this error rather than hanging or mis-reporting.
	ErrSegmentAbandoned = errors.New("httpdash: segment abandoned after retries")
	// ErrCircuitOpen marks a fetch attempt refused locally because the
	// host's circuit breaker is open — the host is failing and hammering
	// it would deepen the overload. The attempt burns retry budget (and
	// keeps downgrading the rung) without touching the network.
	ErrCircuitOpen = errors.New("httpdash: circuit breaker open")
)

// RetryPolicy bounds how hard the client fights for each segment.
type RetryPolicy struct {
	// MaxAttempts is the per-segment fetch budget (>= 1; 1 means no
	// retries).
	MaxAttempts int
	// AttemptTimeout is the per-attempt deadline; it converts a stalled
	// transfer into a retryable timeout. Zero disables it.
	AttemptTimeout time.Duration
	// BackoffBase is the first retry's backoff; each further retry
	// doubles it up to BackoffMax. Jitter multiplies the wait by a
	// deterministic draw in [0.5, 1), so synchronized clients desync
	// without making runs irreproducible.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// JitterSeed seeds the backoff jitter stream (internal/rng).
	JitterSeed int64
	// DowngradeOnRetry steps the fetch one ladder rung down per retry,
	// degrading toward the cheapest rendition before giving up.
	DowngradeOnRetry bool
}

func (p RetryPolicy) validate() error {
	if p.MaxAttempts < 1 {
		return errors.New("httpdash: MaxAttempts must be at least 1")
	}
	if p.AttemptTimeout < 0 || p.BackoffBase < 0 || p.BackoffMax < 0 {
		return errors.New("httpdash: negative retry durations")
	}
	return nil
}

// NewTransport returns an http.Transport tuned for this package's
// traffic shape: many small GETs against one host. It is the stock
// transport with the per-host idle pool widened (the default keeps
// only two idle connections per host, so concurrent prefetches and
// load-generator workers would re-dial instead of reusing keep-alive
// connections) and no global idle cap. Both the streaming client and
// cmd/loadgen dial through it by default.
func NewTransport() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConns = 0 // unlimited; the per-host cap below governs
	t.MaxIdleConnsPerHost = 64
	t.IdleConnTimeout = 90 * time.Second
	return t
}

// Client streams a DASH presentation over real HTTP, driving an
// abr.Algorithm with measured per-segment throughputs. Playback is
// virtual: wall-clock time is only spent downloading, and buffered
// content "plays out" instantly once the buffer reaches the pacing
// threshold — so a full session finishes in seconds while still
// exercising the real network path, the manifest parsing, and the
// adaptation loop.
//
// Construct with NewClient; the zero value is unusable.
type Client struct {
	baseURL    string
	httpClient *http.Client
	algorithm  abr.Algorithm
	threshold  float64
	retry      RetryPolicy
	breaker    *Breaker   // nil = no circuit breaking
	fetchAhead int        // prefetch window; 0 = one segment at a time
	jitter     rng.Atomic // backoff jitter stream
	tel        clientTelemetry
	telReg     *telemetry.Registry
	tracer     *tracing.Tracer // nil = tracing disabled (zero overhead)
}

// clientTelemetry mirrors the Stats resilience counters into a
// registry. All fields are nil without WithClientTelemetry; nil
// metrics are no-ops, so the fetch loop updates them unconditionally.
type clientTelemetry struct {
	segments   *telemetry.Counter
	bytes      *telemetry.Counter
	retries    *telemetry.Counter
	downgrades *telemetry.Counter
	timeouts   *telemetry.Counter
	truncated  *telemetry.Counter
	abandoned  *telemetry.Counter
	fastFails  *telemetry.Counter
	stallSec   *telemetry.Gauge
}

// WithHTTPClient overrides the default http.Client.
func WithHTTPClient(hc *http.Client) ClientOption {
	return func(c *Client) {
		if hc != nil {
			c.httpClient = hc
		}
	}
}

// WithBufferThreshold overrides the 30 s pacing threshold.
func WithBufferThreshold(sec float64) ClientOption {
	return func(c *Client) {
		if sec > 0 {
			c.threshold = sec
		}
	}
}

// WithFetchAhead enables the bounded prefetch pipeline: while segment
// k is being played, up to n further segments (k+1 … k+n) download
// concurrently, so per-request latency and server think-time hide
// behind playout instead of serialising in front of it. Results are
// consumed strictly in segment order and every segment is fetched by
// exactly one pipeline slot, under the same retry budget and Stats
// accounting as without prefetch. A prefetched segment's rung is
// decided at issue time — from the throughput observed so far and the
// buffer the in-flight segments will have produced — which is the
// information a real look-ahead player has. Zero (the default) fetches
// one segment at a time: the same loop at depth 1.
func WithFetchAhead(n int) ClientOption {
	return func(c *Client) {
		if n > 0 {
			c.fetchAhead = n
		}
	}
}

// WithRetryPolicy enables resilient fetching. Without this option the
// client keeps the strict single-attempt behaviour (any fetch failure
// ends the session), which is what the deterministic integration tests
// rely on.
func WithRetryPolicy(p RetryPolicy) ClientOption {
	return func(c *Client) {
		c.retry = p
	}
}

// WithCircuitBreaker puts a circuit breaker in front of the client's
// host: once the windowed failure rate trips it, attempts fail fast
// (no network traffic) until the cool-down elapses and probe requests
// prove the host healthy again. Fast-failed attempts still burn retry
// budget and still downgrade the rung under RetryPolicy — a braking
// server pushes sessions down the ladder instead of into abandonment.
// Zero config fields take DefaultBreakerConfig values.
func WithCircuitBreaker(cfg BreakerConfig) ClientOption {
	return func(c *Client) {
		c.breaker = NewBreaker(cfg)
	}
}

// WithSharedBreaker installs an existing breaker, so a fleet of
// clients streaming from the same host shares one view of its health:
// the first sessions to see the host fall over open the circuit for
// everyone. Nil is ignored.
func WithSharedBreaker(b *Breaker) ClientOption {
	return func(c *Client) {
		if b != nil {
			c.breaker = b
		}
	}
}

// WithClientTelemetry mirrors the client's resilience counters into a
// telemetry registry:
//
//	httpdash_client_segments_total    segments fetched successfully
//	httpdash_client_bytes_total       segment payload bytes received
//	httpdash_client_retries_total     re-attempted fetches
//	httpdash_client_downgrades_total  rung step-downs while retrying
//	httpdash_client_timeouts_total    per-attempt deadline hits
//	httpdash_client_truncated_total   short bodies rejected
//	httpdash_client_abandoned_total   segments given up after retries
//	httpdash_client_stall_seconds     cumulative virtual-playback stall
//
// With a circuit breaker configured (in either option order) the
// breaker series are added:
//
//	httpdash_client_breaker_state             0 closed / 1 open / 2 half-open
//	httpdash_client_breaker_opens_total       closed/half-open → open trips
//	httpdash_client_breaker_fast_fails_total  attempts refused while open
//
// A nil registry is a no-op. Multiple clients sharing one registry
// share the series — the counters describe the fleet. The option only
// records the registry; series are wired after all options applied, so
// it composes with WithCircuitBreaker in any order.
func WithClientTelemetry(reg *telemetry.Registry) ClientOption {
	return func(c *Client) {
		c.telReg = reg
	}
}

// wireTelemetry registers the client's series on the recorded registry.
// It runs once in NewClient, after every option has applied — the
// breaker mirrors exist exactly when both WithClientTelemetry and a
// breaker option were given, in either order.
func (c *Client) wireTelemetry() {
	reg := c.telReg
	if reg == nil {
		return
	}
	c.tel = clientTelemetry{
		segments:   reg.Counter("httpdash_client_segments_total", "Segments fetched successfully."),
		bytes:      reg.Counter("httpdash_client_bytes_total", "Segment payload bytes received."),
		retries:    reg.Counter("httpdash_client_retries_total", "Re-attempted segment fetches."),
		downgrades: reg.Counter("httpdash_client_downgrades_total", "Ladder rung step-downs applied while retrying."),
		timeouts:   reg.Counter("httpdash_client_timeouts_total", "Fetch attempts that hit the per-attempt deadline."),
		truncated:  reg.Counter("httpdash_client_truncated_total", "Fetch attempts rejected for a short body."),
		abandoned:  reg.Counter("httpdash_client_abandoned_total", "Segments abandoned after the retry budget ran out."),
		stallSec:   reg.Gauge("httpdash_client_stall_seconds", "Cumulative virtual-playback stall time."),
		fastFails: reg.Counter("httpdash_client_breaker_fast_fails_total",
			"Fetch attempts refused locally by an open circuit breaker."),
	}
	if c.breaker != nil {
		c.breaker.telState = reg.Gauge("httpdash_client_breaker_state",
			"Circuit breaker position: 0 closed, 1 open, 2 half-open.")
		c.breaker.telOpens = reg.Counter("httpdash_client_breaker_opens_total",
			"Circuit breaker trips (transitions to open).")
	}
}

// WithTracing records one trace per segment fetch: a root span with
// child spans for every retry attempt, backoff sleep, breaker
// fast-fail, and prefetch-pipeline wait, and a W3C `traceparent`
// header on every segment request so a tracing-enabled server joins
// the same trace. A nil tracer keeps tracing disabled at zero cost —
// the nil-receiver contract makes every span call a no-op.
func WithTracing(tr *tracing.Tracer) ClientOption {
	return func(c *Client) {
		c.tracer = tr
	}
}

// NewClient returns a streaming client for the presentation at
// baseURL (serving /manifest.mpd), adapting with the given algorithm.
// A trailing slash on baseURL is ignored.
func NewClient(baseURL string, alg abr.Algorithm, opts ...ClientOption) (*Client, error) {
	if baseURL == "" {
		return nil, errors.New("httpdash: empty base URL")
	}
	if alg == nil {
		return nil, errors.New("httpdash: nil algorithm")
	}
	c := &Client{
		baseURL:    strings.TrimSuffix(baseURL, "/"),
		httpClient: &http.Client{Timeout: 30 * time.Second, Transport: NewTransport()},
		algorithm:  alg,
		threshold:  player.DefaultBufferThresholdSec,
		retry:      RetryPolicy{MaxAttempts: 1},
	}
	applyOptions(c, opts)
	if err := c.retry.validate(); err != nil {
		return nil, err
	}
	c.jitter.Seed(uint64(c.retry.JitterSeed))
	c.wireTelemetry()
	return c, nil
}

// Fetch records one segment download.
type Fetch struct {
	// Segment is the segment number.
	Segment int
	// Rung is the ladder rung actually fetched (after any retry
	// downgrades).
	Rung int
	// ChosenRung is the rung the algorithm asked for.
	ChosenRung int
	// Attempts is the fetch count for this segment (1 = clean).
	Attempts int
	// BitrateMbps is the fetched rung's bitrate.
	BitrateMbps float64
	// Bytes is the payload size.
	Bytes int64
	// WallTime is the download duration of the successful attempt.
	WallTime time.Duration
	// ThroughputMbps is the measured download rate.
	ThroughputMbps float64
}

// Stats summarises a streamed session.
type Stats struct {
	// Metrics is the session's Eq. 6 energy and Eq. 1 QoE over the
	// virtual playback, at the context the client decides with: a still
	// phone at 0 dBm, the radio on between consumptions.
	sim.Metrics
	// Fetches logs every successfully downloaded segment.
	Fetches []Fetch
	// TotalBytes is the summed payload.
	TotalBytes int64
	// MeanThroughputMbps is the byte-weighted mean download rate.
	MeanThroughputMbps float64
	// StallSec is the virtual-playback stall time: real time between
	// consecutive segments becoming playable, beyond what the buffer
	// covered (StartupSec + RebufferSec). Failed attempts and backoff
	// sleeps count too.
	StallSec float64

	// Resilience counters (all zero in single-attempt mode).

	// Retries counts re-attempted segment fetches across the session.
	Retries int
	// Downgrades counts rung step-downs applied while retrying.
	Downgrades int
	// Timeouts counts attempts that hit the per-attempt deadline.
	Timeouts int
	// Truncations counts attempts rejected for a short body.
	Truncations int
	// FastFails counts attempts refused locally by an open circuit
	// breaker — retry budget spent without touching the network.
	FastFails int
	// AbandonedSegments counts segments whose retry budget ran out.
	// The session ends at the first abandonment, so this is 0 or 1
	// without prefetch; with it, segments in flight alongside the fatal
	// one can each abandon before the pipeline is torn down.
	AbandonedSegments int
}

// fetchCounters is one fetch's slice of the session resilience
// counters. Each fetch accumulates privately and is folded into Stats
// exactly once, in consumption order, so concurrent prefetches never
// race on the session totals and never double-count.
type fetchCounters struct {
	retries     int
	downgrades  int
	timeouts    int
	truncations int
	fastFails   int
	abandoned   int
}

// merge folds one fetch's counters into the session totals.
func (s *Stats) merge(fc fetchCounters) {
	s.Retries += fc.retries
	s.Downgrades += fc.downgrades
	s.Timeouts += fc.timeouts
	s.Truncations += fc.truncations
	s.FastFails += fc.fastFails
	s.AbandonedSegments += fc.abandoned
}

// Stream downloads the whole presentation. The context cancels the
// session between segment fetches and aborts in-flight requests.
//
// On a mid-session failure (abandoned segment, cancellation after the
// manifest was fetched) Stream returns the partial Stats alongside the
// error, so callers can still read the resilience counters.
func (c *Client) Stream(ctx context.Context) (*Stats, error) {
	info, err := c.fetchManifest(ctx)
	if err != nil {
		return nil, err
	}
	return c.stream(ctx, info)
}

// fetchResult is one segment fetch's outcome.
type fetchResult struct {
	rung, attempts int
	bytes          int64
	wall           time.Duration // the successful attempt's download time
	err            error
	counters       fetchCounters
	ready          time.Time // when a prefetch finished (pipeline-wait accounting)
}

// slot is one position of the fetch pipeline: the segment issued into
// it, its trace root, and — once done is signalled — its result. A
// session allocates its slots once and reuses them round-robin.
type slot struct {
	dec  sim.Decision
	span *tracing.Span // nil when tracing is disabled
	done chan struct{} // nil at depth 1, where the fetch runs in place
	res  fetchResult
}

// stream is the client's one fetch loop: decide, fetch, observe, play.
// It drives a sim.Session with wall time and the prefetch pipeline. Up
// to fetchAhead+1 segments are in flight (the play-head segment plus
// the prefetch window), issued strictly in segment order from this
// goroutine and consumed strictly in segment order, so the algorithm —
// which is not safe for concurrent use — only ever runs here. At depth
// 1 (no prefetch) the fetch runs in place on this goroutine and each
// segment's trace is the plain per-segment tree; deeper, fetches run on
// their own goroutines, overlapping each other and the (virtual)
// playout.
//
// Two rules hold at every depth. The decision's PrevRung is the newest
// issued segment's rung: its fetched rung once consumed, its chosen
// rung while still in flight. And the buffer drains by the real time
// between consecutive consumptions, so whatever part of a download
// the pipeline hid behind earlier segments does not drain it, while
// failed attempts and backoff sleeps do.
func (c *Client) stream(ctx context.Context, info dash.MPDInfo) (*Stats, error) {
	stats := &Stats{}
	// The session times and sizes each segment by the manifest, so a
	// short final segment is not taken for a full one.
	sess, err := sim.NewEvalSession(info.Manifest(), c.algorithm, c.threshold)
	if err != nil {
		return stats, fmt.Errorf("httpdash: %w", err)
	}

	// Fetches run under a child context so tearing the pipeline down
	// (error, cancellation) aborts every in-flight request promptly.
	fctx, cancel := context.WithCancel(ctx)
	defer cancel()

	depth := c.fetchAhead + 1
	slots := make([]slot, depth)
	if depth > 1 {
		for i := range slots {
			slots[i].done = make(chan struct{}, 1)
		}
	}
	issued, played := 0, 0

	// drain aborts and collects every outstanding fetch, folding its
	// counters in: retry work already performed stays counted exactly
	// once even when the session dies mid-pipeline. At depth 1 nothing
	// is ever outstanding: each fetch completed in place.
	drain := func() {
		cancel()
		for ; played < issued; played++ {
			s := &slots[played%depth]
			<-s.done
			stats.merge(s.res.counters)
			s.span.SetError(s.res.err)
			s.span.End()
		}
	}

	var weighted float64
	lastConsume := time.Now()
	// A buffer at the pacing threshold plays down to one segment below
	// it; with a threshold below one segment, to empty.
	resume := max(0, c.threshold-info.SegmentSec)

	for played < info.SegmentCount {
		for issued-played < depth && issued < info.SegmentCount {
			if err := ctx.Err(); err != nil {
				drain()
				return stats, fmt.Errorf("httpdash: cancelled at segment %d: %w", issued, err)
			}
			// Decide with the buffer the in-flight segments will have
			// produced by the time this one is needed; once it passes the
			// pacing threshold, virtual playback has played it down to
			// the resume level.
			projected := sess.BufferSec() + float64(issued-played)*info.SegmentSec
			if projected >= c.threshold {
				projected = resume
			}
			d, err := sess.Decide(issued, sess.ElapsedSec(), projected, 0, 0)
			if err != nil {
				drain()
				return stats, fmt.Errorf("httpdash: %w", err)
			}
			s := &slots[issued%depth]
			s.dec = d
			s.span = c.tracer.StartRoot("fetch_segment")
			s.span.SetAttrInt("segment", int64(issued))
			s.span.SetAttrInt("chosen_rung", int64(d.Rung))
			issued++
			if s.done == nil {
				s.res = c.fetchWithRetry(fctx, info, d.SegmentIndex, d.Rung, s.span)
				continue
			}
			s.span.SetAttr("mode", "prefetch")
			go func() {
				s.res = c.fetchWithRetry(fctx, info, s.dec.SegmentIndex, s.dec.Rung, s.span)
				s.res.ready = time.Now()
				s.done <- struct{}{}
			}()
		}

		s := &slots[played%depth]
		if s.done != nil {
			<-s.done
		}
		played++
		res := &s.res
		stats.merge(res.counters)
		seg := s.dec.SegmentIndex
		if res.err != nil {
			s.span.SetError(res.err)
			s.span.End()
			drain()
			return stats, fmt.Errorf("httpdash: segment %d: %w", seg, res.err)
		}
		if s.done != nil {
			// The gap between the fetch finishing and the play-head
			// reaching it is the prefetch win; record it as a span so
			// slow-trace breakdowns tell network time from pipeline idle.
			s.span.StartChildAt("pipeline_wait", res.ready).End()
		}
		s.span.SetAttrInt("rung", int64(res.rung))
		s.span.SetAttrInt("bytes", res.bytes)
		s.span.SetAttrInt("attempts", int64(res.attempts))
		s.span.End()

		// Virtual playback: a buffer at the pacing threshold plays down
		// to the resume level with the radio idle, then the real time
		// since the last consumption drains it with the radio on,
		// stalling once it runs dry.
		if !sess.ShouldDownload() {
			sess.Play(sess.BufferSec() - resume)
		}
		now := time.Now()
		drained := now.Sub(lastConsume).Seconds()
		lastConsume = now
		c.tel.stallSec.Add(max(0, drained-sess.BufferSec()))
		sess.Transfer(drained, 0)
		sizeMB, wall := float64(res.bytes)/1e6, res.wall.Seconds()
		sess.Deliver(s.dec, res.rung, sizeMB, netsim.Result{DurationSec: wall, MeanThroughputMBps: sizeMB / wall})
		thMbps := sizeMB * 8 / wall

		stats.Fetches = append(stats.Fetches, Fetch{
			Segment:        seg,
			Rung:           res.rung,
			ChosenRung:     s.dec.Rung,
			Attempts:       res.attempts,
			BitrateMbps:    info.Ladder[res.rung].BitrateMbps,
			Bytes:          res.bytes,
			WallTime:       res.wall,
			ThroughputMbps: thMbps,
		})
		stats.TotalBytes += res.bytes
		c.tel.segments.Inc()
		c.tel.bytes.Add(res.bytes)
		weighted += thMbps * float64(res.bytes)
	}
	stats.Metrics = *sess.Finish(nil)
	stats.StallSec = stats.StartupSec + stats.RebufferSec
	if stats.TotalBytes > 0 {
		stats.MeanThroughputMbps = weighted / float64(stats.TotalBytes)
	}
	return stats, nil
}

// attemptContext applies the retry policy's per-attempt deadline.
func (c *Client) attemptContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if c.retry.AttemptTimeout > 0 {
		return context.WithTimeout(ctx, c.retry.AttemptTimeout)
	}
	return ctx, func() {}
}

// fetchWithRetry downloads segment seg, starting at the algorithm's
// chosen rung and applying the retry policy: per-attempt deadline,
// exponential backoff with deterministic jitter (stretched to any
// server Retry-After hint), and (optionally) one rung downgrade per
// retry until the ladder floor. With a breaker configured, attempts
// against an open circuit fail fast without network traffic — still
// burning budget and downgrading, so a braking server degrades the
// session's quality rather than killing it. The result carries the rung
// actually fetched and the attempt count; when the budget runs out its
// error wraps ErrSegmentAbandoned. Resilience events accumulate into
// the result's counters (private to this fetch — the caller folds them
// into Stats), while telemetry counters, which are atomic, are
// incremented live. Under a non-nil span the fight leaves a trace: one
// child span per attempt (carrying the traceparent the server joins
// under), backoff sleep, and breaker fast-fail.
func (c *Client) fetchWithRetry(ctx context.Context, info dash.MPDInfo, seg, chosen int, span *tracing.Span) (res fetchResult) {
	fc := &res.counters
	res.rung = chosen
	var lastErr error
	var hint time.Duration // Retry-After or breaker cool-down, consumed by the next backoff
	for attempt := 0; attempt < c.retry.MaxAttempts; attempt++ {
		res.attempts = attempt + 1
		if attempt > 0 {
			fc.retries++
			c.tel.retries.Inc()
			if c.retry.DowngradeOnRetry && res.rung > 0 {
				res.rung--
				fc.downgrades++
				c.tel.downgrades.Inc()
			}
			bo := span.StartChild("backoff")
			bo.SetAttrDuration("hint", hint)
			if err := c.backoff(ctx, attempt, hint); err != nil {
				bo.SetError(err)
				bo.End()
				res.err = err
				return res
			}
			bo.End()
			hint = 0
		}

		// Fail fast against an open breaker: no request is issued, the
		// cool-down becomes the next backoff's floor.
		if ok, wait := c.breaker.Allow(); !ok {
			fc.fastFails++
			c.tel.fastFails.Inc()
			hint = wait
			ff := span.StartChild("breaker_fast_fail")
			ff.SetAttrDuration("cool_down", wait)
			ff.SetStatus("fast_fail", "circuit open")
			ff.End()
			lastErr = fmt.Errorf("%w (cooling down %v)", ErrCircuitOpen, wait)
			continue
		}

		attemptCtx, cancel := c.attemptContext(ctx)
		url := SegmentURL(c.baseURL, info.RepIDs[res.rung], seg)
		att := span.StartChild("attempt")
		att.SetAttrInt("try", int64(res.attempts))
		att.SetAttrInt("rung", int64(res.rung))
		start := time.Now()
		a := GetSegment(attemptCtx, c.httpClient, url, att.TraceParent(), false)
		elapsed := time.Since(start)
		cancel()
		if a.Err == nil {
			c.breaker.Record(true)
			att.SetAttrInt("bytes", a.Bytes)
			att.End()
			res.bytes, res.wall = a.Bytes, elapsed
			return res
		}
		att.SetError(a.Err)
		att.End()
		// The caller's context ending is a session cancellation, never a
		// retryable fault — and it says nothing about the host's health,
		// so the breaker's probe slot is released without an outcome.
		if ctx.Err() != nil {
			c.breaker.drop()
			res.err = fmt.Errorf("cancelled mid-download: %w", ctx.Err())
			return res
		}
		// Any response proves the host alive (4xx included); transport
		// errors, timeouts, truncations, and 5xx count against it.
		c.breaker.Record(a.Final())
		switch {
		case a.Cancelled: // the per-attempt deadline, not the session, ended it
			fc.timeouts++
			c.tel.timeouts.Inc()
		case a.Truncated:
			fc.truncations++
			c.tel.truncated.Inc()
		case a.Final():
			res.err = a.Err
			return res
		}
		hint = a.RetryAfter
		lastErr = a.Err
	}
	fc.abandoned++
	c.tel.abandoned.Inc()
	res.err = fmt.Errorf("%w (rung %d after %d attempts): %w",
		ErrSegmentAbandoned, res.rung, res.attempts, lastErr)
	return res
}

// backoff sleeps for the attempt's jittered exponential backoff — or
// for the server's Retry-After hint when that is longer — and returns
// early the moment the session context ends, including when it was
// already cancelled on entry.
func (c *Client) backoff(ctx context.Context, attempt int, hint time.Duration) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("cancelled during backoff: %w", err)
	}
	var d time.Duration
	if c.retry.BackoffBase > 0 {
		d = c.retry.BackoffBase
		for i := 1; i < attempt && d < c.retry.BackoffMax; i++ {
			d *= 2
		}
		if c.retry.BackoffMax > 0 && d > c.retry.BackoffMax {
			d = c.retry.BackoffMax
		}
		d = c.jittered(d)
	}
	// A shedding server's Retry-After (or an open breaker's remaining
	// cool-down) floors the wait: coming back sooner would only be shed
	// again.
	if hint > d {
		d = hint
	}
	if d <= 0 {
		return nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return fmt.Errorf("cancelled during backoff: %w", ctx.Err())
	case <-timer.C:
		return nil
	}
}

// jittered applies equal jitter to d from the client's jitter stream:
// deterministic for a fixed JitterSeed, in [d/2, d). The stream is
// atomic, so concurrent prefetches each take a distinct draw.
func (c *Client) jittered(d time.Duration) time.Duration {
	return d/2 + time.Duration(c.jitter.Float64()*float64(d/2))
}

// fetchManifest reads the manifest through GetManifest, retrying under
// the same budget as segment fetches (without downgrades — there is
// only one manifest) and under the same breaker: an open circuit fails
// manifest attempts fast too.
func (c *Client) fetchManifest(ctx context.Context) (dash.MPDInfo, error) {
	var lastErr error
	var hint time.Duration
	for attempt := 0; attempt < c.retry.MaxAttempts; attempt++ {
		if attempt > 0 {
			if err := c.backoff(ctx, attempt, hint); err != nil {
				return dash.MPDInfo{}, fmt.Errorf("httpdash: %w", err)
			}
			hint = 0
		}
		if ok, wait := c.breaker.Allow(); !ok {
			c.tel.fastFails.Inc()
			hint = wait
			lastErr = fmt.Errorf("httpdash: manifest: %w (cooling down %v)", ErrCircuitOpen, wait)
			continue
		}
		attemptCtx, cancel := c.attemptContext(ctx)
		info, a, err := GetManifest(attemptCtx, c.httpClient, c.baseURL)
		cancel()
		if err == nil {
			c.breaker.Record(true)
			return info, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			c.breaker.drop()
			return dash.MPDInfo{}, lastErr
		}
		c.breaker.Record(a.Final())
		if a.Final() {
			return dash.MPDInfo{}, lastErr
		}
		hint = a.RetryAfter
	}
	return dash.MPDInfo{}, lastErr
}
