// Package netsim simulates the cellular link the paper's traces were
// collected on: a mean-reverting signal-strength process per viewing
// context, a signal-to-throughput mapping with multiplicative fading,
// and the bandwidth estimators (harmonic mean, EWMA, last-sample) the
// ABR algorithms use.
//
// The Link abstraction also admits trace playback (TraceLink), which is
// how the trace-driven evaluation of Section V replays recorded
// network conditions.
package netsim

import "errors"

// Link is a time-stepped view of the radio link: the current signal
// strength and achievable throughput, advanced by the simulation loop.
type Link interface {
	// Now returns the link-local clock in seconds.
	Now() float64
	// SignalDBm returns the current signal strength.
	SignalDBm() float64
	// ThroughputMBps returns the currently achievable link rate in
	// megabytes per second.
	ThroughputMBps() float64
	// Advance moves the link clock forward by dt seconds.
	Advance(dt float64)
	// Hold returns the current rate and signal, as ThroughputMBps and
	// SignalDBm read them, and how many of the next Advance(dt) calls
	// they stay current for: after k calls, for every k < n, both read
	// th and sig. For limit ≥ 1, n is at least 1 (k = 0 is now) and at
	// most limit, and is never overstated; a link that cannot tell
	// returns 1. Hold moves no clock and draws from no random stream.
	Hold(dt float64, limit int) (n int, th, sig float64)
	// AdvanceSteps is exactly n calls of Advance(dt): the same clock
	// and state, bit for bit, and the same random draws.
	AdvanceSteps(n int, dt float64)
}

// Result summarises a completed download.
type Result struct {
	// DurationSec is the wall-clock download time.
	DurationSec float64
	// MeanSignalDBm is the transfer-weighted mean signal strength.
	MeanSignalDBm float64
	// MeanThroughputMBps is the effective rate: size / duration.
	MeanThroughputMBps float64
}

// ErrStalledLink is returned when the link rate stays at zero so a
// download cannot finish.
var ErrStalledLink = errors.New("netsim: link stalled at zero throughput")
