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

// downloadStepSec is the integration step for downloads; 100 ms is
// well below both the 2 s segment duration and the channel coherence
// time.
const downloadStepSec = 0.1

// maxStallSec bounds how long a download waits on a dead link before
// giving up.
const maxStallSec = 120

// DownloadRamped transfers sizeMB over the link, advancing it as time
// passes, and invokes onStep (if non-nil) with the duration and signal
// strength of every integration step that moves payload, before the
// link advances over it, so the caller can integrate energy without
// netsim knowing about power models.
// A positive rampSec applies a TCP-slow-start-style ramp: the
// achievable rate scales linearly from zero to the link rate over the
// first rampSec seconds of the transfer. Short transfers (small
// segments) never reach full speed, which is the classic reason longer
// DASH segments use a link more efficiently.
func DownloadRamped(link Link, sizeMB, rampSec float64, onStep func(dt, signalDBm float64)) (Result, error) {
	if sizeMB <= 0 {
		return Result{}, nil
	}
	var (
		elapsed   float64
		sigWeight float64
		stalled   float64
		remaining = sizeMB
	)
	for remaining > 1e-12 {
		th := link.ThroughputMBps()
		if rampSec > 0 && elapsed < rampSec {
			// Slow start: average rate over the next step, linearised.
			frac := (elapsed + downloadStepSec/2) / rampSec
			if frac > 1 {
				frac = 1
			}
			th *= frac
		}
		if th <= 0 {
			stalled += downloadStepSec
			if stalled > maxStallSec {
				return Result{}, ErrStalledLink
			}
			link.Advance(downloadStepSec)
			elapsed += downloadStepSec
			continue
		}
		stalled = 0
		dt := downloadStepSec
		moved := th * dt
		if moved > remaining {
			moved = remaining
			dt = remaining / th
		}
		sig := link.SignalDBm()
		if onStep != nil {
			onStep(dt, sig)
		}
		sigWeight += sig * moved
		remaining -= moved
		link.Advance(dt)
		elapsed += dt
	}
	if elapsed <= 0 {
		elapsed = 1e-9
	}
	return Result{
		DurationSec:        elapsed,
		MeanSignalDBm:      sigWeight / sizeMB,
		MeanThroughputMBps: sizeMB / elapsed,
	}, nil
}
