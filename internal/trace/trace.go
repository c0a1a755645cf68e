// Package trace defines the measurement traces the paper's evaluation
// replays (Section V-A): a network trace (download throughput and
// timing, as extracted from tcpdump), a signal-strength trace (ADB
// telephony registry), and an accelerometer trace — bundled per viewing
// session. It provides CSV encoding/decoding and a seeded generator
// that reproduces the five evaluation traces of Table V.
package trace

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"ecavs/internal/netsim"
	"ecavs/internal/vibration"
)

// Trace bundles one viewing session's recorded context.
//
// A Trace must not be mutated (or copied by value) once handed to the
// simulator: the first Compiled call memoizes derived series built
// from the Network/Accel slices, and every later consumer shares them.
type Trace struct {
	// ID is the Table V trace number (1-5) or 0 for ad-hoc traces.
	ID int
	// Name describes the session ("bus commute").
	Name string
	// LengthSec is the video length (Table V "Length").
	LengthSec float64
	// NativeBitrateMbps is the watched video's average encoded bitrate;
	// it determines the Table V "Data size" column.
	NativeBitrateMbps float64
	// Network is the replayable link trace (signal + throughput).
	Network []netsim.TracePoint
	// Accel is the accelerometer stream.
	Accel []vibration.Sample

	// compiled memoizes the trace's compiled form so sessions, sweeps,
	// and campaign shards all share one compilation per trace.
	compiled atomic.Pointer[Compiled]
}

// Compile/hit counters behind CompileStats, exported to telemetry by
// the campaign runner.
var (
	compileCount    atomic.Uint64
	compileHitCount atomic.Uint64
)

// Compiled returns the trace's compiled form, building and memoizing
// it on first use. Concurrent first calls may both compile; exactly
// one result wins the publication race and all callers observe the
// same *Compiled afterwards, so sharing stays pointer-equal.
func (t *Trace) Compiled() (*Compiled, error) {
	if c := t.compiled.Load(); c != nil {
		compileHitCount.Add(1)
		return c, nil
	}
	c, err := Compile(t)
	if err != nil {
		return nil, err
	}
	compileCount.Add(1)
	if !t.compiled.CompareAndSwap(nil, c) {
		c = t.compiled.Load()
	}
	return c, nil
}

// CompileStats reports process-wide counts of trace compilations and
// memoized-cache hits (Compiled calls that reused an earlier
// compilation). The campaign runner surfaces both as telemetry gauges
// so amortization is observable: a healthy campaign shows compiles ==
// number of distinct traces and hits growing with session count.
func CompileStats() (compiles, hits uint64) {
	return compileCount.Load(), compileHitCount.Load()
}

// Validation errors.
var (
	ErrNoNetwork = errors.New("trace: no network points")
	ErrNoAccel   = errors.New("trace: no accelerometer samples")
	ErrBadLength = errors.New("trace: non-positive length")
)

// Validate reports whether the trace is usable for simulation.
func (t *Trace) Validate() error {
	if t.LengthSec <= 0 {
		return ErrBadLength
	}
	if len(t.Network) == 0 {
		return ErrNoNetwork
	}
	if len(t.Accel) == 0 {
		return ErrNoAccel
	}
	for i := 1; i < len(t.Network); i++ {
		if t.Network[i].TimeSec < t.Network[i-1].TimeSec {
			return fmt.Errorf("trace: network point %d out of order", i)
		}
	}
	for i := 1; i < len(t.Accel); i++ {
		// Negated so a NaN timestamp is out of order too: the cursor's
		// galloping search relies on a sorted series.
		if !(t.Accel[i].TimeSec >= t.Accel[i-1].TimeSec) {
			return fmt.Errorf("trace: accel sample %d out of order", i)
		}
	}
	return nil
}

// DataSizeMB returns the Table V "Data size" column: the video's
// payload at its native average bitrate.
func (t *Trace) DataSizeMB() float64 {
	return t.NativeBitrateMbps / 8 * t.LengthSec
}

// AvgVibration returns the session-average vibration level: the mean of
// Eq. 5 computed over consecutive windows (matching how the paper
// reports Table V's "Avg. vibration").
func (t *Trace) AvgVibration() float64 {
	return WindowedVibration(t.Accel, vibration.DefaultWindowSec)
}

// WindowedVibration computes the mean of per-window Eq. 5 levels over
// the sample stream.
func WindowedVibration(samples []vibration.Sample, windowSec float64) float64 {
	if len(samples) < 2 || windowSec <= 0 {
		return 0
	}
	var (
		sum     float64
		windows int
		start   int
	)
	t0 := samples[0].TimeSec
	for i, s := range samples {
		if s.TimeSec-t0 >= windowSec || i == len(samples)-1 {
			if i > start+1 {
				sum += vibration.Level(samples[start : i+1])
				windows++
			}
			start = i
			t0 = s.TimeSec
		}
	}
	if windows == 0 {
		return vibration.Level(samples)
	}
	return sum / float64(windows)
}

// AvgSignalDBm returns the time-averaged signal strength of the
// network trace.
func (t *Trace) AvgSignalDBm() float64 {
	if len(t.Network) == 0 {
		return 0
	}
	var sum float64
	for _, p := range t.Network {
		sum += p.SignalDBm
	}
	return sum / float64(len(t.Network))
}

// AvgThroughputMbps returns the average achievable link rate in Mbps.
func (t *Trace) AvgThroughputMbps() float64 {
	if len(t.Network) == 0 {
		return 0
	}
	var sum float64
	for _, p := range t.Network {
		sum += p.ThroughputMBps
	}
	return sum / float64(len(t.Network)) * 8
}

// Link returns a replayable netsim.Link over the trace's network
// points.
func (t *Trace) Link() (*netsim.TraceLink, error) {
	return netsim.NewTraceLink(t.Network)
}

// VibrationAt returns the Eq. 5 vibration level over the window
// [tSec-windowSec, tSec] of the accelerometer stream — what the online
// algorithm's estimator would report at time tSec.
//
// Edge cases are pinned (and shared with the compiled fast path and
// vibration.Estimator):
//   - windowSec <= 0 falls back to vibration.DefaultWindowSec;
//   - a window covering fewer than two samples reports 0 — in
//     particular any query more than windowSec past the last sample
//     (there is no context to estimate from, and 0 keeps the QoE
//     impairment term inactive rather than extrapolating);
//   - queries before the first sample likewise see an empty window and
//     report 0.
//
// This is the REFERENCE implementation: the compiled prefix-sum path
// (Compiled.VibrationAt) must agree with it within 1e-9, enforced by
// property and fuzz tests.
//
// Accel is validated time-ordered, so the window is a contiguous run
// of samples: its bounds are binary-searched and the sub-slice handed
// to vibration.Level directly, keeping the per-segment call O(log n +
// window) and allocation-free (the simulator calls this once per
// segment, and a linear rescan from the stream start dominated whole
// session replays).
func (t *Trace) VibrationAt(tSec, windowSec float64) float64 {
	if windowSec <= 0 {
		windowSec = vibration.DefaultWindowSec
	}
	lo := tSec - windowSec
	i := sort.Search(len(t.Accel), func(k int) bool { return t.Accel[k].TimeSec >= lo })
	j := sort.Search(len(t.Accel), func(k int) bool { return t.Accel[k].TimeSec > tSec })
	return vibration.Level(t.Accel[i:j])
}
