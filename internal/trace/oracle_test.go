package trace

import (
	"sort"

	"ecavs/internal/vibration"
)

// The oracles of the compiled Cursor path: the reference two-pass
// vibration query over the raw samples, and the stateless compiled
// queries (a fresh binary search per call, no cached index). Sessions
// read a trace only through Compiled.Link and Cursor; these stay so
// the property and fuzz tests can check the cursor against them.

// vibrationAt returns the Eq. 5 vibration level over the window
// [tSec-windowSec, tSec] of the accelerometer stream, computed two-pass
// by vibration.Level over the window's samples. The edge cases are the
// Cursor's: windowSec <= 0 means vibration.DefaultWindowSec, and a
// window covering fewer than two samples (before the first sample, or
// more than windowSec past the last) reports 0.
func (t *Trace) vibrationAt(tSec, windowSec float64) float64 {
	if windowSec <= 0 {
		windowSec = vibration.DefaultWindowSec
	}
	lo := tSec - windowSec
	i := sort.Search(len(t.Accel), func(k int) bool { return t.Accel[k].TimeSec >= lo })
	j := sort.Search(len(t.Accel), func(k int) bool { return t.Accel[k].TimeSec > tSec })
	return vibration.Level(t.Accel[i:j])
}

// vibrationAt is Cursor.VibrationAt from the prefix sums without a
// cursor: two binary searches over the whole stream.
func (c *Compiled) vibrationAt(tSec, windowSec float64) float64 {
	if windowSec <= 0 {
		windowSec = vibration.DefaultWindowSec
	}
	i := searchGE(c.accelT, tSec-windowSec)
	j := searchGT(c.accelT, tSec)
	return c.levelFromPrefix(i, j)
}

// signalAt is Cursor.SignalAt without a cursor.
func (c *Compiled) signalAt(tSec float64) float64 {
	return c.sigDBm[c.netIdxAt(tSec)]
}

// throughputMBpsAt is Cursor.ThroughputMBpsAt without a cursor.
func (c *Compiled) throughputMBpsAt(tSec float64) float64 {
	return c.thrMBps[c.netIdxAt(tSec)]
}
