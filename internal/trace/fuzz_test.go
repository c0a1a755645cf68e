package trace

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"ecavs/internal/netsim"
	"ecavs/internal/vibration"
)

// The CSV decoders must never panic on arbitrary input — they return
// errors for anything malformed.

func FuzzDecodeNetworkCSV(f *testing.F) {
	f.Add("time_sec,signal_dbm,throughput_mbps\n0,-90,10\n")
	f.Add("0,-90,10\n1,-95,8\n")
	f.Add("a,b,c\n")
	f.Add("")
	f.Add("1,2\n")
	f.Add("1,2,3,4\n")
	f.Add("\"unterminated")
	f.Fuzz(func(t *testing.T, input string) {
		points, err := DecodeNetworkCSV(strings.NewReader(input))
		if err != nil {
			return
		}
		// On success every point must carry finite values.
		for _, p := range points {
			if p.ThroughputMBps != p.ThroughputMBps { // NaN check
				t.Errorf("NaN throughput from %q", input)
			}
		}
	})
}

func FuzzDecodeAccelCSV(f *testing.F) {
	f.Add("time_sec,x,y,z\n0,0,0,9.8\n")
	f.Add("0,0,0,9.8\n0.02,0.1,-0.1,9.7\n")
	f.Add("x\n")
	f.Add("")
	f.Add("1,2,3,nope\n")
	f.Fuzz(func(t *testing.T, input string) {
		_, _ = DecodeAccelCSV(strings.NewReader(input))
	})
}

// FuzzCompiledVibrationAt drives the compiled-vs-reference agreement
// contract: for any generated trace, query time, and window —
// including query times beyond the trace end and windows longer than
// the whole trace — the stateless compiled query must match the
// reference two-pass query within 1e-9, and the Cursor fast path must
// equal the stateless query exactly, cold and after a monotone
// approach. The fuzzer controls the trace shape (seed, sample count,
// rate irregularity, vibration amplitude) and the query geometry.
func FuzzCompiledVibrationAt(f *testing.F) {
	f.Add(int64(1), uint16(50), 0.02, 1.0, 5.0, 6.0)
	f.Add(int64(2), uint16(2), 3.0, 0.0, -1.0, 0.0)      // sparse, default window
	f.Add(int64(3), uint16(1000), 0.01, 4.0, 400.0, 2.0) // far past end
	f.Add(int64(4), uint16(300), 0.5, 0.1, 3.0, 9999.0)  // window >> trace
	f.Add(int64(5), uint16(10), 1.0, 2.0, -50.0, 3.0)    // before start
	f.Fuzz(func(t *testing.T, seed int64, n uint16, gap, amp, tSec, windowSec float64) {
		if n == 0 {
			n = 1
		}
		if !isFinite(gap) || !isFinite(amp) || !isFinite(tSec) || !isFinite(windowSec) {
			t.Skip("non-finite geometry")
		}
		if gap <= 0 || gap > 10 {
			gap = 0.02
		}
		if amp < 0 || amp > 100 {
			amp = 1
		}
		rng := rand.New(rand.NewSource(seed))
		tr := &Trace{
			LengthSec:         float64(n) * gap,
			NativeBitrateMbps: 1,
			Network:           []netsim.TracePoint{{TimeSec: 0, SignalDBm: -90, ThroughputMBps: 2}},
		}
		ts := 0.0
		for i := 0; i < int(n); i++ {
			tr.Accel = append(tr.Accel, vibration.Sample{
				TimeSec: ts,
				X:       rng.NormFloat64() * amp,
				Y:       rng.NormFloat64() * amp,
				Z:       vibration.Gravity + rng.NormFloat64()*amp,
			})
			ts += gap * (0.1 + 1.8*rng.Float64()) // irregular sampling
		}
		c, err := Compile(tr)
		if err != nil {
			t.Fatalf("Compile rejected a valid trace: %v", err)
		}
		ref := tr.vibrationAt(tSec, windowSec)
		want := c.vibrationAt(tSec, windowSec)
		if math.Abs(want-ref) > vibTolerance {
			t.Fatalf("stateless vibrationAt(%v, %v) = %.15g, reference %.15g (Δ=%g, n=%d amp=%v)",
				tSec, windowSec, want, ref, want-ref, n, amp)
		}
		// The cursor must equal the stateless query both on a cold
		// query and after a monotone approach to the same time.
		cur := c.Cursor()
		if got := cur.VibrationAt(tSec, windowSec); got != want {
			t.Fatalf("cold Cursor.VibrationAt(%v, %v) = %.15g, stateless %.15g",
				tSec, windowSec, got, want)
		}
		cur = c.Cursor()
		for _, frac := range []float64{0.25, 0.5, 0.75, 1.0} {
			cur.VibrationAt(tSec*frac, windowSec)
		}
		if got := cur.VibrationAt(tSec, windowSec); got != want {
			t.Fatalf("warm Cursor.VibrationAt(%v, %v) = %.15g, stateless %.15g",
				tSec, windowSec, got, want)
		}
	})
}

func isFinite(x float64) bool {
	return !math.IsNaN(x) && !math.IsInf(x, 0)
}
