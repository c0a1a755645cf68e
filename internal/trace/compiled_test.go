package trace

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ecavs/internal/netsim"
	"ecavs/internal/vibration"
)

// vibTolerance is the documented agreement contract between the
// compiled prefix-sum vibration query and the reference two-pass
// implementation (DESIGN.md §10).
const vibTolerance = 1e-9

// randomTrace builds a trace with irregular sample spacing and mixed
// calm/shaky stretches so windows hit every density regime.
func randomTrace(rng *rand.Rand) *Trace {
	lengthSec := 5 + rng.Float64()*115
	tr := &Trace{
		ID:                0,
		Name:              "random",
		LengthSec:         lengthSec,
		NativeBitrateMbps: 1 + rng.Float64()*4,
	}
	for t := 0.0; t < lengthSec; t += 0.5 + rng.Float64()*2 {
		tr.Network = append(tr.Network, netsim.TracePoint{
			TimeSec:        t,
			SignalDBm:      -120 + rng.Float64()*40,
			ThroughputMBps: rng.Float64() * 4,
		})
	}
	amp := rng.Float64() * 3
	for t := 0.0; t < lengthSec; {
		tr.Accel = append(tr.Accel, vibration.Sample{
			TimeSec: t,
			X:       rng.NormFloat64() * amp,
			Y:       rng.NormFloat64() * amp,
			Z:       vibration.Gravity + rng.NormFloat64()*amp,
		})
		// Irregular rates, including occasional multi-second gaps that
		// leave some windows with 0 or 1 samples.
		if rng.Intn(20) == 0 {
			t += 1 + rng.Float64()*8
		} else {
			t += 0.01 + rng.Float64()*0.1
		}
	}
	if len(tr.Network) == 0 {
		tr.Network = []netsim.TracePoint{{TimeSec: 0, SignalDBm: -100, ThroughputMBps: 1}}
	}
	if len(tr.Accel) == 0 {
		tr.Accel = []vibration.Sample{{TimeSec: 0, Z: vibration.Gravity}}
	}
	return tr
}

// The tentpole property: across randomized traces, windows, and query
// times — including t beyond the trace end and windows longer than the
// trace — the compiled prefix-sum query agrees with the reference
// two-pass implementation within the 1e-9 contract, for both the
// stateless path and the cursor fast path.
func TestCompiledVibrationMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		tr := randomTrace(rng)
		c, err := Compile(tr)
		if err != nil {
			t.Fatalf("Compile: %v", err)
		}
		cur := c.Cursor()
		for q := 0; q < 300; q++ {
			// Bias towards in-range times but include before-start and
			// past-end queries.
			tSec := rng.Float64()*tr.LengthSec*1.3 - tr.LengthSec*0.1
			var windowSec float64
			switch rng.Intn(4) {
			case 0:
				windowSec = 0 // default-window fallback
			case 1:
				windowSec = tr.LengthSec * (1 + rng.Float64()) // longer than the trace
			default:
				windowSec = 0.05 + rng.Float64()*12
			}
			want := tr.vibrationAt(tSec, windowSec)
			if got := c.vibrationAt(tSec, windowSec); math.Abs(got-want) > vibTolerance {
				t.Fatalf("trial %d: stateless vibrationAt(%v, %v) = %.15g, reference %.15g (Δ=%g)",
					trial, tSec, windowSec, got, want, got-want)
			}
			if got := cur.VibrationAt(tSec, windowSec); math.Abs(got-want) > vibTolerance {
				t.Fatalf("trial %d: Cursor.VibrationAt(%v, %v) = %.15g, reference %.15g (Δ=%g)",
					trial, tSec, windowSec, got, want, got-want)
			}
		}
	}
}

// regularTrace is a trace sampled at exactly 50 Hz, so segment-paced
// query times and window starts land on sample timestamps.
func regularTrace(rng *rand.Rand, lengthSec int) *Trace {
	tr := &Trace{
		LengthSec:         float64(lengthSec),
		NativeBitrateMbps: 1,
		Network:           []netsim.TracePoint{{TimeSec: 0, SignalDBm: -90, ThroughputMBps: 2}},
	}
	for i := 0; i < lengthSec*50; i++ {
		tr.Accel = append(tr.Accel, vibration.Sample{
			TimeSec: float64(i) / 50,
			X:       rng.NormFloat64(),
			Y:       rng.NormFloat64(),
			Z:       vibration.Gravity + rng.NormFloat64(),
		})
	}
	return tr
}

// The cursor fast path must stay exact (not just within tolerance)
// relative to the stateless compiled path: under its designed monotone
// access pattern at steps from one 50 Hz sample (0.02 s) through a
// segment (2 s) to ten segments (20 s), and across backward jumps that
// take the binary-search fallback — on an irregular trace, and on a
// regular one where query times tie with sample timestamps.
func TestCursorMonotoneMatchesStateless(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, tr := range []*Trace{randomTrace(rng), regularTrace(rng, 120)} {
		cursorMatchesStateless(t, rng, tr)
	}
}

func cursorMatchesStateless(t *testing.T, rng *rand.Rand, tr *Trace) {
	t.Helper()
	c, err := Compile(tr)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	check := func(cur *Cursor, tSec float64) {
		t.Helper()
		if got, want := cur.VibrationAt(tSec, 6), c.vibrationAt(tSec, 6); got != want {
			t.Fatalf("cursor diverged at t=%v: %v != %v", tSec, got, want)
		}
		if got, want := cur.SignalAt(tSec), c.signalAt(tSec); got != want {
			t.Fatalf("cursor signal diverged at t=%v: %v != %v", tSec, got, want)
		}
		if got, want := cur.ThroughputMBpsAt(tSec), c.throughputMBpsAt(tSec); got != want {
			t.Fatalf("cursor throughput diverged at t=%v: %v != %v", tSec, got, want)
		}
	}
	for _, step := range []float64{0.02, 0.37, 2, 2.37, 20} {
		cur := c.Cursor()
		for k := 0; float64(k)*step < tr.LengthSec+12; k++ {
			check(&cur, float64(k)*step-2)
		}
	}
	// Backward jumps: forward runs restarting from random earlier times,
	// plus single steps back of a sample or less.
	cur := c.Cursor()
	tSec := -2.0
	for q := 0; q < 2000; q++ {
		switch rng.Intn(10) {
		case 0:
			tSec = rng.Float64()*(tr.LengthSec+12) - 2
		case 1:
			tSec -= rng.Float64() * 0.03
		default:
			tSec += rng.Float64() * 3
		}
		check(&cur, tSec)
	}
}

// linearGE and linearGT are the cursor's index advance before
// galloping: a walk up from the cached index. They are the oracles
// gallopGE and gallopGT must match.
func linearGE(xs []float64, from int, v float64) int {
	for from < len(xs) && xs[from] < v {
		from++
	}
	return from
}

func linearGT(xs []float64, from int, v float64) int {
	for from < len(xs) && xs[from] <= v {
		from++
	}
	return from
}

// Galloping finds the index the linear walk stops at, from every
// start, for every probe value including duplicates, values between
// and past the samples, on sorted series with runs of equal
// timestamps.
func TestGallopMatchesLinearWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		xs := make([]float64, rng.Intn(300))
		v := 0.0
		for i := range xs {
			if rng.Intn(4) != 0 { // every fourth sample repeats its predecessor
				v += rng.Float64()
			}
			xs[i] = v
		}
		for q := 0; q < 50; q++ {
			probe := rng.Float64()*(v+2) - 1
			if len(xs) > 0 && rng.Intn(2) == 0 {
				probe = xs[rng.Intn(len(xs))]
			}
			// Any start below the first index at or past the probe is
			// a state the cursor can hold.
			from := rng.Intn(searchGE(xs, probe) + 1)
			if got, want := gallopGE(xs, from, probe), linearGE(xs, from, probe); got != want {
				t.Fatalf("gallopGE(from %d, %v) = %d, linear walk %d (n=%d)", from, probe, got, want, len(xs))
			}
			from = rng.Intn(searchGT(xs, probe) + 1)
			if got, want := gallopGT(xs, from, probe), linearGT(xs, from, probe); got != want {
				t.Fatalf("gallopGT(from %d, %v) = %d, linear walk %d (n=%d)", from, probe, got, want, len(xs))
			}
		}
	}
}

// The network step queries must match a TraceLink replay (the
// simulator's ground truth for zero-order hold semantics).
func TestCompiledNetworkMatchesTraceLink(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	tr := randomTrace(rng)
	c, err := Compile(tr)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	link, err := netsim.ReplayTraceLink(tr.Network)
	if err != nil {
		t.Fatalf("ReplayTraceLink: %v", err)
	}
	for tSec := 0.0; tSec < tr.LengthSec+5; tSec += 0.51 {
		link.Advance(tSec - link.Now())
		if got, want := c.signalAt(tSec), link.SignalDBm(); got != want {
			t.Fatalf("SignalAt(%v) = %v, TraceLink says %v", tSec, got, want)
		}
		if got, want := c.throughputMBpsAt(tSec), link.ThroughputMBps(); got != want {
			t.Fatalf("ThroughputMBpsAt(%v) = %v, TraceLink says %v", tSec, got, want)
		}
	}
}

// Pinned edge-case behavior shared by the reference and compiled
// paths (ISSUE 6 satellite): past-the-end queries, before-the-start
// queries, and windows with fewer than two samples all report 0.
func TestVibrationAtEdgeCases(t *testing.T) {
	tr := &Trace{
		LengthSec:         10,
		NativeBitrateMbps: 1,
		Network:           []netsim.TracePoint{{TimeSec: 0, SignalDBm: -90, ThroughputMBps: 2}},
		Accel: []vibration.Sample{
			{TimeSec: 1, X: 1, Z: vibration.Gravity},
			{TimeSec: 2, X: 3, Z: vibration.Gravity},
			{TimeSec: 3, X: 2, Z: vibration.Gravity},
		},
	}
	c, err := Compile(tr)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	cases := []struct {
		name      string
		tSec, win float64
		wantZero  bool
	}{
		{"before first sample", 0.5, 2, true},
		{"window covers one sample", 1.2, 0.5, true},
		{"window covers two samples", 2.1, 2, false},
		{"past end, window still spans samples", 4, 6, false},
		{"far past end", 20, 2, true},
		{"just past end by more than window", 5.5, 2, true},
		{"negative time", -3, 2, true},
		{"default window fallback", 3, 0, false},
	}
	for _, tc := range cases {
		ref := tr.vibrationAt(tc.tSec, tc.win)
		got := c.vibrationAt(tc.tSec, tc.win)
		if (ref == 0) != tc.wantZero {
			t.Errorf("%s: reference VibrationAt(%v, %v) = %v, wantZero=%v",
				tc.name, tc.tSec, tc.win, ref, tc.wantZero)
		}
		if math.Abs(got-ref) > vibTolerance {
			t.Errorf("%s: compiled %v vs reference %v", tc.name, got, ref)
		}
	}
}

// Compilation must be numerically robust against catastrophic
// cancellation: a long, nearly-constant stream around Gravity has tiny
// variance riding on a huge E[m²]; naive prefix sums of m² lose it.
func TestCompiledVibrationNearConstantStream(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	tr := &Trace{
		LengthSec:         3600,
		NativeBitrateMbps: 1,
		Network:           []netsim.TracePoint{{TimeSec: 0, SignalDBm: -90, ThroughputMBps: 2}},
	}
	for i := 0; i < 200_000; i++ {
		tr.Accel = append(tr.Accel, vibration.Sample{
			TimeSec: float64(i) * 0.018,
			Z:       vibration.Gravity + rng.NormFloat64()*1e-4,
		})
	}
	c, err := Compile(tr)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	for _, tSec := range []float64{6, 500, 1800, 3599} {
		want := tr.vibrationAt(tSec, 6)
		got := c.vibrationAt(tSec, 6)
		if math.Abs(got-want) > vibTolerance {
			t.Fatalf("near-constant stream at t=%v: compiled %.15g vs reference %.15g (Δ=%g)",
				tSec, got, want, got-want)
		}
	}
}

// Compile must reject what Validate rejects.
func TestCompileRejectsInvalid(t *testing.T) {
	if _, err := Compile(&Trace{}); err == nil {
		t.Fatal("Compile accepted an empty trace")
	}
}

// The memoized accessor must return the same pointer every call and
// count one compile plus per-call hits.
func TestTraceCompiledMemoizes(t *testing.T) {
	tr := tinyTrace(t)
	c0, h0 := CompileStats()
	c1, err := tr.Compiled()
	if err != nil {
		t.Fatalf("Compiled: %v", err)
	}
	c2, err := tr.Compiled()
	if err != nil {
		t.Fatalf("Compiled: %v", err)
	}
	if c1 != c2 {
		t.Fatal("Compiled() returned different pointers")
	}
	if c1.tr != tr {
		t.Fatal("Compiled() is not built from its trace")
	}
	c3, h3 := CompileStats()
	if c3-c0 != 1 {
		t.Errorf("compiles advanced by %d, want 1", c3-c0)
	}
	if h3-h0 != 1 {
		t.Errorf("hits advanced by %d, want 1", h3-h0)
	}
}

// Link must replay the trace's network points with the zero-order
// hold of the compiled step queries.
func TestCompiledLink(t *testing.T) {
	tr := tinyTrace(t)
	c, err := Compile(tr)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	l := c.Link()
	for i := 0; i < 20; i++ {
		tSec := l.Now()
		if l.SignalDBm() != c.signalAt(tSec) || l.ThroughputMBps() != c.throughputMBpsAt(tSec) {
			t.Fatalf("replay diverged at step %d (t = %v s)", i, tSec)
		}
		l.Advance(0.7)
	}
}

func BenchmarkVibrationAtReference(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	tr := randomTrace(rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.vibrationAt(float64(i%int(tr.LengthSec)), 6)
	}
}

func BenchmarkVibrationAtCompiled(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	tr := randomTrace(rng)
	c, err := Compile(tr)
	if err != nil {
		b.Fatalf("Compile: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.vibrationAt(float64(i%int(tr.LengthSec)), 6)
	}
}

func BenchmarkVibrationAtCursor(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	tr := randomTrace(rng)
	c, err := Compile(tr)
	if err != nil {
		b.Fatalf("Compile: %v", err)
	}
	cur := c.Cursor()
	step := tr.LengthSec / 1000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := float64(i%1000) * step
		if i%1000 == 0 {
			cur = c.Cursor()
		}
		cur.VibrationAt(t, 6)
	}
}

// BenchmarkVibrationAtCursorSegmentPaced is the cursor at a session's
// pace: one query per 2 s segment with the 6 s Eq. 5 window over a
// 612 s trace sampled at 50 Hz, so each query moves both window edges
// by about 100 samples.
func BenchmarkVibrationAtCursorSegmentPaced(b *testing.B) {
	c, err := Compile(regularTrace(rand.New(rand.NewSource(5)), 612))
	if err != nil {
		b.Fatalf("Compile: %v", err)
	}
	const segments = 612 / 2
	cur := c.Cursor()
	var sink float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%segments == 0 {
			cur = c.Cursor()
		}
		sink += cur.VibrationAt(float64(i%segments)*2, 6)
	}
	benchSink = sink
}

var benchSink float64

// The seek finds the index the linear walk stops at, from every start
// index (including starts past the answer, where the walk stays put)
// and for every query value — each sample time, midpoints, values
// below and past the series, ±Inf and NaN — over uniform, jittered,
// gapped and equal-time series, with the rate Compile stores and with
// rates that put the first probe too far in either direction.
func TestSeekMatchesLinearWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	series := map[string][]float64{
		"single":    {3},
		"all equal": {2, 2, 2, 2, 2},
		"infinite":  {math.Inf(-1), 0, 1, math.Inf(1)},
	}
	for _, n := range []int{2, 7, 150} {
		uniform := make([]float64, n)
		jittered := make([]float64, n)
		gapped := make([]float64, n)
		equal := make([]float64, n)
		u, g, e := 0.0, 0.0, 0.0
		for i := 0; i < n; i++ {
			uniform[i] = float64(i) / 50
			jittered[i] = u
			u += 0.02 * (0.1 + 1.8*rng.Float64())
			gapped[i] = g
			if rng.Intn(15) == 0 {
				g += 1 + 8*rng.Float64()
			} else {
				g += 0.02
			}
			equal[i] = e
			if rng.Intn(3) == 0 { // runs of equal timestamps
				e += 0.02
			}
		}
		series[fmt.Sprintf("uniform %d", n)] = uniform
		series[fmt.Sprintf("jittered %d", n)] = jittered
		series[fmt.Sprintf("gapped %d", n)] = gapped
		series[fmt.Sprintf("equal-time %d", n)] = equal
	}
	for name, xs := range series {
		queries := []float64{math.Inf(-1), math.Inf(1), math.NaN(), -1e300, 1e300}
		for i, x := range xs {
			queries = append(queries, x, x-1e-9, x+1e-9, x-1, x+1)
			if i > 0 {
				queries = append(queries, (xs[i-1]+x)/2)
			}
		}
		rate := meanRate(xs)
		for _, r := range []float64{rate, rate * 3, rate / 3, 0} {
			c := &Compiled{accelT: xs, rate: r}
			for _, v := range queries {
				for from := 0; from <= len(xs); from++ {
					if got, want := c.seekGE(from, v), linearGE(xs, from, v); got != want {
						t.Fatalf("%s, rate %v: seekGE(from %d, %v) = %d, linear walk %d", name, r, from, v, got, want)
					}
					if got, want := c.seekGT(from, v), linearGT(xs, from, v); got != want {
						t.Fatalf("%s, rate %v: seekGT(from %d, %v) = %d, linear walk %d", name, r, from, v, got, want)
					}
				}
			}
		}
	}
}

// meanRate is the seek's first guess, and only a positive finite rate
// may reach it: anything else would send a NaN or an infinity into the
// probe's float-to-int conversion.
func TestMeanRateGuards(t *testing.T) {
	for _, tc := range []struct {
		name string
		ts   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"one sample", []float64{5}, 0},
		{"zero span", []float64{1, 1, 1}, 0},
		{"infinite span", []float64{math.Inf(-1), 0, 1}, 0},
		{"infinite end", []float64{0, 1, math.Inf(1)}, 0},
		{"overflowing span", []float64{-math.MaxFloat64, math.MaxFloat64}, 0},
		{"50 Hz", []float64{0, 0.02, 0.04, 0.06}, 3 / 0.06},
	} {
		if got := meanRate(tc.ts); got != tc.want {
			t.Errorf("%s: meanRate = %v, want %v", tc.name, got, tc.want)
		}
	}
}
