package httpdash

import (
	"context"
	"math"
	"testing"

	"ecavs/internal/abr"
	"ecavs/internal/power"
)

// contextSpy chooses scripted rungs and records every decision context
// it is asked for.
type contextSpy struct {
	rungs []int
	seen  []abr.Context
}

func (s *contextSpy) Name() string { return "context-spy" }

func (s *contextSpy) ChooseRung(ctx abr.Context) (int, error) {
	s.seen = append(s.seen, ctx)
	return s.rungs[ctx.SegmentIndex%len(s.rungs)], nil
}

func (s *contextSpy) ObserveDownload(float64) {}
func (s *contextSpy) Reset()                  { s.seen = s.seen[:0] }

// wantBuffers replays the DESIGN.md §11 buffer rule for a clean session
// of n segments of segSec seconds at the given pipeline depth, in the
// limit where the real time between consumptions vanishes. A decision
// sees the buffer plus the in-flight segments, clamped to
// threshold − segSec once it reaches the threshold; a consumption
// first plays a buffer at the threshold down to threshold − segSec,
// then adds the segment. With no drain the buffer can land exactly on
// the threshold, where a real run, drained a little, is just below it:
// so the model clamps only above the threshold.
func wantBuffers(n, depth int, segSec, threshold float64) []float64 {
	var out []float64
	buf := 0.0
	issued := 0
	for played := 0; played < n; played++ {
		for ; issued-played < depth && issued < n; issued++ {
			p := buf + float64(issued-played)*segSec
			if p > threshold {
				p = threshold - segSec
			}
			out = append(out, p)
		}
		if buf > threshold {
			buf = threshold - segSec
		}
		buf += segSec
	}
	return out
}

// TestDecisionContextPinned pins what the HTTP client's algorithm sees
// at every decision on a clean loopback server with threshold 8, at
// pipeline depths 1 and 3: the buffer by the §11 projection rule, the
// segment's duration, and PrevRung as the newest issued segment's
// rung. Real time between consumptions drains the buffer a little, by
// the wall time of a loopback fetch (well under a millisecond per
// segment on an idle machine); the 0.5 s tolerance allows a loaded
// machine that much and is still far below the 2 s a wrong rule is
// off by.
func TestDecisionContextPinned(t *testing.T) {
	const (
		threshold = 8.0
		segSec    = 2.0
		drainTol  = 0.5
	)
	for _, depth := range []int{1, 3} {
		_, ts := newTestServer(t, 20)
		spy := &contextSpy{rungs: []int{2, 3, 1, 3}}
		client, err := NewClient(ts.URL, spy, WithBufferThreshold(threshold), WithFetchAhead(depth-1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := client.Stream(context.Background()); err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		want := wantBuffers(10, depth, segSec, threshold)
		if len(spy.seen) != len(want) {
			t.Fatalf("depth %d: %d decisions, want %d", depth, len(spy.seen), len(want))
		}
		for i, ctx := range spy.seen {
			if ctx.SegmentIndex != i {
				t.Fatalf("depth %d: decision %d is for segment %d", depth, i, ctx.SegmentIndex)
			}
			if got := ctx.BufferSec; got > want[i]+1e-9 || got < want[i]-drainTol {
				t.Errorf("depth %d segment %d: BufferSec %.4f, want %.4f (drained by at most %.1f s)", depth, i, got, want[i], drainTol)
			}
			if ctx.SegmentDurationSec != segSec {
				t.Errorf("depth %d segment %d: SegmentDurationSec %v, want %v", depth, i, ctx.SegmentDurationSec, segSec)
			}
			wantPrev := -1
			if i > 0 {
				wantPrev = spy.rungs[(i-1)%len(spy.rungs)]
			}
			if ctx.PrevRung != wantPrev {
				t.Errorf("depth %d segment %d: PrevRung %d, want %d", depth, i, ctx.PrevRung, wantPrev)
			}
			if ctx.BufferThresholdSec != threshold {
				t.Errorf("depth %d segment %d: BufferThresholdSec %v, want %v", depth, i, ctx.BufferThresholdSec, threshold)
			}
		}
	}
}

// TestShortFinalSegment streams a 21 s presentation cut into 2 s
// segments: the final segment lasts 1 s, and the origin sends half a
// full segment's bytes for it. The last decision must see that
// duration and size estimates for a 1 s segment, not a full one's.
func TestShortFinalSegment(t *testing.T) {
	for _, depth := range []int{1, 3} {
		_, ts := newTestServer(t, 21)
		spy := &contextSpy{rungs: []int{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5}}
		client, err := NewClient(ts.URL, spy, WithBufferThreshold(8), WithFetchAhead(depth-1))
		if err != nil {
			t.Fatal(err)
		}
		stats, err := client.Stream(context.Background())
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		if len(spy.seen) != 11 || len(stats.Fetches) != 11 {
			t.Fatalf("depth %d: %d decisions and %d fetches, want 11 each", depth, len(spy.seen), len(stats.Fetches))
		}
		for i, ctx := range spy.seen {
			dur := 2.0
			if i == 10 {
				dur = 1
			}
			if ctx.SegmentDurationSec != dur {
				t.Errorf("depth %d segment %d: SegmentDurationSec %v, want %v", depth, i, ctx.SegmentDurationSec, dur)
			}
			for j, r := range ctx.Ladder {
				if want := r.BitrateMbps * dur / 8; math.Abs(ctx.SegmentSizesMB[j]-want) > 1e-12 {
					t.Errorf("depth %d segment %d rung %d: size estimate %v MB, want %v", depth, i, j, ctx.SegmentSizesMB[j], want)
				}
			}
		}
		if last, first := stats.Fetches[10], stats.Fetches[0]; last.Rung != 5 || first.Rung != 0 {
			t.Fatalf("depth %d: fetched rungs %d … %d, want 0 … 5", depth, first.Rung, last.Rung)
		}
	}
}

// TestStreamMetricsMatchFetches checks that the energy and QoE Metrics
// Stream returns agree with its per-segment Fetches, on a 21 s
// presentation whose final segment lasts 1 s: the payload, the
// switches, the duration-weighted mean bitrate, and decode energy for
// exactly the content fetched (so the final segment filled the buffer
// with 1 s, not 2).
func TestStreamMetricsMatchFetches(t *testing.T) {
	pm := power.EvalModel()
	for _, depth := range []int{1, 3} {
		_, ts := newTestServer(t, 21)
		spy := &contextSpy{rungs: []int{1, 1, 4, 2, 5}}
		client, err := NewClient(ts.URL, spy, WithBufferThreshold(8), WithFetchAhead(depth-1))
		if err != nil {
			t.Fatal(err)
		}
		stats, err := client.Stream(context.Background())
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		if len(stats.Fetches) != 11 {
			t.Fatalf("depth %d: %d fetches, want 11", depth, len(stats.Fetches))
		}
		var switches int
		var brDur, durSum, playJ float64
		for i, f := range stats.Fetches {
			dur := 2.0
			if i == 10 {
				dur = 1
			}
			if i > 0 && f.Rung != stats.Fetches[i-1].Rung {
				switches++
			}
			brDur += f.BitrateMbps * dur
			durSum += dur
			playJ += pm.PlaybackPowerW(f.BitrateMbps) * dur
		}
		m := stats.Metrics
		if m.Algorithm != spy.Name() || m.Segments != nil {
			t.Errorf("depth %d: Algorithm %q with %d logged segments, want %q metrics-only", depth, m.Algorithm, len(m.Segments), spy.Name())
		}
		if want := float64(stats.TotalBytes) / 1e6; math.Abs(m.DownloadedMB-want) > 1e-9 {
			t.Errorf("depth %d: DownloadedMB %v, want TotalBytes/1e6 = %v", depth, m.DownloadedMB, want)
		}
		if m.Switches != switches {
			t.Errorf("depth %d: Switches %d, Fetches show %d", depth, m.Switches, switches)
		}
		if want := brDur / durSum; math.Abs(m.MeanBitrateMbps-want) > 1e-12 {
			t.Errorf("depth %d: MeanBitrateMbps %v, want the duration-weighted %v", depth, m.MeanBitrateMbps, want)
		}
		if math.Abs(m.PlaybackJ-playJ) > 1e-9*playJ {
			t.Errorf("depth %d: PlaybackJ %v, want %v for 21 s of the fetched rungs", depth, m.PlaybackJ, playJ)
		}
		if m.TotalJ() <= m.PlaybackJ || m.DownloadJ <= 0 || m.MeanQoE <= 0 || m.SessionQoE <= 0 {
			t.Errorf("depth %d: degenerate metering: %+v", depth, m)
		}
		if stats.StallSec != m.StartupSec+m.RebufferSec {
			t.Errorf("depth %d: StallSec %v, want StartupSec + RebufferSec = %v", depth, stats.StallSec, m.StartupSec+m.RebufferSec)
		}
	}
}
