package multisim

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"ecavs/internal/abr"
	"ecavs/internal/dash"
)

func testManifest(t *testing.T, durationSec float64, seed int64) *dash.Manifest {
	t.Helper()
	video := dash.Video{Title: "multi", SpatialInfo: 45, TemporalInfo: 15, DurationSec: durationSec}
	m, err := dash.NewManifest(video, dash.TableIILadder(), dash.ManifestConfig{SegmentSec: 2, VBRJitter: 0, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func festiveClients(t *testing.T, n int, durationSec float64) []Client {
	t.Helper()
	out := make([]Client, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, Client{
			Name:      string(rune('A' + i)),
			Manifest:  testManifest(t, durationSec, int64(i)),
			Algorithm: abr.NewFESTIVE(),
		})
	}
	return out
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{CapacityMbps: 10}); !errors.Is(err, ErrNoClients) {
		t.Errorf("err = %v, want ErrNoClients", err)
	}
	if _, err := Run(Config{Clients: festiveClients(t, 1, 20)}); !errors.Is(err, ErrBadCapacity) {
		t.Errorf("err = %v, want ErrBadCapacity", err)
	}
	bad := Config{Clients: []Client{{Name: "x"}}, CapacityMbps: 10}
	if _, err := Run(bad); err == nil {
		t.Error("client without manifest accepted")
	}
}

func TestSingleClientGetsFullCapacity(t *testing.T) {
	res, err := Run(Config{
		Clients:      festiveClients(t, 1, 60),
		CapacityMbps: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := res.Clients[0]
	if len(c.Rungs) != 30 {
		t.Fatalf("segments = %d, want 30", len(c.Rungs))
	}
	// Alone on a 20 Mbps link, FESTIVE climbs to the 5.8 rung.
	last := c.Rungs[len(c.Rungs)-1]
	if last != 5 {
		t.Errorf("final rung = %d, want 5 (top)", last)
	}
	if res.JainFairness != 1 {
		t.Errorf("single-client fairness = %v, want 1", res.JainFairness)
	}
	if c.RebufferSec > 0.5 {
		t.Errorf("unexpected stalling: %v s", c.RebufferSec)
	}
}

func TestThreeClientsShareFairly(t *testing.T) {
	// 12 Mbps shared three ways: ~4 Mbps each; FESTIVE should settle
	// around the 3.0 rung for everyone, with high Jain fairness.
	res, err := Run(Config{
		Clients:      festiveClients(t, 3, 120),
		CapacityMbps: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.JainFairness < 0.9 {
		t.Errorf("Jain fairness = %.3f, want >= 0.9", res.JainFairness)
	}
	for _, c := range res.Clients {
		if len(c.Rungs) != 60 {
			t.Fatalf("client %s fetched %d segments, want 60", c.Name, len(c.Rungs))
		}
		if c.MeanBitrateMbps > 4.5 {
			t.Errorf("client %s mean bitrate %.2f exceeds its fair share", c.Name, c.MeanBitrateMbps)
		}
		if c.MeanBitrateMbps < 1.0 {
			t.Errorf("client %s starved at %.2f Mbps", c.Name, c.MeanBitrateMbps)
		}
	}
}

func TestStaggeredJoin(t *testing.T) {
	clients := festiveClients(t, 2, 60)
	clients[1].StartOffsetSec = 20
	res, err := Run(Config{Clients: clients, CapacityMbps: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Clients {
		if len(c.Rungs) != 30 {
			t.Errorf("client %s fetched %d segments, want 30", c.Name, len(c.Rungs))
		}
	}
}

// Capacity conservation: total payload downloaded cannot exceed
// capacity x duration. The three clients need 600 s of this link for
// their 90 bottom-rung segments, so the run's bound (four times the
// 60 s video plus 120 s) stops it mid-session and the span is known:
// at most 360 s plus the last 0.1 s step.
func TestCapacityConservation(t *testing.T) {
	clients := festiveClients(t, 3, 60)
	res, err := Run(Config{Clients: clients, CapacityMbps: 0.03})
	if !errors.Is(err, ErrIncomplete) {
		t.Fatalf("err = %v, want ErrIncomplete: the bound stops this run", err)
	}
	totalMB := deliveredMB(t, clients, res)
	budget := 0.03 / 8 * (60*4 + 120 + 0.1)
	if totalMB <= 0 || totalMB > budget*1.01 {
		t.Errorf("downloaded %.3f MB over a %.3f MB capacity budget", totalMB, budget)
	}
}

// deliveredMB sums the payload of every segment the clients fetched.
func deliveredMB(t *testing.T, clients []Client, res *Result) float64 {
	t.Helper()
	var total float64
	for i, c := range res.Clients {
		for seg, rung := range c.Rungs {
			sizes, err := clients[i].Manifest.SegmentSizes(seg)
			if err != nil {
				t.Fatal(err)
			}
			total += sizes[rung]
		}
	}
	return total
}

func TestJainIndex(t *testing.T) {
	if got := jain([]float64{2, 2, 2}); math.Abs(got-1) > 1e-12 {
		t.Errorf("equal shares = %v, want 1", got)
	}
	if got := jain([]float64{1, 0, 0}); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("one-hog = %v, want 1/3", got)
	}
	if got := jain(nil); got != 0 {
		t.Errorf("empty = %v, want 0", got)
	}
	if got := jain([]float64{0, 0}); got != 1 {
		t.Errorf("all-zero = %v, want 1 (degenerate equality)", got)
	}
}

// Both the damped (FESTIVE) and greedy (last-sample) policies must
// complete a contended scenario with reasonable fairness; the per-step
// even split keeps either from starving a peer.
func TestPoliciesCompeteWithoutStarvation(t *testing.T) {
	for _, tc := range []struct {
		name string
		make func() abrAlg
	}{
		{name: "festive", make: func() abrAlg { return abr.NewFESTIVE() }},
		{name: "greedy", make: func() abrAlg { return abr.NewRateBased() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(Config{Clients: make3(t, tc.make), CapacityMbps: 12})
			if err != nil {
				t.Fatal(err)
			}
			if res.JainFairness < 0.85 {
				t.Errorf("fairness = %.3f, want >= 0.85", res.JainFairness)
			}
			for _, c := range res.Clients {
				if len(c.Rungs) != 60 {
					t.Errorf("client %s fetched %d segments, want 60", c.Name, len(c.Rungs))
				}
			}
		})
	}
}

type abrAlg = abr.Algorithm

func make3(t *testing.T, make func() abrAlg) []Client {
	t.Helper()
	out := make3manifests(t)
	for i := range out {
		out[i].Algorithm = make()
	}
	return out
}

func make3manifests(t *testing.T) []Client {
	t.Helper()
	out := make([]Client, 3)
	for i := range out {
		out[i] = Client{
			Name:     string(rune('A' + i)),
			Manifest: testManifest(t, 120, int64(i)),
		}
	}
	return out
}

// Identical configurations produce identical results (the engine is
// fully deterministic).
func TestRunDeterministic(t *testing.T) {
	run := func() *Result {
		res, err := Run(Config{Clients: festiveClients(t, 2, 60), CapacityMbps: 10})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.JainFairness != b.JainFairness {
		t.Error("identical configs diverged")
	}
	for i := range a.Clients {
		if a.Clients[i].MeanBitrateMbps != b.Clients[i].MeanBitrateMbps ||
			a.Clients[i].Switches != b.Clients[i].Switches {
			t.Errorf("client %d diverged", i)
		}
	}
}

// staggered3 is the golden scenario: three FESTIVE clients joining a
// 9 Mbps bottleneck 15 s apart.
func staggered3(t *testing.T) Config {
	t.Helper()
	clients := make3manifests(t)
	for i := range clients {
		clients[i].Algorithm = abr.NewFESTIVE()
		clients[i].StartOffsetSec = float64(i) * 15
	}
	return Config{Clients: clients, CapacityMbps: 9}
}

// Golden pin of the staggered-arrival scenario: earlier arrivals lock
// in higher rungs while the link is uncontended, so the mean bitrates
// order A > B > C and Jain's index sits measurably below 1. The exact
// numbers are engine behaviour frozen at a known-good state — a diff
// here means the shared-link engine's dynamics changed, which must be
// deliberate.
func TestGoldenStaggeredFairness(t *testing.T) {
	res, err := Run(staggered3(t))
	if err != nil {
		t.Fatal(err)
	}
	const tol = 1e-9
	if math.Abs(res.JainFairness-0.936899312230773) > tol {
		t.Errorf("Jain = %.15g, want 0.936899312230773", res.JainFairness)
	}
	want := []struct {
		mean     float64
		switches int
	}{
		{3.21541666666667, 6},
		{2.62041666666667, 4},
		{1.64541666666667, 4},
	}
	for i, c := range res.Clients {
		if math.Abs(c.MeanBitrateMbps-want[i].mean) > tol {
			t.Errorf("client %s mean bitrate = %.15g, want %.15g", c.Name, c.MeanBitrateMbps, want[i].mean)
		}
		if c.Switches != want[i].switches {
			t.Errorf("client %s switches = %d, want %d", c.Name, c.Switches, want[i].switches)
		}
		if len(c.Rungs) != 60 {
			t.Errorf("client %s fetched %d segments, want 60", c.Name, len(c.Rungs))
		}
		if c.RebufferSec != 0 {
			t.Errorf("client %s rebuffered %.3f s in an uncongested golden run", c.Name, c.RebufferSec)
		}
	}
}

// Full-result determinism on the contended staggered scenario: every
// field, including the per-segment rung logs, must match across runs.
func TestStaggeredDeterministic(t *testing.T) {
	a, err := Run(staggered3(t))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(staggered3(t))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("identical staggered configs diverged:\n%+v\nvs\n%+v", a, b)
	}
}

// The engine terminates even when capacity is absurdly scarce (its
// bound, four times the longest video plus 120 s, kicks in rather than
// hanging).
func TestRunTerminatesUnderStarvation(t *testing.T) {
	clients := festiveClients(t, 3, 30)
	res, err := Run(Config{Clients: clients, CapacityMbps: 0.01})
	if !errors.Is(err, ErrIncomplete) {
		t.Fatalf("err = %v, want ErrIncomplete: the bound stops this run", err)
	}
	// The clients need 900 s of this link for their 45 segments; a run
	// past the 240 s bound delivers more than 240 s of capacity.
	if got, budget := deliveredMB(t, clients, res), 0.01/8*(30*4+120+0.1); got > budget {
		t.Errorf("engine delivered %v MB, past the %v MB the link carries by its bound", got, budget)
	}
}

// A run the bound stops names every client it cut short with its
// delivered and total segment counts, and a run that completes returns
// no error.
func TestRunIncompleteError(t *testing.T) {
	res, err := Run(Config{Clients: festiveClients(t, 3, 60), CapacityMbps: 0.03})
	if !errors.Is(err, ErrIncomplete) {
		t.Fatalf("err = %v, want ErrIncomplete", err)
	}
	for _, c := range res.Clients {
		if want := fmt.Sprintf("client %s fetched %d of 30 segments", c.Name, len(c.Rungs)); !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not say %q", err, want)
		}
	}
	res, err = Run(Config{Clients: festiveClients(t, 3, 60), CapacityMbps: 12})
	if err != nil {
		t.Fatalf("a run every client completes returned %v", err)
	}
	for _, c := range res.Clients {
		if len(c.Rungs) != 30 {
			t.Errorf("client %s fetched %d segments, want 30", c.Name, len(c.Rungs))
		}
	}
}
