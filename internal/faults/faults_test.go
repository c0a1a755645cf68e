package faults

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{Error5xxProb: -0.1},
		{Error5xxProb: 0.6, ResetProb: 0.6}, // sum > 1
		{StallFor: -time.Second},
		{MaxFaultsPerKey: -1},
	}
	for i, cfg := range cases {
		if _, err := NewPlan(cfg, 1); err == nil {
			t.Errorf("case %d: config %+v accepted", i, cfg)
		}
	}
	if _, err := NewPlan(Config{Error5xxProb: 0.5, ResetProb: 0.5}, 1); err != nil {
		t.Errorf("sum exactly 1 rejected: %v", err)
	}
}

// The verdict for (key, attempt) must depend only on the seed, never
// on interleaving with other keys.
func TestPlanDeterministicPerKey(t *testing.T) {
	mk := func() *Plan {
		p, err := NewPlan(Config{Error5xxProb: 0.3, ResetProb: 0.2, TruncateProb: 0.2}, 42)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a := mk()
	var seqA []Kind
	for i := 0; i < 20; i++ {
		seqA = append(seqA, a.Verdict("/seg/v0/1.m4s").Kind)
	}
	// Same key again, but interleaved with unrelated traffic.
	b := mk()
	for i := 0; i < 20; i++ {
		b.Verdict("/seg/v9/7.m4s")
		if got := b.Verdict("/seg/v0/1.m4s").Kind; got != seqA[i] {
			t.Fatalf("attempt %d: interleaved verdict %v, want %v", i, got, seqA[i])
		}
		b.Verdict("/other")
	}
}

func TestPlanSeedChangesStream(t *testing.T) {
	cfg := Config{Error5xxProb: 0.5}
	p1, _ := NewPlan(cfg, 1)
	p2, _ := NewPlan(cfg, 99)
	same := true
	for i := 0; i < 64; i++ {
		if p1.Verdict("/k").Kind != p2.Verdict("/k").Kind {
			same = false
		}
	}
	if same {
		t.Error("64 verdicts identical across different seeds")
	}
}

func TestPlanProbabilityExtremes(t *testing.T) {
	always, _ := NewPlan(Config{Error5xxProb: 1}, 7)
	for i := 0; i < 32; i++ {
		if v := always.Verdict("/k"); v.Kind != Error5xx {
			t.Fatalf("attempt %d: got %v, want error5xx", i, v.Kind)
		}
	}
	never, _ := NewPlan(Config{}, 7)
	for i := 0; i < 32; i++ {
		if v := never.Verdict("/k"); v.Kind != None {
			t.Fatalf("attempt %d: got %v, want none", i, v.Kind)
		}
	}
}

// MaxFaultsPerKey guarantees the storm relents: attempt N and later
// are always clean.
func TestPlanMaxFaultsPerKey(t *testing.T) {
	p, _ := NewPlan(Config{Error5xxProb: 1, MaxFaultsPerKey: 3}, 5)
	for i := 0; i < 3; i++ {
		if v := p.Verdict("/k"); v.Kind != Error5xx {
			t.Fatalf("attempt %d: got %v, want error5xx", i, v.Kind)
		}
	}
	for i := 3; i < 8; i++ {
		if v := p.Verdict("/k"); v.Kind != None {
			t.Fatalf("attempt %d: got %v, want none after MaxFaultsPerKey", i, v.Kind)
		}
	}
	// A fresh key gets its own budget.
	if v := p.Verdict("/other"); v.Kind != Error5xx {
		t.Errorf("fresh key got %v, want error5xx", v.Kind)
	}
}

func TestScriptConsumesInOrderThenCleans(t *testing.T) {
	p := NewScript([]Verdict{
		{Kind: Error5xx, Status: 502},
		{Kind: Truncate, TruncateFrac: 0.25},
	})
	if v := p.Verdict("/a"); v.Kind != Error5xx || v.Status != 502 {
		t.Errorf("first verdict = %+v", v)
	}
	if v := p.Verdict("/b"); v.Kind != Truncate || v.TruncateFrac != 0.25 {
		t.Errorf("second verdict = %+v", v)
	}
	for i := 0; i < 4; i++ {
		if v := p.Verdict("/a"); v.Kind != None {
			t.Errorf("post-script verdict = %+v, want none", v)
		}
	}
}

func TestPlanStats(t *testing.T) {
	p := NewScript([]Verdict{{Kind: Error5xx}, {Kind: Reset}, {Kind: Stall}, {Kind: Truncate}, {Kind: Latency}})
	for i := 0; i < 7; i++ {
		p.Verdict("/k")
	}
	s := p.Stats()
	if s.Requests != 7 || s.Injected() != 5 {
		t.Errorf("stats = %+v", s)
	}
	if s.Errors5xx != 1 || s.Resets != 1 || s.Stalls != 1 || s.Truncations != 1 || s.Latencies != 1 {
		t.Errorf("per-kind counts = %+v", s)
	}
}

// Concurrent verdict draws must be race-free (run under -race) and
// account every request.
func TestPlanConcurrentUse(t *testing.T) {
	p, _ := NewPlan(Config{Error5xxProb: 0.5}, 3)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				p.Verdict("/shared")
			}
		}(g)
	}
	wg.Wait()
	if s := p.Stats(); s.Requests != 800 {
		t.Errorf("requests = %d, want 800", s.Requests)
	}
}

// TestPlanDrawGolden pins the seeded verdict stream: five keys, eight
// attempts each, over a fault ladder of 0.2-wide bands, so every draw
// is pinned to its fifth of [0, 1). Chaos runs replay this exact
// stream; changing the generator must not move it.
func TestPlanDrawGolden(t *testing.T) {
	p, err := NewPlan(Config{Error5xxProb: 0.2, ResetProb: 0.2, StallProb: 0.2, TruncateProb: 0.2, LatencyProb: 0.19}, 42)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, key := range []string{"/seg/v0/0.m4s", "/seg/v0/1.m4s", "/seg/v5/9.m4s", "/manifest.mpd", ""} {
		for i := 0; i < 8; i++ {
			b.WriteString(p.Verdict(key).Kind.String()[:1])
		}
		b.WriteByte(' ')
	}
	const want = "esetlett rsltrtsl rtlrrsss ereelssl lslleetl "
	if got := b.String(); got != want {
		t.Fatalf("verdicts = %q, want %q", got, want)
	}
}
