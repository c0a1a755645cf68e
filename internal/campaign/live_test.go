package campaign

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"ecavs/internal/telemetry"
)

// TestRunLiveIsInert pins the observability contract at campaign
// scale: attaching a Live publisher must leave the aggregate result
// bit-identical — telemetry observes, it never steers.
func TestRunLiveIsInert(t *testing.T) {
	traces := testTraces(t)
	cfg := Config{
		Traces:          traces,
		Sessions:        24,
		Seed:            7,
		Shards:          4,
		AbandonProb:     0.3,
		VibrationJitter: 0.25,
	}
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	live := NewLive(reg)
	cfg.Live = live
	observed, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, observed) {
		t.Errorf("live telemetry changed campaign results:\nplain    = %+v\nobserved = %+v", plain, observed)
	}

	if got := live.Completed(); got != 24 {
		t.Errorf("live completed = %d, want 24", got)
	}
	if got := live.targetN.Load(); got != 24 {
		t.Errorf("live target = %d, want 24", got)
	}

	// The per-algorithm running means, read by the registry's
	// algorithm label, must converge to the exact aggregate means (same
	// additions, different summation order).
	sessions := reg.CounterVec("campaign_algorithm_sessions_total", "", "algorithm")
	qoeMean := reg.GaugeVec("campaign_qoe_mean", "", "algorithm")
	energyJ := reg.GaugeVec("campaign_energy_j_mean", "", "algorithm")
	for _, summary := range observed.Algorithms {
		name := summary.Name
		if got := sessions.With(name).Value(); got != summary.Sessions {
			t.Errorf("%s: live sessions = %d, aggregate %d", name, got, summary.Sessions)
		}
		if got := qoeMean.With(name).Value(); math.Abs(got-summary.QoE.Mean) > 1e-9*(1+math.Abs(got)) {
			t.Errorf("%s: live QoE mean %v, aggregate %v", name, got, summary.QoE.Mean)
		}
		if got := energyJ.With(name).Value(); math.Abs(got-summary.EnergyJ.Mean) > 1e-9*(1+math.Abs(got)) {
			t.Errorf("%s: live energy mean %v, aggregate %v", name, got, summary.EnergyJ.Mean)
		}
	}
}

// TestLiveExposition scrapes the registry after a run: the acceptance
// series (sessions completed, per-algorithm QoE and energy) must be
// present in parseable Prometheus text.
func TestLiveExposition(t *testing.T) {
	traces := testTraces(t)
	live := NewLive(nil) // private registry — the -progress-only path
	if _, err := Run(Config{Traces: traces, Sessions: 8, Seed: 3, Shards: 2, Live: live}); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := live.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	expo := sb.String()
	for _, want := range []string{
		"campaign_sessions_completed_total 8",
		"campaign_sessions_target 8",
		"# TYPE campaign_qoe_mean gauge",
		`campaign_qoe_mean{algorithm="Ours"}`,
		`campaign_energy_j_mean{algorithm="FESTIVE"}`,
		`campaign_algorithm_sessions_total{algorithm="Youtube"}`,
		"campaign_sessions_per_sec",
		"campaign_eta_seconds",
	} {
		if !strings.Contains(expo, want) {
			t.Errorf("exposition missing %q:\n%s", want, expo)
		}
	}
}

// TestLiveNilIsNoOp covers the disabled path explicitly: nil Live
// methods must be safe and zero-valued.
func TestLiveNilIsNoOp(t *testing.T) {
	var l *Live
	l.init(nil, 0)
	l.observe(0, nil)
	if l.Completed() != 0 || l.SessionsPerSec() != 0 || l.ETASec() != 0 || l.Registry() != nil {
		t.Error("nil Live reported state")
	}
}
