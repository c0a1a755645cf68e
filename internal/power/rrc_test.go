package power

import (
	"testing"
)

func TestDefaultRRCValidates(t *testing.T) {
	if err := DefaultRRC().Validate(); err != nil {
		t.Fatalf("DefaultRRC invalid: %v", err)
	}
}

func TestRRCConfigValidation(t *testing.T) {
	bad := DefaultRRC()
	bad.TailTimerSec = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative timer accepted")
	}
	bad = DefaultRRC()
	bad.TailPowerW = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative power accepted")
	}
	if _, err := NewRRCTracker(bad); err == nil {
		t.Error("NewRRCTracker accepted invalid config")
	}
}

func TestRRCStateString(t *testing.T) {
	tests := []struct {
		s    RRCState
		want string
	}{
		{s: RRCIdle, want: "idle"},
		{s: RRCConnected, want: "connected"},
		{s: RRCTail, want: "tail"},
		{s: RRCState(9), want: "RRCState(9)"},
	}
	for _, tt := range tests {
		if got := tt.s.String(); got != tt.want {
			t.Errorf("String(%d) = %q, want %q", tt.s, got, tt.want)
		}
	}
}

func TestRRCPromotionFromIdle(t *testing.T) {
	tr, err := NewRRCTracker(DefaultRRC())
	if err != nil {
		t.Fatal(err)
	}
	if tr.state != RRCIdle {
		t.Fatalf("initial state = %v, want idle", tr.state)
	}
	latency := tr.StartTransfer()
	if latency != 0.26 {
		t.Errorf("promotion latency = %v, want 0.26", latency)
	}
	if tr.state != RRCConnected {
		t.Errorf("state = %v, want connected", tr.state)
	}
	wantJ := 1.2 * 0.26
	if !almostEqual(tr.promotedJ, wantJ, 1e-12) {
		t.Errorf("PromotionJ = %v, want %v", tr.promotedJ, wantJ)
	}
}

func TestRRCNoPromotionFromTail(t *testing.T) {
	tr, err := NewRRCTracker(DefaultRRC())
	if err != nil {
		t.Fatal(err)
	}
	tr.StartTransfer()
	tr.EndTransfer()
	if tr.state != RRCTail {
		t.Fatalf("state = %v, want tail", tr.state)
	}
	if latency := tr.StartTransfer(); latency != 0 {
		t.Errorf("latency from tail = %v, want 0 (timer reset, no promotion)", latency)
	}
	if got := tr.promotedJ; !almostEqual(got, 1.2*0.26, 1e-12) {
		t.Errorf("PromotionJ = %v, want single promotion only", got)
	}
}

func TestRRCTailThenIdleEnergy(t *testing.T) {
	tr, err := NewRRCTracker(DefaultRRC())
	if err != nil {
		t.Fatal(err)
	}
	tr.StartTransfer()
	tr.EndTransfer()
	// 20 s of inactivity: 11.5 s tail at 1.0 W + 8.5 s idle at 0.02 W.
	tr.AdvanceIdle(20)
	if tr.state != RRCIdle {
		t.Errorf("state = %v, want idle after timer expiry", tr.state)
	}
	if !almostEqual(tr.tailJ, 11.5, 1e-9) {
		t.Errorf("TailJ = %v, want 11.5", tr.tailJ)
	}
	if !almostEqual(tr.idleJ, 8.5*0.02, 1e-9) {
		t.Errorf("IdleJ = %v, want %v", tr.idleJ, 8.5*0.02)
	}
	want := tr.promotedJ + tr.tailJ + tr.idleJ
	if !almostEqual(tr.TotalJ(), want, 1e-12) {
		t.Errorf("TotalJ inconsistent")
	}
}

func TestRRCTailSplitAcrossAdvances(t *testing.T) {
	tr, err := NewRRCTracker(DefaultRRC())
	if err != nil {
		t.Fatal(err)
	}
	tr.StartTransfer()
	tr.EndTransfer()
	for i := 0; i < 40; i++ { // 40 x 0.5 s = 20 s
		tr.AdvanceIdle(0.5)
	}
	if !almostEqual(tr.tailJ, 11.5, 1e-9) {
		t.Errorf("TailJ = %v, want 11.5 (split advances)", tr.tailJ)
	}
}

func TestRRCTransferResetsTail(t *testing.T) {
	tr, err := NewRRCTracker(DefaultRRC())
	if err != nil {
		t.Fatal(err)
	}
	tr.StartTransfer()
	tr.EndTransfer()
	tr.AdvanceIdle(5) // 5 s into the tail
	tr.StartTransfer()
	tr.EndTransfer()
	tr.AdvanceIdle(11.5) // full fresh tail
	wantTail := 5.0 + 11.5
	if !almostEqual(tr.tailJ, wantTail, 1e-9) {
		t.Errorf("TailJ = %v, want %v (timer re-armed)", tr.tailJ, wantTail)
	}
}

func TestRRCAdvanceIdleNonPositive(t *testing.T) {
	tr, err := NewRRCTracker(DefaultRRC())
	if err != nil {
		t.Fatal(err)
	}
	tr.AdvanceIdle(0)
	tr.AdvanceIdle(-3)
	if tr.TotalJ() != 0 {
		t.Errorf("TotalJ = %v, want 0", tr.TotalJ())
	}
}

func TestRRCIdleOnlyEnergy(t *testing.T) {
	tr, err := NewRRCTracker(DefaultRRC())
	if err != nil {
		t.Fatal(err)
	}
	tr.AdvanceIdle(100) // never connected: pure idle paging
	if !almostEqual(tr.idleJ, 2.0, 1e-9) {
		t.Errorf("IdleJ = %v, want 2.0", tr.idleJ)
	}
	if tr.tailJ != 0 || tr.promotedJ != 0 {
		t.Error("unexpected tail/promotion energy without transfers")
	}
}
