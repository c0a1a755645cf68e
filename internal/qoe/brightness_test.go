package qoe

import (
	"testing"
	"testing/quick"
)

func TestBrightnessDemand(t *testing.T) {
	m := DefaultBrightness()
	if got := m.Demand(0); got != m.DemandFloor {
		t.Errorf("Demand(0) = %v, want floor %v", got, m.DemandFloor)
	}
	if got := m.Demand(1); got != 1 {
		t.Errorf("Demand(1) = %v, want 1", got)
	}
	// Clamps.
	if m.Demand(-3) != m.DemandFloor || m.Demand(9) != 1 {
		t.Error("ambient clamps failed")
	}
	// Monotone in ambient.
	if m.Demand(0.3) >= m.Demand(0.8) {
		t.Error("demand not monotone in ambient light")
	}
}

func TestBrightnessImpairment(t *testing.T) {
	m := DefaultBrightness()
	// Meeting or exceeding demand costs nothing.
	if got := m.Impairment(1, 0.5); got != 0 {
		t.Errorf("surplus brightness impairment = %v, want 0", got)
	}
	// Shortfall scales linearly.
	d := m.Demand(1)
	if got, want := m.Impairment(d-0.2, 1), m.MaxImpairment*0.2; !almostEqual(got, want, 1e-12) {
		t.Errorf("impairment = %v, want %v", got, want)
	}
	// Brightness clamps.
	if m.Impairment(2, 1) != 0 {
		t.Error("over-bright not clamped")
	}
	if m.Impairment(-1, 1) <= 0 {
		t.Error("negative brightness not clamped to 0 (max shortfall)")
	}
}

// Impairment is non-negative, bounded by MaxImpairment, and monotone
// non-increasing in brightness.
func TestBrightnessImpairmentProperties(t *testing.T) {
	m := DefaultBrightness()
	f := func(bRaw, aRaw uint8) bool {
		b := float64(bRaw%100) / 100
		a := float64(aRaw%100) / 100
		imp := m.Impairment(b, a)
		if imp < 0 || imp > m.MaxImpairment {
			return false
		}
		return m.Impairment(b+0.1, a) <= imp+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
