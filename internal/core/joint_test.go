package core

import (
	"errors"
	"testing"

	"ecavs/internal/abr"
	"ecavs/internal/dash"
	"ecavs/internal/power"
	"ecavs/internal/qoe"
)

func newJoint(t *testing.T) *JointOnline {
	t.Helper()
	return NewJointOnline(testObjective(t, 0.5))
}

func jointCtx(vibration, signal float64) abr.Context {
	ladder := dash.EvalLadder()
	sizes := make([]float64, len(ladder))
	for i, rep := range ladder {
		sizes[i] = rep.BitrateMbps / 8 * 2
	}
	return abr.Context{
		Ladder:             ladder,
		SegmentSizesMB:     sizes,
		SegmentDurationSec: 2,
		BufferSec:          25,
		BufferThresholdSec: 30,
		PrevRung:           7,
		SignalDBm:          signal,
		VibrationLevel:     vibration,
	}
}

func TestJointChooseValidation(t *testing.T) {
	j := newJoint(t)
	if _, err := j.Choose(abr.Context{}, 0.5, 20); !errors.Is(err, abr.ErrEmptyContext) {
		t.Errorf("err = %v, want ErrEmptyContext", err)
	}
	if _, err := j.Choose(jointCtx(2, -95), 0.5, 0); !errors.Is(err, ErrNoBandwidth) {
		t.Errorf("err = %v, want ErrNoBandwidth", err)
	}
}

// In a dark room the policy dims the screen; in sunlight it keeps it
// bright (dimming would cost legibility QoE).
func TestJointBrightnessTracksAmbient(t *testing.T) {
	j := newJoint(t)
	dark, err := j.Choose(jointCtx(0.3, -90), 0.0, 30)
	if err != nil {
		t.Fatal(err)
	}
	sunny, err := j.Choose(jointCtx(0.3, -90), 1.0, 30)
	if err != nil {
		t.Fatal(err)
	}
	if dark.Brightness >= sunny.Brightness {
		t.Errorf("dark-room brightness %v >= sunny %v", dark.Brightness, sunny.Brightness)
	}
	if sunny.Brightness < 0.9 {
		t.Errorf("sunny brightness = %v, want near full", sunny.Brightness)
	}
}

// The bitrate dimension still behaves like the plain objective:
// vibrating weak-signal contexts pick lower rungs than quiet strong
// ones.
func TestJointBitrateTracksContext(t *testing.T) {
	j := newJoint(t)
	quiet, err := j.Choose(jointCtx(0.2, -88), 0.5, 40)
	if err != nil {
		t.Fatal(err)
	}
	shaky, err := j.Choose(jointCtx(6.8, -112), 0.5, 15)
	if err != nil {
		t.Fatal(err)
	}
	if shaky.Rung > quiet.Rung {
		t.Errorf("vehicle rung %d > quiet rung %d", shaky.Rung, quiet.Rung)
	}
}

// The joint decision never chooses a dominated pair: full brightness in
// the dark wastes energy with zero QoE gain.
func TestJointNeverFullBrightInTheDark(t *testing.T) {
	j := newJoint(t)
	d, err := j.Choose(jointCtx(2, -100), 0.0, 20)
	if err != nil {
		t.Fatal(err)
	}
	if d.Brightness >= 1.0 {
		t.Error("full backlight selected in a dark room")
	}
}

func TestJointFallbackSizesAndDuration(t *testing.T) {
	j := newJoint(t)
	ctx := jointCtx(2, -95)
	ctx.SegmentSizesMB = nil
	ctx.SegmentDurationSec = 0
	if _, err := j.Choose(ctx, 0.5, 20); err != nil {
		t.Errorf("fallbacks failed: %v", err)
	}
}

func TestScreenPower(t *testing.T) {
	s := power.DefaultScreen()
	if got := s.PowerW(0); got != s.MinPowerW {
		t.Errorf("PowerW(0) = %v, want %v", got, s.MinPowerW)
	}
	if got := s.PowerW(1); got != s.MaxPowerW {
		t.Errorf("PowerW(1) = %v, want %v", got, s.MaxPowerW)
	}
	if got := s.PowerW(-1); got != s.MinPowerW {
		t.Errorf("PowerW(-1) = %v, want clamp to min", got)
	}
	if got := s.PowerW(2); got != s.MaxPowerW {
		t.Errorf("PowerW(2) = %v, want clamp to max", got)
	}
}

func TestBrightnessModel(t *testing.T) {
	m := qoe.DefaultBrightness()
	// Meeting the demand costs nothing.
	if got := m.Impairment(1, 1); got != 0 {
		t.Errorf("full bright in sunlight = %v, want 0", got)
	}
	if got := m.Impairment(m.DemandFloor, 0); got != 0 {
		t.Errorf("floor brightness in the dark = %v, want 0", got)
	}
	// Shortfall hurts, more so in brighter ambient.
	dim := m.Impairment(0.3, 1)
	if dim <= 0 {
		t.Error("dim screen in sunlight should cost QoE")
	}
	if m.Impairment(0.3, 0.5) >= dim {
		t.Error("impairment should grow with ambient light")
	}
	// Clamps.
	if m.Impairment(-1, 2) <= 0 {
		t.Error("clamped inputs should still yield impairment")
	}
}
