package abr

import (
	"errors"
	"testing"
	"testing/quick"

	"ecavs/internal/dash"
)

func bolaCtx(t *testing.T, bufferSec float64) Context {
	t.Helper()
	ladder := dash.EvalLadder()
	sizes := make([]float64, len(ladder))
	for i, rep := range ladder {
		sizes[i] = rep.BitrateMbps / 8 * 2
	}
	return Context{
		Ladder:             ladder,
		SegmentSizesMB:     sizes,
		SegmentDurationSec: 2,
		BufferSec:          bufferSec,
		BufferThresholdSec: 30,
		PrevRung:           -1,
	}
}

func TestBOLALowBufferPicksLowRung(t *testing.T) {
	b := NewBOLA()
	if b.Name() != "BOLA" {
		t.Errorf("Name = %q", b.Name())
	}
	rung, err := b.ChooseRung(bolaCtx(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	if rung != 0 {
		t.Errorf("rung at empty buffer = %d, want 0", rung)
	}
}

func TestBOLAFullBufferPicksTopRung(t *testing.T) {
	b := NewBOLA()
	rung, err := b.ChooseRung(bolaCtx(t, 29))
	if err != nil {
		t.Fatal(err)
	}
	if rung != 13 {
		t.Errorf("rung just below threshold = %d, want 13 (top)", rung)
	}
}

// BOLA's choice is monotone non-decreasing in buffer level.
func TestBOLAMonotoneInBuffer(t *testing.T) {
	b := NewBOLA()
	prev := -1
	for buf := 0.0; buf <= 30; buf += 0.5 {
		rung, err := b.ChooseRung(bolaCtx(t, buf))
		if err != nil {
			t.Fatal(err)
		}
		if rung < prev {
			t.Fatalf("rung decreased from %d to %d at buffer %.1f", prev, rung, buf)
		}
		prev = rung
	}
}

// BOLA never panics or errors across random buffer/threshold configs.
func TestBOLAQuick(t *testing.T) {
	b := NewBOLA()
	f := func(bufRaw, betaRaw uint8) bool {
		ctx := bolaCtx(t, float64(bufRaw%60))
		ctx.BufferThresholdSec = float64(betaRaw%50) + 5
		rung, err := b.ChooseRung(ctx)
		return err == nil && rung >= 0 && rung < len(ctx.Ladder)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBOLAFallbackSizes(t *testing.T) {
	b := NewBOLA()
	ctx := bolaCtx(t, 10)
	ctx.SegmentSizesMB = nil // missing manifest sizes
	if _, err := b.ChooseRung(ctx); err != nil {
		t.Errorf("fallback sizes failed: %v", err)
	}
	ctx.SegmentDurationSec = 0 // default duration kicks in
	if _, err := b.ChooseRung(ctx); err != nil {
		t.Errorf("default duration failed: %v", err)
	}
}

func TestBOLAErrors(t *testing.T) {
	b := NewBOLA()
	if _, err := b.ChooseRung(Context{}); !errors.Is(err, ErrEmptyContext) {
		t.Errorf("err = %v, want ErrEmptyContext", err)
	}
	ctx := bolaCtx(t, 10)
	ctx.SegmentSizesMB = make([]float64, len(ctx.Ladder)) // zero sizes
	if _, err := b.ChooseRung(ctx); err == nil {
		t.Error("zero sizes accepted")
	}
	b.ObserveDownload(5) // no-op
	b.Reset()            // no-op
}
