package core

import (
	"errors"

	"ecavs/internal/abr"
	"ecavs/internal/power"
	"ecavs/internal/qoe"
)

// JointDecision is a (bitrate rung, backlight brightness) pair — the
// action space of the rate-and-brightness extension (the paper's
// related work [11, 12, 32] folded into the Eq. 11 objective).
type JointDecision struct {
	// Rung is the selected ladder rung.
	Rung int
	// Brightness is the selected backlight level in [0, 1].
	Brightness float64
}

// JointOnline extends the online algorithm's objective over brightness
// as well as bitrate: the energy term gains the screen power over the
// segment, the QoE term gains the legibility impairment, and the
// reference is (top rung, full brightness). The screen is
// power.DefaultScreen, legibility is qoe.DefaultBrightness, and the
// backlight steps through jointLevels.
//
// Construct with NewJointOnline; the zero value is unusable.
type JointOnline struct {
	obj        Objective
	screen     power.Screen
	brightness qoe.BrightnessModel
}

// jointLevels is the selectable backlight grid.
var jointLevels = []float64{0.3, 0.45, 0.6, 0.75, 0.9, 1.0}

// NewJointOnline builds the joint policy over obj.
func NewJointOnline(obj Objective) *JointOnline {
	return &JointOnline{obj: obj, screen: power.DefaultScreen(), brightness: qoe.DefaultBrightness()}
}

// ErrNoBandwidth is returned when no bandwidth estimate is supplied.
var ErrNoBandwidth = errors.New("core: joint decision requires a bandwidth estimate")

// Choose scores every (rung, brightness) pair for one segment and
// returns the minimiser of the extended Eq. 11 objective. ambient01 is
// the normalised ambient light, bwMbps the bandwidth estimate. Each
// call builds its own rung scorer, so Choose is safe for concurrent
// use.
func (j *JointOnline) Choose(ctx abr.Context, ambient01, bwMbps float64) (JointDecision, error) {
	if len(ctx.Ladder) == 0 {
		return JointDecision{}, abr.ErrEmptyContext
	}
	if bwMbps <= 0 {
		return JointDecision{}, ErrNoBandwidth
	}
	sizes := ctx.SegmentSizesMB
	if len(sizes) != len(ctx.Ladder) {
		sizes = make([]float64, len(ctx.Ladder))
		for i, rep := range ctx.Ladder {
			sizes[i] = rep.BitrateMbps / 8 * ctx.SegmentDurationSec
		}
	}
	dur := ctx.SegmentDurationSec
	if dur <= 0 {
		dur = 2
	}
	k := len(ctx.Ladder)
	prev := k
	if ctx.PrevRung >= 0 && ctx.PrevRung < k {
		prev = ctx.PrevRung
	}
	var sc taskScorer
	sc.init(j.obj, ctx.Ladder.Bitrates())
	sc.beginTask(TaskObservation{
		SizesMB:       sizes,
		DurationSec:   dur,
		SignalDBm:     ctx.SignalDBm,
		BandwidthMbps: bwMbps,
		Vibration:     ctx.VibrationLevel,
		BufferSec:     ctx.BufferSec,
	})
	qoes := make([]float64, k)
	sc.qoeInto(prev, qoes)

	// Reference: top rung at full brightness.
	ref := Estimate{
		EnergyJ: sc.energyJ[k-1] + j.screen.PowerW(1)*dur,
		QoE:     qoes[k-1] - j.brightness.Impairment(1, ambient01),
	}
	if ref.QoE < qoe.MinQuality {
		ref.QoE = qoe.MinQuality
	}
	if ref.EnergyJ <= 0 || ref.QoE <= 0 {
		return JointDecision{}, errors.New("core: degenerate joint reference")
	}

	best := JointDecision{Rung: 0, Brightness: jointLevels[0]}
	bestCost := 1e18
	for rung, q := range qoes {
		for _, level := range jointLevels {
			est := Estimate{
				EnergyJ: sc.energyJ[rung] + j.screen.PowerW(level)*dur,
				QoE:     q - j.brightness.Impairment(level, ambient01),
			}
			if est.QoE < qoe.MinQuality {
				est.QoE = qoe.MinQuality
			}
			if cost := j.obj.Cost(est, ref); cost < bestCost {
				bestCost = cost
				best = JointDecision{Rung: rung, Brightness: level}
			}
		}
	}
	return best, nil
}
