package qoe

// BrightnessModel scores the legibility impairment of watching at a
// given backlight brightness under a given ambient light level: a dim
// screen outdoors is hard to see, while full backlight in a dark room
// costs energy without helping quality. Ambient light is normalised to
// [0, 1] (0 = dark room, 1 = direct sunlight).
//
// The model follows the rate-and-brightness literature (the paper's
// references [11, 12, 32]): impairment grows linearly with the
// shortfall between the brightness the environment demands and the
// brightness set.
type BrightnessModel struct {
	// MaxImpairment is the QoE loss at the largest possible shortfall.
	MaxImpairment float64
	// DemandFloor is the brightness a dark room still demands
	// (screens are never comfortably watchable at 0).
	DemandFloor float64
}

// DefaultBrightness returns the calibration used by the joint
// rate-and-brightness experiments. The maximum impairment is large: a
// minimum-backlight screen in direct sunlight is close to unwatchable,
// which is what keeps the balanced objective from dimming outdoors.
func DefaultBrightness() BrightnessModel {
	return BrightnessModel{MaxImpairment: 2.5, DemandFloor: 0.25}
}

// Demand returns the brightness the ambient light calls for.
func (m BrightnessModel) Demand(ambient01 float64) float64 {
	if ambient01 < 0 {
		ambient01 = 0
	}
	if ambient01 > 1 {
		ambient01 = 1
	}
	return m.DemandFloor + (1-m.DemandFloor)*ambient01
}

// Impairment returns the QoE loss of setting the given brightness
// under the given ambient light. Brightness at or above the demand
// costs nothing.
func (m BrightnessModel) Impairment(brightness, ambient01 float64) float64 {
	if brightness < 0 {
		brightness = 0
	}
	if brightness > 1 {
		brightness = 1
	}
	shortfall := m.Demand(ambient01) - brightness
	if shortfall <= 0 {
		return 0
	}
	return m.MaxImpairment * shortfall
}
