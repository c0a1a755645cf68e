package power

// Screen models display power as a function of backlight brightness —
// the other big battery consumer next to the radio, and the knob the
// rate-and-brightness line of work (the paper's references [11, 12,
// 32]) adapts jointly with bitrate.
type Screen struct {
	// MinPowerW is the panel power at brightness 0 (panel floor).
	MinPowerW float64
	// MaxPowerW is the panel power at brightness 1 (full backlight).
	MaxPowerW float64
}

// DefaultScreen returns an LCD-phone calibration (~0.3 W floor,
// ~1.4 W at full brightness).
func DefaultScreen() Screen {
	return Screen{MinPowerW: 0.3, MaxPowerW: 1.4}
}

// PowerW returns the display power at the given backlight brightness
// in [0, 1] (clamped).
func (s Screen) PowerW(brightness float64) float64 {
	if brightness < 0 {
		brightness = 0
	}
	if brightness > 1 {
		brightness = 1
	}
	return s.MinPowerW + (s.MaxPowerW-s.MinPowerW)*brightness
}
