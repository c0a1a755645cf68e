package power

import (
	"errors"
	"fmt"
)

// RRCState is the LTE radio resource control state the modem occupies.
// After a transfer the radio does not drop to idle immediately: it
// lingers in a high-power tail (DRX) for a timer period — the "tail
// energy" problem of Huang et al. (MobiSys 2012), which the paper's
// related work ([7, 29, 30]) targets. Modelling it lets the simulator
// credit burst-downloading policies for the idle stretches they create.
type RRCState int

// RRC states.
const (
	// RRCIdle draws near-zero power.
	RRCIdle RRCState = iota + 1
	// RRCConnected is actively transferring.
	RRCConnected
	// RRCTail is connected but not transferring, waiting for the
	// inactivity timer to demote to idle.
	RRCTail
)

// String names the state for logs.
func (s RRCState) String() string {
	switch s {
	case RRCIdle:
		return "idle"
	case RRCConnected:
		return "connected"
	case RRCTail:
		return "tail"
	default:
		return fmt.Sprintf("RRCState(%d)", int(s))
	}
}

// RRCConfig parameterises the state machine. Defaults follow the LTE
// measurements of Huang et al.: ~260 ms promotion, ~11.5 s tail.
type RRCConfig struct {
	// PromotionDelaySec is the idle -> connected setup latency.
	PromotionDelaySec float64
	// PromotionPowerW is the power drawn during promotion.
	PromotionPowerW float64
	// TailTimerSec is the inactivity timer before demotion to idle.
	TailTimerSec float64
	// TailPowerW is the power drawn while in the tail state.
	TailPowerW float64
	// IdlePowerW is the paging-cycle power while idle.
	IdlePowerW float64
}

// DefaultRRC returns the LTE calibration.
func DefaultRRC() RRCConfig {
	return RRCConfig{
		PromotionDelaySec: 0.26,
		PromotionPowerW:   1.2,
		TailTimerSec:      11.5,
		TailPowerW:        1.0,
		IdlePowerW:        0.02,
	}
}

// Validate reports whether the configuration is usable.
func (c RRCConfig) Validate() error {
	if c.PromotionDelaySec < 0 || c.TailTimerSec < 0 {
		return errors.New("power: RRC timers must be non-negative")
	}
	if c.PromotionPowerW < 0 || c.TailPowerW < 0 || c.IdlePowerW < 0 {
		return errors.New("power: RRC powers must be non-negative")
	}
	return nil
}

// RRCTracker walks the state machine along the session timeline,
// reporting the radio-control energy that transfers themselves do not
// account for (promotion, tail, idle paging).
//
// Construct with NewRRCTracker; the zero value is unusable.
type RRCTracker struct {
	cfg       RRCConfig
	state     RRCState
	tailLeft  float64
	promotedJ float64
	tailJ     float64
	idleJ     float64
}

// NewRRCTracker returns a tracker starting in idle.
func NewRRCTracker(cfg RRCConfig) (*RRCTracker, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &RRCTracker{cfg: cfg, state: RRCIdle}, nil
}

// StartTransfer moves the radio to connected, paying the promotion
// cost when coming from idle. It returns the promotion latency the
// transfer must additionally wait (0 when already connected or in the
// tail) and accumulates the promotion energy.
func (t *RRCTracker) StartTransfer() (latencySec float64) {
	switch t.state {
	case RRCIdle:
		t.promotedJ += t.cfg.PromotionPowerW * t.cfg.PromotionDelaySec
		t.state = RRCConnected
		return t.cfg.PromotionDelaySec
	default:
		t.state = RRCConnected
		return 0
	}
}

// EndTransfer moves the radio into the tail state and arms the
// inactivity timer.
func (t *RRCTracker) EndTransfer() {
	if t.state == RRCConnected {
		t.state = RRCTail
		t.tailLeft = t.cfg.TailTimerSec
	}
}

// AdvanceIdle accounts dt seconds without transfer activity: tail
// power until the timer expires, idle power after.
func (t *RRCTracker) AdvanceIdle(dt float64) {
	if dt <= 0 {
		return
	}
	if t.state == RRCTail {
		inTail := dt
		if inTail > t.tailLeft {
			inTail = t.tailLeft
		}
		t.tailJ += t.cfg.TailPowerW * inTail
		t.tailLeft -= inTail
		dt -= inTail
		if t.tailLeft <= 0 {
			t.state = RRCIdle
		}
	}
	if dt > 0 && t.state == RRCIdle {
		t.idleJ += t.cfg.IdlePowerW * dt
	}
}

// TotalJ returns all radio-control energy (excluding transfer energy,
// which the caller integrates from RadioPowerW).
func (t *RRCTracker) TotalJ() float64 { return t.promotedJ + t.tailJ + t.idleJ }
