// Package power implements the paper's smartphone power model
// (Section III-C): playback-only power as a function of video bitrate,
// radio power and energy-per-byte as functions of cellular signal
// strength, and the per-task energy composition of Eqs. 6-10 including
// the rebuffering branch. It also provides a "virtual Monsoon monitor"
// (see monitor.go) that integrates noisy instantaneous power for the
// Table VI model-validation experiment.
//
// Calibration (documented in DESIGN.md):
//   - Fig. 1(a): downloading 100 MB costs 49 J at -90 dBm and 193 J at
//     -115 dBm; energy-per-MB grows exponentially as signal weakens.
//   - Table VI: a 300 s video at -90 dBm consumes ~589-714 J across the
//     Table II bitrate ladder; playback power is affine in bitrate.
package power

import (
	"errors"
	"fmt"
	"math"
)

// Model holds the calibrated power-model coefficients.
type Model struct {
	// BasePowerW is the playback power at (extrapolated) zero bitrate:
	// screen, SoC, and OS baseline while a video plays.
	BasePowerW float64
	// DecodeWPerMbps is the additional playback power per Mbps of video
	// bitrate (decode + memory traffic).
	DecodeWPerMbps float64
	// RadioPowerAtRefW is the wireless-interface power while downloading
	// at the reference signal strength (RefSignalDBm).
	RadioPowerAtRefW float64
	// RadioPowerSlopeWPerDB is the extra radio power per dB below the
	// reference signal strength.
	RadioPowerSlopeWPerDB float64
	// EnergyPerMBAtRefJ is the energy to download one megabyte at the
	// reference signal strength.
	EnergyPerMBAtRefJ float64
	// EnergyPerMBExpPerDB is the exponential growth rate of
	// energy-per-MB per dB below the reference signal strength.
	EnergyPerMBExpPerDB float64
	// RefSignalDBm is the reference (strong) signal strength; stronger
	// signals are clamped to it.
	RefSignalDBm float64
	// MinSignalDBm is the weakest modelled signal; weaker readings are
	// clamped to it.
	MinSignalDBm float64
	// RebufferPowerW is the power while stalled (screen on, spinner, no
	// decode); radio power during a stall is accounted separately by the
	// download term.
	RebufferPowerW float64
}

// Default returns the model calibrated against Fig. 1(a) and Table VI.
func Default() Model {
	return Model{
		BasePowerW:            1.9578,
		DecodeWPerMbps:        0.01137,
		RadioPowerAtRefW:      2.4,
		RadioPowerSlopeWPerDB: 0.048,
		EnergyPerMBAtRefJ:     0.49,
		EnergyPerMBExpPerDB:   0.054834, // ln(193/49)/25
		RefSignalDBm:          -90,
		MinSignalDBm:          -120,
		RebufferPowerW:        1.9578,
	}
}

// EvalModel returns the power model used for the trace-driven
// evaluation (Figs. 5-7). It shares Default's radio calibration but has
// a smaller playback base power: Fig. 5(c) shows ≈ 200 J of base energy
// for the 198 s trace 1, i.e. ≈ 1 W — a dimmer/smaller screen than the
// full-brightness Table VI validation setup (the paper itself notes the
// saving grows as the screen share shrinks).
func EvalModel() Model {
	m := Default()
	m.BasePowerW = 0.95
	m.RebufferPowerW = 0.95
	return m
}

// Validate reports whether the model's coefficients are usable.
func (m Model) Validate() error {
	switch {
	case m.BasePowerW <= 0:
		return errors.New("power: base power must be positive")
	case m.DecodeWPerMbps < 0:
		return errors.New("power: decode power must be non-negative")
	case m.RadioPowerAtRefW <= 0:
		return errors.New("power: radio power must be positive")
	case m.EnergyPerMBAtRefJ <= 0:
		return errors.New("power: energy per MB must be positive")
	case m.RefSignalDBm <= m.MinSignalDBm:
		return errors.New("power: reference signal must exceed minimum signal")
	}
	return nil
}

// clampSignal limits a dBm reading to the modelled range.
func (m Model) clampSignal(dBm float64) float64 {
	if dBm > m.RefSignalDBm {
		return m.RefSignalDBm
	}
	if dBm < m.MinSignalDBm {
		return m.MinSignalDBm
	}
	return dBm
}

// PlaybackPowerW returns the playback-only power (no data transfer) for
// a video encoded at the given bitrate (paper Section III-C, the "no
// data transmission" model).
func (m Model) PlaybackPowerW(bitrateMbps float64) float64 {
	if bitrateMbps < 0 {
		bitrateMbps = 0
	}
	return m.BasePowerW + m.DecodeWPerMbps*bitrateMbps
}

// RadioPowerW returns the wireless-interface power while downloading at
// the given signal strength.
func (m Model) RadioPowerW(signalDBm float64) float64 {
	s := m.clampSignal(signalDBm)
	return m.RadioPowerAtRefW + m.RadioPowerSlopeWPerDB*(m.RefSignalDBm-s)
}

// EnergyPerMBJ returns the energy cost (J) of downloading one megabyte
// at the given signal strength (Fig. 1a).
func (m Model) EnergyPerMBJ(signalDBm float64) float64 {
	s := m.clampSignal(signalDBm)
	return m.EnergyPerMBAtRefJ * math.Exp(m.EnergyPerMBExpPerDB*(m.RefSignalDBm-s))
}

// DownloadEnergyJ returns the energy to download the given payload at
// the given signal strength, assuming the nominal link rate (Fig. 1a's
// bulk-download experiment).
func (m Model) DownloadEnergyJ(megabytes, signalDBm float64) float64 {
	if megabytes <= 0 {
		return 0
	}
	return megabytes * m.EnergyPerMBJ(signalDBm)
}

// NominalThroughputMBps returns the link throughput implied by the
// model (radio power divided by energy-per-MB), in MB/s. The network
// simulator scales this by a fading process; using the implied rate
// keeps the energy-per-MB relationship of Fig. 1(a) exact.
func (m Model) NominalThroughputMBps(signalDBm float64) float64 {
	return m.RadioPowerW(signalDBm) / m.EnergyPerMBJ(signalDBm)
}

// NominalThroughputMbps is NominalThroughputMBps converted to Mbit/s.
func (m Model) NominalThroughputMbps(signalDBm float64) float64 {
	return m.NominalThroughputMBps(signalDBm) * 8
}

// Breakdown decomposes one task's energy (paper Eq. 10).
type Breakdown struct {
	// PlaybackJ is the energy spent decoding and displaying the segment.
	PlaybackJ float64
	// DownloadJ is the radio energy spent fetching the segment.
	DownloadJ float64
	// RebufferJ is the stall-time energy (screen on, no decode),
	// excluding the radio energy already counted in DownloadJ.
	RebufferJ float64
	// RebufferSec is the stall duration attributed to this task.
	RebufferSec float64
}

// TotalJ returns the task's total energy.
func (b Breakdown) TotalJ() float64 { return b.PlaybackJ + b.DownloadJ + b.RebufferJ }

// SegmentTask describes one download-and-play task for energy
// estimation.
type SegmentTask struct {
	// BitrateMbps is the segment's encoded bitrate.
	BitrateMbps float64
	// DurationSec is the segment's playback duration.
	DurationSec float64
	// SizeMB is the segment payload. If zero it is derived from
	// BitrateMbps and DurationSec.
	SizeMB float64
	// SignalDBm is the signal strength during the download.
	SignalDBm float64
	// ThroughputMBps is the link rate during the download. If zero the
	// model's nominal rate for SignalDBm is used.
	ThroughputMBps float64
	// BufferSec is the playable data buffered when the download starts;
	// the rebuffering branch of Eq. 9 triggers when the download takes
	// longer than this.
	BufferSec float64
}

// SegmentEnergy evaluates the task-energy model (Eqs. 6-10) for one
// segment: playback energy over the segment's duration, radio energy
// for its download, and — when the download outlasts the buffer — the
// stall energy of the rebuffering branch. It is the one implementation
// of those equations; the online algorithm and the planner call it for
// every rung of every decision, so it takes the 72-byte model by
// pointer instead of copying it per call.
func (m *Model) SegmentEnergy(t SegmentTask) Breakdown {
	if t.DurationSec <= 0 || t.BitrateMbps <= 0 {
		return Breakdown{}
	}
	size := t.SizeMB
	if size <= 0 {
		size = t.BitrateMbps / 8 * t.DurationSec
	}
	th := t.ThroughputMBps
	if th <= 0 {
		th = m.NominalThroughputMBps(t.SignalDBm)
	}
	downloadSec := size / th

	b := Breakdown{
		PlaybackJ: m.PlaybackPowerW(t.BitrateMbps) * t.DurationSec,
		DownloadJ: m.RadioPowerW(t.SignalDBm) * downloadSec,
	}
	if t.BufferSec >= 0 && downloadSec > t.BufferSec {
		b.RebufferSec = downloadSec - t.BufferSec
		b.RebufferJ = m.RebufferPowerW * b.RebufferSec
	}
	return b
}

// SessionEnergyJ sums SegmentEnergy over a session where every segment
// uses the same bitrate, signal, and nominal throughput — the
// configuration of the Table VI validation video and of the base-energy
// definition in Section V-B ("all video segments encoded with the
// lowest bitrate").
func (m Model) SessionEnergyJ(bitrateMbps, sessionSec, signalDBm float64) float64 {
	if sessionSec <= 0 || bitrateMbps <= 0 {
		return 0
	}
	sizeMB := bitrateMbps / 8 * sessionSec
	return m.PlaybackPowerW(bitrateMbps)*sessionSec + m.DownloadEnergyJ(sizeMB, signalDBm)
}

// String summarises the calibration.
func (m Model) String() string {
	return fmt.Sprintf("playback=%.3f+%.4f*r W, radio@%.0fdBm=%.2f W (+%.3f W/dB), e/MB@%.0fdBm=%.2f J (x e^{%.4f/dB})",
		m.BasePowerW, m.DecodeWPerMbps, m.RefSignalDBm, m.RadioPowerAtRefW,
		m.RadioPowerSlopeWPerDB, m.RefSignalDBm, m.EnergyPerMBAtRefJ, m.EnergyPerMBExpPerDB)
}
