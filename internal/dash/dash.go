// Package dash provides the DASH substrate the paper streams over: the
// resolution/bitrate ladder of Table II (and the denser fourteen-rung
// ladder of the Section V evaluation), the test-video catalog of
// Table I with its spatial/temporal information attributes (Fig. 2a),
// and per-segment manifests with variable-bitrate size jitter.
package dash

import "errors"

// Representation is one rung of a bitrate ladder.
type Representation struct {
	// Index is the rung's position in the ladder, ascending from 0.
	Index int
	// Name is the conventional resolution label ("480p").
	Name string
	// BitrateMbps is the encoded bitrate.
	BitrateMbps float64
	// Width and Height are the frame dimensions (informational).
	Width, Height int
}

// Ladder is an ascending list of representations.
type Ladder []Representation

// Errors returned by ladder construction and lookup.
var (
	ErrEmptyLadder    = errors.New("dash: empty ladder")
	ErrUnsortedLadder = errors.New("dash: ladder bitrates must be strictly ascending and positive")
	ErrNoSuchRung     = errors.New("dash: no such rung")
)

// NewLadder builds a ladder from ascending bitrates, assigning indices
// and resolution-style names.
func NewLadder(bitratesMbps []float64) (Ladder, error) {
	if len(bitratesMbps) == 0 {
		return nil, ErrEmptyLadder
	}
	l := make(Ladder, len(bitratesMbps))
	prev := 0.0
	for i, r := range bitratesMbps {
		if r <= prev {
			return nil, ErrUnsortedLadder
		}
		prev = r
		w, h, name := resolutionFor(r)
		l[i] = Representation{Index: i, Name: name, BitrateMbps: r, Width: w, Height: h}
	}
	return l, nil
}

// resolutionFor maps a bitrate to the nearest conventional resolution
// (Table II's pairing).
func resolutionFor(mbps float64) (w, h int, name string) {
	switch {
	case mbps >= 5.0:
		return 1920, 1080, "1080p"
	case mbps >= 2.3:
		return 1280, 720, "720p"
	case mbps >= 1.2:
		return 854, 480, "480p"
	case mbps >= 0.6:
		return 640, 360, "360p"
	case mbps >= 0.3:
		return 426, 240, "240p"
	default:
		return 256, 144, "144p"
	}
}

// TableIILadder returns the paper's six-rung resolution ladder
// (Table II).
func TableIILadder() Ladder {
	l, err := NewLadder([]float64{0.1, 0.375, 0.75, 1.5, 3.0, 5.8})
	if err != nil {
		panic("dash: TableIILadder construction: " + err.Error())
	}
	return l
}

// EvalLadder returns the fourteen-rung ladder of the Section V-A
// simulation setup.
func EvalLadder() Ladder {
	l, err := NewLadder([]float64{0.1, 0.2, 0.24, 0.375, 0.55, 0.75, 1.0, 1.5, 2.3, 2.56, 3.0, 3.6, 4.3, 5.8})
	if err != nil {
		panic("dash: EvalLadder construction: " + err.Error())
	}
	return l
}

// Lowest returns the ladder's bottom rung.
func (l Ladder) Lowest() Representation { return l[0] }

// Highest returns the ladder's top rung.
func (l Ladder) Highest() Representation { return l[len(l)-1] }

// HighestBelow returns the highest rung whose bitrate does not exceed
// mbps, falling back to the bottom rung when every rung exceeds it.
// It finds the rung's index and copies only that one representation:
// FESTIVE and BBA call it on every decision.
func (l Ladder) HighestBelow(mbps float64) Representation {
	best := 0
	for i := range l {
		if l[i].BitrateMbps <= mbps {
			best = i
		}
	}
	return l[best]
}

// Bitrates returns the ladder's bitrates as a fresh slice.
func (l Ladder) Bitrates() []float64 {
	out := make([]float64, len(l))
	for i, r := range l {
		out[i] = r.BitrateMbps
	}
	return out
}
