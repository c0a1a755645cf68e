package dash

import (
	"errors"
	"math"
	"math/rand"
)

// DefaultSegmentSec is the paper's segment duration (Section V-A).
const DefaultSegmentSec = 2.0

// Manifest is the client's view of one encoded video: its ladder,
// segment duration, and per-segment payload sizes for every rung. Like
// a real VBR encode, a segment's size jitters around
// bitrate x duration, correlated across rungs (a complex scene is
// large at every bitrate).
//
// Construct with NewManifest; the zero value is unusable.
type Manifest struct {
	video      Video
	ladder     Ladder
	segmentSec float64
	count      int
	// sizeMB[segIdx][rungIdx] for a generated encode. A manifest read
	// from an MPD (MPDInfo.Manifest) holds fewer rows than segments:
	// see row.
	sizeMB [][]float64
}

// ErrBadSegmentDuration is returned for non-positive segment durations.
var ErrBadSegmentDuration = errors.New("dash: segment duration must be positive")

// ManifestConfig tunes manifest generation.
type ManifestConfig struct {
	// SegmentSec is the segment duration (default DefaultSegmentSec).
	SegmentSec float64
	// VBRJitter is the relative standard deviation of per-segment size
	// around the nominal bitrate x duration (default 0.12). Zero
	// disables jitter; negative is an error.
	VBRJitter float64
	// Seed seeds the deterministic jitter stream.
	Seed int64
}

// ErrBadJitter is returned for negative VBR jitter.
var ErrBadJitter = errors.New("dash: VBR jitter must be non-negative")

// NewManifest cuts the video into segments over the given ladder.
func NewManifest(v Video, l Ladder, cfg ManifestConfig) (*Manifest, error) {
	if len(l) == 0 {
		return nil, ErrEmptyLadder
	}
	if cfg.SegmentSec == 0 {
		cfg.SegmentSec = DefaultSegmentSec
	}
	if cfg.SegmentSec < 0 {
		return nil, ErrBadSegmentDuration
	}
	if cfg.VBRJitter < 0 {
		return nil, ErrBadJitter
	}
	if v.DurationSec <= 0 {
		return nil, errors.New("dash: video duration must be positive")
	}

	n := int(math.Ceil(v.DurationSec / cfg.SegmentSec))
	rng := rand.New(rand.NewSource(cfg.Seed))
	complexity := v.Complexity()
	if complexity <= 0 {
		complexity = 1
	}

	sizes := make([][]float64, n)
	for seg := 0; seg < n; seg++ {
		dur := segmentDuration(v.DurationSec, cfg.SegmentSec, seg)
		// One scene-complexity draw per segment, shared across rungs so
		// rung sizes stay ordered.
		jitter := 1.0
		if cfg.VBRJitter > 0 {
			jitter = math.Exp(rng.NormFloat64()*cfg.VBRJitter - cfg.VBRJitter*cfg.VBRJitter/2)
		}
		row := make([]float64, len(l))
		for ri, rep := range l {
			row[ri] = rep.BitrateMbps / 8 * dur * jitter * complexity
		}
		sizes[seg] = row
	}
	return &Manifest{video: v, ladder: l, segmentSec: cfg.SegmentSec, count: n, sizeMB: sizes}, nil
}

// segmentDuration is the one segment-duration rule: segment seg of a
// presentation durationSec long, cut into segmentSec pieces, lasts
// segmentSec, except a final remainder, which lasts what is left.
func segmentDuration(durationSec, segmentSec float64, seg int) float64 {
	if rem := durationSec - float64(seg)*segmentSec; rem < segmentSec {
		return rem
	}
	return segmentSec
}

// row returns segment seg's sizes per rung. A manifest with fewer rows
// than segments shares its first row among all but the final segment,
// which takes the last row.
func (m *Manifest) row(seg int) []float64 {
	switch {
	case len(m.sizeMB) == m.count:
		return m.sizeMB[seg]
	case seg == m.count-1:
		return m.sizeMB[len(m.sizeMB)-1]
	}
	return m.sizeMB[0]
}

// Video returns the manifest's title metadata.
func (m *Manifest) Video() Video { return m.video }

// Ladder returns the manifest's bitrate ladder.
func (m *Manifest) Ladder() Ladder { return m.ladder }

// SegmentCount returns the number of segments.
func (m *Manifest) SegmentCount() int { return m.count }

// SegmentSec returns the nominal segment duration.
func (m *Manifest) SegmentSec() float64 { return m.segmentSec }

// SegmentDuration returns the playback duration of segment seg (the
// final segment may be shorter).
func (m *Manifest) SegmentDuration(seg int) (float64, error) {
	if seg < 0 || seg >= m.count {
		return 0, ErrNoSuchRung
	}
	return segmentDuration(m.video.DurationSec, m.segmentSec, seg), nil
}

// SegmentSizeMB returns the payload of segment seg at ladder rung rung.
func (m *Manifest) SegmentSizeMB(seg, rung int) (float64, error) {
	if seg < 0 || seg >= m.count || rung < 0 || rung >= len(m.ladder) {
		return 0, ErrNoSuchRung
	}
	return m.row(seg)[rung], nil
}

// SegmentSizes returns segment seg's payload per ladder rung, indexed
// by rung. The returned slice is the manifest's internal row: callers
// MUST treat it as read-only. It exists for per-segment hot paths
// (session replay, task observation) where copying k sizes per
// segment per session dominated the allocation profile.
func (m *Manifest) SegmentSizes(seg int) ([]float64, error) {
	if seg < 0 || seg >= m.count {
		return nil, ErrNoSuchRung
	}
	return m.row(seg), nil
}
