package dash

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// The MPD types model the subset of ISO/IEC 23009-1 (MPEG-DASH Media
// Presentation Description) this library needs: one period, one video
// adaptation set, number-templated segments, one Representation per
// ladder rung. They round-trip through encoding/xml.

// MPD is the root manifest document.
type MPD struct {
	XMLName              xml.Name `xml:"MPD"`
	Xmlns                string   `xml:"xmlns,attr"`
	Type                 string   `xml:"type,attr"`
	MediaPresentationDur string   `xml:"mediaPresentationDuration,attr"`
	MinBufferTime        string   `xml:"minBufferTime,attr"`
	Period               Period   `xml:"Period"`
}

// Period is the single content period.
type Period struct {
	ID            string        `xml:"id,attr"`
	AdaptationSet AdaptationSet `xml:"AdaptationSet"`
}

// AdaptationSet carries the video representations.
type AdaptationSet struct {
	MimeType        string              `xml:"mimeType,attr"`
	SegmentTemplate SegmentTemplate     `xml:"SegmentTemplate"`
	Representations []MPDRepresentation `xml:"Representation"`
}

// SegmentTemplate describes number-based segment addressing.
type SegmentTemplate struct {
	Media       string `xml:"media,attr"`
	Duration    int    `xml:"duration,attr"`  // in Timescale units
	Timescale   int    `xml:"timescale,attr"` // units per second
	StartNumber int    `xml:"startNumber,attr"`
}

// MPDRepresentation is one encoded rung.
type MPDRepresentation struct {
	ID        string `xml:"id,attr"`
	Bandwidth int    `xml:"bandwidth,attr"` // bits per second
	Width     int    `xml:"width,attr"`
	Height    int    `xml:"height,attr"`
}

// isoDuration renders seconds as an ISO-8601 duration (PT#S form).
func isoDuration(sec float64) string {
	return fmt.Sprintf("PT%.3fS", sec)
}

// parseISODuration parses the PT...S subset (optionally with H and M
// components) emitted by isoDuration and common packagers.
func parseISODuration(s string) (float64, error) {
	if !strings.HasPrefix(s, "PT") {
		return 0, fmt.Errorf("dash: unsupported duration %q", s)
	}
	rest := s[2:]
	var total float64
	for _, unit := range []struct {
		suffix string
		mult   float64
	}{{suffix: "H", mult: 3600}, {suffix: "M", mult: 60}, {suffix: "S", mult: 1}} {
		idx := strings.Index(rest, unit.suffix)
		if idx < 0 {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(rest[:idx], "%g", &v); err != nil {
			return 0, fmt.Errorf("dash: bad duration %q: %w", s, err)
		}
		total += v * unit.mult
		rest = rest[idx+1:]
	}
	if rest != "" {
		return 0, fmt.Errorf("dash: trailing duration content %q", rest)
	}
	return total, nil
}

// BuildMPD renders a manifest as an MPD document.
func BuildMPD(m *Manifest) (*MPD, error) {
	if m == nil {
		return nil, errors.New("dash: nil manifest")
	}
	const timescale = 1000
	reps := make([]MPDRepresentation, 0, len(m.Ladder()))
	for _, rep := range m.Ladder() {
		// IDs embed the rung index: resolution names alone collide on
		// dense ladders (the eval ladder has two 720p rungs).
		reps = append(reps, MPDRepresentation{
			ID:        fmt.Sprintf("v%d-%s", rep.Index, rep.Name),
			Bandwidth: int(math.Round(rep.BitrateMbps * 1e6)),
			Width:     rep.Width,
			Height:    rep.Height,
		})
	}
	return &MPD{
		Xmlns:                "urn:mpeg:dash:schema:mpd:2011",
		Type:                 "static",
		MediaPresentationDur: isoDuration(m.Video().DurationSec),
		MinBufferTime:        isoDuration(m.SegmentSec()),
		Period: Period{
			ID: "1",
			AdaptationSet: AdaptationSet{
				MimeType: "video/mp4",
				SegmentTemplate: SegmentTemplate{
					Media:       "seg/$RepresentationID$/$Number$.m4s",
					Duration:    int(math.Round(m.SegmentSec() * timescale)),
					Timescale:   timescale,
					StartNumber: 0,
				},
				Representations: reps,
			},
		},
	}, nil
}

// WriteMPD serialises the MPD as XML with a header.
func WriteMPD(w io.Writer, mpd *MPD) error {
	if mpd == nil {
		return errors.New("dash: nil MPD")
	}
	if _, err := io.WriteString(w, xml.Header); err != nil {
		return fmt.Errorf("dash: write header: %w", err)
	}
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(mpd); err != nil {
		return fmt.Errorf("dash: encode mpd: %w", err)
	}
	return enc.Flush()
}

// ParseMPD reads an MPD document.
func ParseMPD(r io.Reader) (*MPD, error) {
	var mpd MPD
	if err := xml.NewDecoder(r).Decode(&mpd); err != nil {
		return nil, fmt.Errorf("dash: decode mpd: %w", err)
	}
	return &mpd, nil
}

// ladderAndIDs returns the ladder and the representation IDs aligned
// with it (ascending bandwidth).
func ladderAndIDs(mpd *MPD) (Ladder, []string, error) {
	if mpd == nil {
		return nil, nil, errors.New("dash: nil MPD")
	}
	reps := mpd.Period.AdaptationSet.Representations
	if len(reps) == 0 {
		return nil, nil, ErrEmptyLadder
	}
	sorted := make([]MPDRepresentation, len(reps))
	copy(sorted, reps)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Bandwidth < sorted[j].Bandwidth })
	bitrates := make([]float64, 0, len(sorted))
	ids := make([]string, 0, len(sorted))
	for _, r := range sorted {
		bitrates = append(bitrates, float64(r.Bandwidth)/1e6)
		ids = append(ids, r.ID)
	}
	ladder, err := NewLadder(bitrates)
	if err != nil {
		return nil, nil, err
	}
	return ladder, ids, nil
}

// MPDInfo summarises the stream parameters a client needs.
type MPDInfo struct {
	// DurationSec is the presentation duration.
	DurationSec float64
	// SegmentSec is the nominal segment duration.
	SegmentSec float64
	// SegmentCount is the number of segments.
	SegmentCount int
	// Ladder is the reconstructed bitrate ladder.
	Ladder Ladder
	// RepIDs are the representation IDs aligned with Ladder (ascending
	// bandwidth); clients use them to address segments.
	RepIDs []string
}

// InfoFromMPD extracts client parameters from a parsed MPD.
func InfoFromMPD(mpd *MPD) (MPDInfo, error) {
	ladder, ids, err := ladderAndIDs(mpd)
	if err != nil {
		return MPDInfo{}, err
	}
	dur, err := parseISODuration(mpd.MediaPresentationDur)
	if err != nil {
		return MPDInfo{}, err
	}
	st := mpd.Period.AdaptationSet.SegmentTemplate
	if st.Timescale <= 0 || st.Duration <= 0 {
		return MPDInfo{}, errors.New("dash: missing segment template timing")
	}
	segSec := float64(st.Duration) / float64(st.Timescale)
	// A zero, negative, NaN or infinite duration, or one too long for an
	// int segment number, fails this check before the conversion.
	count := math.Ceil(dur / segSec)
	if !(count >= 1 && count <= math.MaxInt32) {
		return MPDInfo{}, fmt.Errorf("dash: duration %q gives no usable segment count", mpd.MediaPresentationDur)
	}
	return MPDInfo{
		DurationSec:  dur,
		SegmentSec:   segSec,
		SegmentCount: int(count),
		Ladder:       ladder,
		RepIDs:       ids,
	}, nil
}

// Manifest returns the client's view of the presentation: the MPD's
// ladder and segment timing, timed by the one rule every Manifest uses
// (a short final segment lasts what is left), with each segment's size
// per rung estimated as nominal bitrate × duration, since an MPD
// carries no sizes. Every full segment shares one row of estimates and
// a short final segment has its own, so the manifest's size does not
// grow with a segment count read off the wire.
func (i MPDInfo) Manifest() *Manifest {
	first := segmentDuration(i.DurationSec, i.SegmentSec, 0)
	last := segmentDuration(i.DurationSec, i.SegmentSec, i.SegmentCount-1)
	rows := [][]float64{i.estimate(first)}
	if last != first {
		rows = append(rows, i.estimate(last))
	}
	video := Video{DurationSec: i.DurationSec}
	return &Manifest{video: video, ladder: i.Ladder, segmentSec: i.SegmentSec, count: i.SegmentCount, sizeMB: rows}
}

// estimate returns a segment's nominal size per rung for its duration.
func (i MPDInfo) estimate(durSec float64) []float64 {
	row := make([]float64, len(i.Ladder))
	for j, r := range i.Ladder {
		row[j] = r.BitrateMbps * durSec / 8
	}
	return row
}
