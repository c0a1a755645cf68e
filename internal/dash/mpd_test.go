package dash

import (
	"bytes"
	"math"
	"runtime"
	"strings"
	"testing"
)

func mpdManifest(t *testing.T) *Manifest {
	t.Helper()
	v, err := VideoByTitle("Sintel")
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManifest(v, TableIILadder(), ManifestConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestBuildMPD(t *testing.T) {
	mpd, err := BuildMPD(mpdManifest(t))
	if err != nil {
		t.Fatal(err)
	}
	if mpd.Type != "static" {
		t.Errorf("Type = %q", mpd.Type)
	}
	reps := mpd.Period.AdaptationSet.Representations
	if len(reps) != 6 {
		t.Fatalf("representations = %d, want 6", len(reps))
	}
	if reps[0].Bandwidth != 100000 {
		t.Errorf("bottom bandwidth = %d, want 100000", reps[0].Bandwidth)
	}
	if reps[5].ID != "v5-1080p" || reps[5].Width != 1920 {
		t.Errorf("top rep = %+v", reps[5])
	}
	if _, err := BuildMPD(nil); err == nil {
		t.Error("nil manifest accepted")
	}
}

func TestMPDXMLRoundTrip(t *testing.T) {
	mpd, err := BuildMPD(mpdManifest(t))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteMPD(&buf, mpd); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"<MPD", "urn:mpeg:dash:schema:mpd:2011", "Representation", "SegmentTemplate"} {
		if !strings.Contains(out, want) {
			t.Errorf("serialised MPD missing %q", want)
		}
	}
	parsed, err := ParseMPD(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.Period.AdaptationSet.Representations) != 6 {
		t.Errorf("round-trip lost representations")
	}
	if parsed.MediaPresentationDur != mpd.MediaPresentationDur {
		t.Errorf("duration lost: %q vs %q", parsed.MediaPresentationDur, mpd.MediaPresentationDur)
	}
	if err := WriteMPD(&buf, nil); err == nil {
		t.Error("nil MPD accepted")
	}
}

func TestParseMPDMalformed(t *testing.T) {
	if _, err := ParseMPD(strings.NewReader("not xml")); err == nil {
		t.Error("malformed XML accepted")
	}
}

// TestLadderFromMPD reads the bitrate ladder back out of an MPD through
// InfoFromMPD: sorted by bandwidth, with the representation IDs aligned.
func TestLadderFromMPD(t *testing.T) {
	mpd, err := BuildMPD(mpdManifest(t))
	if err != nil {
		t.Fatal(err)
	}
	info, err := InfoFromMPD(mpd)
	if err != nil {
		t.Fatal(err)
	}
	want := TableIILadder()
	if len(info.Ladder) != len(want) || len(info.RepIDs) != len(want) {
		t.Fatalf("ladder size %d with %d IDs, want %d", len(info.Ladder), len(info.RepIDs), len(want))
	}
	reps := mpd.Period.AdaptationSet.Representations
	for i := range want {
		if math.Abs(info.Ladder[i].BitrateMbps-want[i].BitrateMbps) > 1e-9 {
			t.Errorf("rung %d = %v, want %v", i, info.Ladder[i].BitrateMbps, want[i].BitrateMbps)
		}
		if info.RepIDs[i] != reps[i].ID {
			t.Errorf("rung %d ID = %q, want %q", i, info.RepIDs[i], reps[i].ID)
		}
	}
	if _, err := InfoFromMPD(nil); err == nil {
		t.Error("nil MPD accepted")
	}
	if _, err := InfoFromMPD(&MPD{}); err == nil {
		t.Error("empty MPD accepted")
	}
}

func TestInfoFromMPD(t *testing.T) {
	man := mpdManifest(t)
	mpd, err := BuildMPD(man)
	if err != nil {
		t.Fatal(err)
	}
	info, err := InfoFromMPD(mpd)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(info.DurationSec-man.Video().DurationSec) > 1e-3 {
		t.Errorf("DurationSec = %v, want %v", info.DurationSec, man.Video().DurationSec)
	}
	if math.Abs(info.SegmentSec-man.SegmentSec()) > 1e-3 {
		t.Errorf("SegmentSec = %v, want %v", info.SegmentSec, man.SegmentSec())
	}
	if info.SegmentCount != man.SegmentCount() {
		t.Errorf("SegmentCount = %d, want %d", info.SegmentCount, man.SegmentCount())
	}
	// Missing timing rejected.
	bad := *mpd
	bad.Period.AdaptationSet.SegmentTemplate.Timescale = 0
	if _, err := InfoFromMPD(&bad); err == nil {
		t.Error("missing timescale accepted")
	}
	// Durations that give no positive, int-sized segment count are
	// rejected rather than turned into a count no loop or allocation
	// can use.
	for _, d := range []string{"PT0S", "PT-4S", "PTNaNS", "PTInfS", "PT1e300S"} {
		bad := *mpd
		bad.MediaPresentationDur = d
		if info, err := InfoFromMPD(&bad); err == nil {
			t.Errorf("duration %q accepted with %d segments", d, info.SegmentCount)
		}
	}
}

func TestParseISODuration(t *testing.T) {
	tests := []struct {
		in      string
		want    float64
		wantErr bool
	}{
		{in: "PT300.000S", want: 300},
		{in: "PT2.5S", want: 2.5},
		{in: "PT1H2M3S", want: 3723},
		{in: "PT5M", want: 300},
		{in: "300S", wantErr: true},
		{in: "PTxyzS", wantErr: true},
		{in: "PT3Sjunk", wantErr: true},
	}
	for _, tt := range tests {
		got, err := parseISODuration(tt.in)
		if tt.wantErr {
			if err == nil {
				t.Errorf("parse(%q): expected error", tt.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("parse(%q): %v", tt.in, err)
			continue
		}
		if math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("parse(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

// An MPD-derived manifest times its segments by the Manifest's own
// rule and estimates each size as nominal bitrate × duration, and it
// holds two rows of estimates however many segments the MPD declares.
func TestMPDInfoManifest(t *testing.T) {
	v := Video{Title: "short tail", SpatialInfo: 45, TemporalInfo: 15, DurationSec: 21}
	orig, err := NewManifest(v, TableIILadder(), ManifestConfig{SegmentSec: 2})
	if err != nil {
		t.Fatal(err)
	}
	mpd, err := BuildMPD(orig)
	if err != nil {
		t.Fatal(err)
	}
	info, err := InfoFromMPD(mpd)
	if err != nil {
		t.Fatal(err)
	}
	m := info.Manifest()
	if m.SegmentCount() != 11 || orig.SegmentCount() != 11 {
		t.Fatalf("segments: estimated %d, encoded %d, want 11", m.SegmentCount(), orig.SegmentCount())
	}
	for seg := 0; seg < 11; seg++ {
		want, _ := orig.SegmentDuration(seg)
		got, err := m.SegmentDuration(seg)
		if err != nil || got != want {
			t.Errorf("segment %d: duration %v (%v), want %v", seg, got, err, want)
		}
		sizes, err := m.SegmentSizes(seg)
		if err != nil {
			t.Fatal(err)
		}
		for j, r := range m.Ladder() {
			if sizes[j] != r.BitrateMbps*want/8 {
				t.Errorf("segment %d rung %d: estimate %v, want %v", seg, j, sizes[j], r.BitrateMbps*want/8)
			}
		}
	}
	if last, _ := m.SegmentDuration(10); last != 1 {
		t.Errorf("final segment lasts %v s, want 1", last)
	}
	if _, err := m.SegmentDuration(11); err == nil {
		t.Error("segment past the end accepted")
	}

	// 2^24 segments: a row per segment would take 400 MB.
	huge := info
	huge.SegmentCount = 1 << 24
	huge.DurationSec = 2*(1<<24) - 1
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	hm := huge.Manifest()
	runtime.ReadMemStats(&after)
	if d, _ := hm.SegmentDuration(1<<24 - 1); d != 1 {
		t.Errorf("final of 2^24 segments lasts %v s, want 1", d)
	}
	if b := after.TotalAlloc - before.TotalAlloc; b > 4096 {
		t.Errorf("a %d-segment manifest allocated %d bytes, want a size independent of the count", huge.SegmentCount, b)
	}
}
