package dash

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestNewLadderValidation(t *testing.T) {
	if _, err := NewLadder(nil); !errors.Is(err, ErrEmptyLadder) {
		t.Errorf("empty: err = %v, want ErrEmptyLadder", err)
	}
	if _, err := NewLadder([]float64{1, 1}); !errors.Is(err, ErrUnsortedLadder) {
		t.Errorf("duplicate: err = %v, want ErrUnsortedLadder", err)
	}
	if _, err := NewLadder([]float64{2, 1}); !errors.Is(err, ErrUnsortedLadder) {
		t.Errorf("descending: err = %v, want ErrUnsortedLadder", err)
	}
	if _, err := NewLadder([]float64{0, 1}); !errors.Is(err, ErrUnsortedLadder) {
		t.Errorf("zero rung: err = %v, want ErrUnsortedLadder", err)
	}
}

func TestTableIILadder(t *testing.T) {
	l := TableIILadder()
	wantRates := []float64{0.1, 0.375, 0.75, 1.5, 3.0, 5.8}
	wantNames := []string{"144p", "240p", "360p", "480p", "720p", "1080p"}
	if len(l) != len(wantRates) {
		t.Fatalf("len = %d, want %d", len(l), len(wantRates))
	}
	for i, r := range l {
		if r.BitrateMbps != wantRates[i] {
			t.Errorf("rung %d bitrate = %v, want %v", i, r.BitrateMbps, wantRates[i])
		}
		if r.Name != wantNames[i] {
			t.Errorf("rung %d name = %q, want %q", i, r.Name, wantNames[i])
		}
		if r.Index != i {
			t.Errorf("rung %d Index = %d", i, r.Index)
		}
	}
}

func TestEvalLadderMatchesPaper(t *testing.T) {
	l := EvalLadder()
	want := []float64{0.1, 0.2, 0.24, 0.375, 0.55, 0.75, 1.0, 1.5, 2.3, 2.56, 3.0, 3.6, 4.3, 5.8}
	if len(l) != 14 {
		t.Fatalf("len = %d, want 14 (Section V-A)", len(l))
	}
	for i, r := range l {
		if r.BitrateMbps != want[i] {
			t.Errorf("rung %d = %v, want %v", i, r.BitrateMbps, want[i])
		}
	}
}

func TestLowestHighestRung(t *testing.T) {
	l := TableIILadder()
	if l.Lowest().BitrateMbps != 0.1 {
		t.Errorf("Lowest = %v, want 0.1", l.Lowest().BitrateMbps)
	}
	if l.Highest().BitrateMbps != 5.8 {
		t.Errorf("Highest = %v, want 5.8", l.Highest().BitrateMbps)
	}
	if l[3].BitrateMbps != 1.5 {
		t.Errorf("rung 3 = %v, want 1.5", l[3].BitrateMbps)
	}
}

func TestHighestBelow(t *testing.T) {
	l := TableIILadder()
	tests := []struct {
		mbps float64
		want float64
	}{
		{mbps: 10, want: 5.8},
		{mbps: 5.8, want: 5.8},
		{mbps: 5.0, want: 3.0},
		{mbps: 1.49, want: 0.75},
		{mbps: 0.05, want: 0.1}, // below everything: bottom rung
		{mbps: 0, want: 0.1},
	}
	for _, tt := range tests {
		if got := l.HighestBelow(tt.mbps); got.BitrateMbps != tt.want {
			t.Errorf("HighestBelow(%v) = %v, want %v", tt.mbps, got.BitrateMbps, tt.want)
		}
	}
}

// HighestBelow never exceeds the request unless the request is below
// the whole ladder.
func TestHighestBelowProperty(t *testing.T) {
	l := EvalLadder()
	f := func(raw uint16) bool {
		mbps := float64(raw%800) / 100 // 0 .. 8
		got := l.HighestBelow(mbps)
		if mbps >= l.Lowest().BitrateMbps {
			return got.BitrateMbps <= mbps
		}
		return got.Index == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBitratesCopies(t *testing.T) {
	l := TableIILadder()
	b := l.Bitrates()
	b[0] = 999
	if l[0].BitrateMbps == 999 {
		t.Error("Bitrates aliases the ladder")
	}
}

func TestCatalog(t *testing.T) {
	cat := Catalog()
	if len(cat) != 10 {
		t.Fatalf("catalog has %d titles, want 10 (Table I)", len(cat))
	}
	seen := make(map[string]bool, len(cat))
	for _, v := range cat {
		if seen[v.Title] {
			t.Errorf("duplicate title %q", v.Title)
		}
		seen[v.Title] = true
		// Fig. 2(a) axes: SI within [30, 60], TI within [0, 30].
		if v.SpatialInfo < 30 || v.SpatialInfo > 60 {
			t.Errorf("%s SI = %v outside Fig. 2a range", v.Title, v.SpatialInfo)
		}
		if v.TemporalInfo < 0 || v.TemporalInfo > 30 {
			t.Errorf("%s TI = %v outside Fig. 2a range", v.Title, v.TemporalInfo)
		}
		if v.DurationSec <= 0 {
			t.Errorf("%s has non-positive duration", v.Title)
		}
		if v.Complexity() <= 0 {
			t.Errorf("%s has non-positive complexity", v.Title)
		}
	}
	// Speech (talking head) must be the least complex; Goodwood
	// (horseracing) among the most complex.
	speech, _ := VideoByTitle("Speech")
	goodwood, _ := VideoByTitle("Goodwood")
	if speech.Complexity() >= goodwood.Complexity() {
		t.Error("Speech should be less complex than Goodwood")
	}
}

func TestVideoByTitle(t *testing.T) {
	v, err := VideoByTitle("Matrix")
	if err != nil || v.Title != "Matrix" {
		t.Errorf("VideoByTitle = %+v, %v", v, err)
	}
	if _, err := VideoByTitle("Nope"); err == nil {
		t.Error("expected error for unknown title")
	}
}

func TestNewManifestValidation(t *testing.T) {
	v, _ := VideoByTitle("BBB")
	if _, err := NewManifest(v, nil, ManifestConfig{}); !errors.Is(err, ErrEmptyLadder) {
		t.Errorf("nil ladder err = %v, want ErrEmptyLadder", err)
	}
	if _, err := NewManifest(v, TableIILadder(), ManifestConfig{SegmentSec: -1}); !errors.Is(err, ErrBadSegmentDuration) {
		t.Errorf("negative segment err = %v, want ErrBadSegmentDuration", err)
	}
	if _, err := NewManifest(v, TableIILadder(), ManifestConfig{VBRJitter: -0.1}); !errors.Is(err, ErrBadJitter) {
		t.Errorf("negative jitter err = %v, want ErrBadJitter", err)
	}
	bad := v
	bad.DurationSec = 0
	if _, err := NewManifest(bad, TableIILadder(), ManifestConfig{}); err == nil {
		t.Error("expected error for zero-duration video")
	}
}

func TestManifestSegmentation(t *testing.T) {
	v := Video{Title: "T", SpatialInfo: 45, TemporalInfo: 15, DurationSec: 11}
	m, err := NewManifest(v, TableIILadder(), ManifestConfig{SegmentSec: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.SegmentCount() != 6 {
		t.Errorf("SegmentCount = %d, want 6 (11 s / 2 s, rounded up)", m.SegmentCount())
	}
	d0, err := m.SegmentDuration(0)
	if err != nil || d0 != 2 {
		t.Errorf("SegmentDuration(0) = %v, %v; want 2", d0, err)
	}
	dLast, err := m.SegmentDuration(5)
	if err != nil || math.Abs(dLast-1) > 1e-9 {
		t.Errorf("SegmentDuration(5) = %v, %v; want 1 (trailing partial)", dLast, err)
	}
	if _, err := m.SegmentDuration(6); !errors.Is(err, ErrNoSuchRung) {
		t.Errorf("out-of-range err = %v, want ErrNoSuchRung", err)
	}
}

func TestManifestSizesOrderedAcrossRungs(t *testing.T) {
	v, _ := VideoByTitle("Battle")
	m, err := NewManifest(v, EvalLadder(), ManifestConfig{Seed: 5, VBRJitter: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	for seg := 0; seg < m.SegmentCount(); seg++ {
		prev := -1.0
		for rung := 0; rung < len(m.Ladder()); rung++ {
			size, err := m.SegmentSizeMB(seg, rung)
			if err != nil {
				t.Fatal(err)
			}
			if size <= prev {
				t.Fatalf("segment %d sizes not ascending across rungs", seg)
			}
			prev = size
		}
	}
}

func TestManifestSizesNominalWithoutJitter(t *testing.T) {
	v := Video{Title: "Flat", SpatialInfo: 45, TemporalInfo: 15, DurationSec: 10}
	m, err := NewManifest(v, TableIILadder(), ManifestConfig{SegmentSec: 2, VBRJitter: 0, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	c := v.Complexity()
	size, err := m.SegmentSizeMB(0, 3) // 1.5 Mbps, 2 s
	if err != nil {
		t.Fatal(err)
	}
	want := 1.5 / 8 * 2 * c
	if math.Abs(size-want) > 1e-9 {
		t.Errorf("size = %v, want %v (nominal x complexity)", size, want)
	}
}

func TestManifestJitterIsUnbiased(t *testing.T) {
	v := Video{Title: "J", SpatialInfo: 45, TemporalInfo: 15, DurationSec: 4000}
	m, err := NewManifest(v, TableIILadder(), ManifestConfig{Seed: 3, VBRJitter: 0.12})
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for seg := 0; seg < m.SegmentCount(); seg++ {
		size, err := m.SegmentSizeMB(seg, 5) // 5.8 Mbps
		if err != nil {
			t.Fatal(err)
		}
		total += size
	}
	want := 5.8 / 8 * 4000 * v.Complexity()
	if math.Abs(total-want)/want > 0.02 {
		t.Errorf("total = %.1f MB, want within 2%% of %.1f MB", total, want)
	}
}

func TestManifestErrors(t *testing.T) {
	v, _ := VideoByTitle("BBB")
	m, err := NewManifest(v, TableIILadder(), ManifestConfig{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.SegmentSizeMB(-1, 0); !errors.Is(err, ErrNoSuchRung) {
		t.Errorf("bad seg err = %v", err)
	}
	if _, err := m.SegmentSizeMB(0, 99); !errors.Is(err, ErrNoSuchRung) {
		t.Errorf("bad rung err = %v", err)
	}
}

func TestManifestDeterministicBySeed(t *testing.T) {
	v, _ := VideoByTitle("Sintel")
	m1, _ := NewManifest(v, EvalLadder(), ManifestConfig{Seed: 9})
	m2, _ := NewManifest(v, EvalLadder(), ManifestConfig{Seed: 9})
	for seg := 0; seg < m1.SegmentCount(); seg++ {
		s1, _ := m1.SegmentSizeMB(seg, 7)
		s2, _ := m2.SegmentSizeMB(seg, 7)
		if s1 != s2 {
			t.Fatal("manifests with equal seeds diverged")
		}
	}
}

func TestManifestAccessors(t *testing.T) {
	v, _ := VideoByTitle("Show")
	m, err := NewManifest(v, TableIILadder(), ManifestConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Video().Title != "Show" {
		t.Error("Video() lost metadata")
	}
	if len(m.Ladder()) != 6 {
		t.Error("Ladder() lost rungs")
	}
	if m.SegmentSec() != DefaultSegmentSec {
		t.Errorf("SegmentSec = %v, want default", m.SegmentSec())
	}
}
