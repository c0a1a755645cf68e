package dash

import (
	"strings"
	"testing"
)

// ParseMPD and InfoFromMPD must tolerate arbitrary XML without
// panicking.
func FuzzParseMPD(f *testing.F) {
	valid := `<?xml version="1.0"?>
<MPD xmlns="urn:mpeg:dash:schema:mpd:2011" type="static" mediaPresentationDuration="PT10S" minBufferTime="PT2S">
  <Period id="1">
    <AdaptationSet mimeType="video/mp4">
      <SegmentTemplate media="seg/$RepresentationID$/$Number$.m4s" duration="2000" timescale="1000" startNumber="0"></SegmentTemplate>
      <Representation id="a" bandwidth="100000" width="256" height="144"></Representation>
      <Representation id="b" bandwidth="500000" width="640" height="360"></Representation>
    </AdaptationSet>
  </Period>
</MPD>`
	f.Add(valid)
	f.Add("<MPD></MPD>")
	f.Add("not xml at all")
	f.Add("<MPD><Period><AdaptationSet><Representation bandwidth=\"-5\"/></AdaptationSet></Period></MPD>")
	f.Add("")
	for _, d := range []string{"PT-4S", "PTNaNS", "PT1e300S"} {
		f.Add(strings.Replace(valid, "PT10S", d, 1))
	}
	f.Fuzz(func(t *testing.T, input string) {
		mpd, err := ParseMPD(strings.NewReader(input))
		if err != nil {
			return
		}
		// Info derivation must also not panic; errors are fine.
		if info, err := InfoFromMPD(mpd); err == nil {
			if len(info.Ladder) == 0 || info.SegmentCount < 1 {
				t.Errorf("invalid info accepted from %q", input)
			}
		}
	})
}

func FuzzParseISODuration(f *testing.F) {
	for _, seed := range []string{"PT300S", "PT1H2M3S", "PT", "P1D", "", "PT-3S", "PTxS"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		_, _ = parseISODuration(input)
	})
}
