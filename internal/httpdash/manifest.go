package httpdash

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"strconv"

	"ecavs/internal/dash"
)

// GetManifest fetches and parses base/manifest.mpd in one attempt: one
// GET through GetSegment with the body kept, then dash.ParseMPD and
// dash.InfoFromMPD. It is the one manifest reader; the streaming
// client retries it under its policy and cmd/loadgen calls it once.
// The error is non-nil whenever the GET failed or the body did not
// parse; the Attempt is returned either way, so a retrying caller can
// classify the GET itself.
func GetManifest(ctx context.Context, hc *http.Client, base string) (dash.MPDInfo, Attempt, error) {
	a := GetSegment(ctx, hc, base+"/manifest.mpd", "", true)
	if a.Err != nil {
		return dash.MPDInfo{}, a, fmt.Errorf("httpdash: manifest: %w", a.Err)
	}
	mpd, err := dash.ParseMPD(bytes.NewReader(a.Body))
	if err != nil {
		return dash.MPDInfo{}, a, fmt.Errorf("httpdash: parse manifest: %w", err)
	}
	info, err := dash.InfoFromMPD(mpd)
	if err != nil {
		return dash.MPDInfo{}, a, fmt.Errorf("httpdash: manifest info: %w", err)
	}
	return info, a, nil
}

// SegmentURL is the URL of segment n of representation repID under
// base, in the layout the MPD's SegmentTemplate declares
// (seg/$RepresentationID$/$Number$.m4s). It is the one segment-URL
// builder: the client, Server.SegmentURL and cmd/loadgen all call it.
// base carries no trailing slash.
func SegmentURL(base, repID string, n int) string {
	return base + "/seg/" + repID + "/" + strconv.Itoa(n) + ".m4s"
}
