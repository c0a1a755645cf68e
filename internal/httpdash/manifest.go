package httpdash

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"

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
// builder: the client and cmd/loadgen both call it.
// base carries no trailing slash.
func SegmentURL(base, repID string, n int) string {
	return base + "/seg/" + repID + "/" + strconv.Itoa(n) + ".m4s"
}

// parseSegmentPath is SegmentURL's inverse on a request path: it splits
// /seg/<repID>/<n>.m4s into repID and n. It accepts only the number
// SegmentURL renders — decimal, no sign, no leading zero except in "0"
// itself — so each segment has one URL, and an edge keying its cache
// by path holds one entry per segment. It cuts substrings and
// allocates nothing.
func parseSegmentPath(path string) (repID string, n int, ok bool) {
	rest, ok := strings.CutPrefix(path, "/seg/")
	if !ok {
		return "", 0, false
	}
	repID, file, ok := strings.Cut(rest, "/")
	if !ok {
		return "", 0, false
	}
	num, ok := strings.CutSuffix(file, ".m4s")
	// Atoi alone would also take a sign and leading zeros.
	if !ok || num == "" || num[0] < '0' || num[0] > '9' || (num[0] == '0' && num != "0") {
		return "", 0, false
	}
	n, err := strconv.Atoi(num)
	if err != nil {
		return "", 0, false
	}
	return repID, n, true
}
