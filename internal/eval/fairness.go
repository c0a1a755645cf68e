package eval

import (
	"fmt"

	"ecavs/internal/abr"
	"ecavs/internal/dash"
	"ecavs/internal/multisim"
)

// ExtendedFairness co-simulates three clients sharing a 12 Mbps
// bottleneck under each policy — the multi-player setting FESTIVE (the
// paper's reference [2]) targets — and reports Jain's fairness index,
// stability, and stalling.
func (e *Env) ExtendedFairness() (*Table, error) {
	t := &Table{
		ID:      "ext-fairness",
		Caption: "Extended: three clients sharing a 12 Mbps bottleneck (beyond the paper)",
		Header:  []string{"policy", "Jain fairness", "mean bitrate (Mbps)", "switches (total)", "rebuffer (s)"},
		Notes: []string{
			"processor-sharing split; per-client fair share is 4 Mbps",
		},
	}
	policies := []struct {
		name string
		make func() abr.Algorithm
	}{
		{name: "FESTIVE", make: func() abr.Algorithm { return abr.NewFESTIVE() }},
		{name: "RateBased", make: func() abr.Algorithm { return abr.NewRateBased() }},
		{name: "BBA", make: func() abr.Algorithm { return abr.NewBBA() }},
		{name: "BOLA", make: func() abr.Algorithm { return abr.NewBOLA() }},
	}
	for _, p := range policies {
		clients := make([]multisim.Client, 3)
		for i := range clients {
			video := dash.Video{
				Title:        fmt.Sprintf("shared-%d", i),
				SpatialInfo:  45,
				TemporalInfo: 15,
				DurationSec:  120,
			}
			man, err := dash.NewManifest(video, dash.TableIILadder(), dash.ManifestConfig{Seed: int64(10 + i)})
			if err != nil {
				return nil, err
			}
			clients[i] = multisim.Client{
				Name:           fmt.Sprintf("%s-%d", p.name, i),
				Manifest:       man,
				Algorithm:      p.make(),
				StartOffsetSec: float64(i) * 5,
			}
		}
		res, err := multisim.Run(multisim.Config{Clients: clients, CapacityMbps: 12})
		if err != nil {
			return nil, fmt.Errorf("eval: fairness %s: %w", p.name, err)
		}
		var brSum, rebuf float64
		var switches int
		for _, c := range res.Clients {
			brSum += c.MeanBitrateMbps
			switches += c.Switches
			rebuf += c.RebufferSec
		}
		t.Rows = append(t.Rows, []string{
			p.name,
			f3(res.JainFairness),
			f2(brSum / float64(len(res.Clients))),
			fmt.Sprintf("%d", switches),
			f1(rebuf),
		})
	}
	return t, nil
}
