package eval

import (
	"fmt"

	"ecavs/internal/abr"
	"ecavs/internal/dash"
	"ecavs/internal/pool"
	"ecavs/internal/sim"
)

// AblationSegmentDuration sweeps the DASH segment duration with a TCP
// slow-start ramp enabled. Short segments adapt faster but never let
// the connection reach full speed, so their effective throughput —
// and, at fixed bitrate, their download energy — suffers; long
// segments amortise the ramp but respond sluggishly. The paper fixes
// 2 s segments (Section V-A); this ablation shows what that choice
// trades away.
func (e *Env) AblationSegmentDuration() (*Table, error) {
	comp, err := e.Comparison()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "abl-segdur",
		Caption: "Ablation: segment duration under a 0.5 s TCP ramp (Youtube policy, trace 2)",
		Header:  []string{"segment (s)", "eff. throughput (Mbps)", "download energy (J)", "total (J)", "rebuffer (s)"},
		Notes: []string{
			"short segments never exit slow start, inflating radio-on time at equal payload",
		},
	}
	if len(comp.Results) < 2 {
		return nil, fmt.Errorf("eval: segment-duration ablation needs trace 2, comparison has %d traces", len(comp.Results))
	}
	tr := comp.Results[1].Trace // the strong-signal trace isolates the ramp effect
	durations := []float64{1, 2, 4, 6}
	rows := make([][]string, len(durations))
	if err := pool.Run(len(durations), 0, func(i int) error {
		segSec := durations[i]
		video := dash.Video{
			Title:        fmt.Sprintf("segdur-%v", segSec),
			SpatialInfo:  45,
			TemporalInfo: 15,
			DurationSec:  tr.LengthSec,
		}
		man, err := dash.NewManifest(video, evalLadder, dash.ManifestConfig{
			SegmentSec: segSec,
			Seed:       int64(2000 + int(segSec)),
		})
		if err != nil {
			return err
		}
		tc, err := tr.Compiled()
		if err != nil {
			return err
		}
		m, err := sim.Run(sim.Config{
			Manifest:   man,
			Link:       tc.Link(),
			Algorithm:  abr.NewYoutube(),
			Power:      evalPower,
			QoE:        evalQoE,
			TCPRampSec: 0.5,
		})
		if err != nil {
			return err
		}
		var thSum float64
		for _, s := range m.Segments {
			thSum += s.ThroughputMbps
		}
		eff := 0.0
		if len(m.Segments) > 0 {
			eff = thSum / float64(len(m.Segments))
		}
		rows[i] = []string{
			fmt.Sprintf("%.0f", segSec), f1(eff), f1(m.DownloadJ), f1(m.TotalJ()), f1(m.RebufferSec),
		}
		return nil
	}); err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, rows...)
	return t, nil
}
