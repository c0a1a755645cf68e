package sim

import (
	"errors"

	"ecavs/internal/abr"
	"ecavs/internal/dash"
	"ecavs/internal/player"
	"ecavs/internal/power"
	"ecavs/internal/qoe"
	"ecavs/internal/trace"
)

// RunOnTrace replays a recorded trace through Run with the paper's
// evaluation setup: the evaluation power model, the Table III QoE
// model and the 30 s buffer threshold. The link comes from the trace's
// network points and the vibration signal from its accelerometer
// stream, windowed the way the online estimator would see it (Section
// IV-B). Both are read through the trace's compiled form, built once
// and shared by every session of the trace.
func RunOnTrace(tr *trace.Trace, m *dash.Manifest, alg abr.Algorithm) (*Metrics, error) {
	if tr == nil {
		return nil, errors.New("sim: nil trace")
	}
	comp, err := tr.Compiled()
	if err != nil {
		return nil, err
	}
	qm := qoe.Default()
	var rt *qoe.RungTable
	if m != nil {
		rt = qm.CompileRungs(m.Ladder().Bitrates())
	}
	return Run(Config{
		SessionParams:      SessionParams{RungQoE: rt},
		Manifest:           m,
		Link:               comp.Link(),
		VibrationAt:        comp.Vibration(0),
		Algorithm:          alg,
		Power:              power.EvalModel(),
		QoE:                qm,
		BufferThresholdSec: player.DefaultBufferThresholdSec,
	})
}

// ManifestForTrace builds the manifest of the video a trace's session
// watched: duration from the trace, mid-complexity content, seeded by
// the trace ID so sessions are reproducible.
func ManifestForTrace(tr *trace.Trace, ladder dash.Ladder) (*dash.Manifest, error) {
	if tr == nil {
		return nil, errors.New("sim: nil trace")
	}
	video := dash.Video{
		Title:        tr.Name,
		Genre:        "trace session",
		SpatialInfo:  45,
		TemporalInfo: 15,
		DurationSec:  tr.LengthSec,
	}
	return dash.NewManifest(video, ladder, dash.ManifestConfig{Seed: int64(1000 + tr.ID)})
}

// BaseEnergyJ returns the Section V-B base energy of a trace session:
// the total energy when every segment is fetched at the ladder's
// lowest rung (screen + transfer + decode minimum), replayed as
// RunOnTrace replays it.
func BaseEnergyJ(tr *trace.Trace, m *dash.Manifest) (float64, error) {
	metrics, err := RunOnTrace(tr, m, &abr.Fixed{Rung: 0})
	if err != nil {
		return 0, err
	}
	return metrics.TotalJ(), nil
}
