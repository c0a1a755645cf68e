package eval

import (
	"fmt"

	"ecavs/internal/abr"
	"ecavs/internal/core"
	"ecavs/internal/player"
	"ecavs/internal/pool"
	"ecavs/internal/sim"
	"ecavs/internal/trace"
)

// ExtendedRobustness re-runs the headline comparison on freshly
// re-seeded traces — a simulated "second measurement campaign" — to
// check that the paper's conclusion is a property of the contexts, not
// of one random draw. Three independent campaigns are reported.
func (e *Env) ExtendedRobustness() (*Table, error) {
	t := &Table{
		ID:      "ext-robustness",
		Caption: "Extended: headline savings across re-seeded trace campaigns (beyond the paper)",
		Header:  []string{"campaign", "Ours saving", "Ours QoE degr.", "FESTIVE saving"},
		Notes: []string{
			"each campaign regenerates all five Table V traces with different random seeds",
		},
	}
	obj, err := core.NewObjective(e.Alpha, e.EvalPower, e.QoE)
	if err != nil {
		return nil, err
	}
	// One pool unit per campaign × trace; a unit regenerates its trace
	// and replays the three algorithms on it. Units are independent
	// (fresh traces, fresh algorithm instances), and the per-campaign
	// averages are accumulated afterwards in the sequential order.
	const campaigns = 3
	specs := trace.TableVSpecs()
	nt := len(specs)
	type sessionTriple struct{ save, degr, festSave float64 }
	triples := make([]sessionTriple, campaigns*nt)
	if err := pool.Run(len(triples), 0, func(unit int) error {
		campaign, spec := unit/nt, specs[unit%nt]
		spec.Seed += int64(campaign * 1000)
		tr, err := trace.Generate(spec, e.EvalPower.NominalThroughputMBps)
		if err != nil {
			return fmt.Errorf("eval: campaign %d trace %d: %w", campaign, spec.ID, err)
		}
		man, err := sim.ManifestForTrace(tr, e.Ladder)
		if err != nil {
			return err
		}
		yt, err := sim.RunOnTrace(tr, man, abr.NewYoutube(), e.EvalPower, e.QoE, player.DefaultBufferThresholdSec)
		if err != nil {
			return err
		}
		ours, err := sim.RunOnTrace(tr, man, core.NewOnline(obj), e.EvalPower, e.QoE, player.DefaultBufferThresholdSec)
		if err != nil {
			return err
		}
		fest, err := sim.RunOnTrace(tr, man, abr.NewFESTIVE(), e.EvalPower, e.QoE, player.DefaultBufferThresholdSec)
		if err != nil {
			return err
		}
		triples[unit] = sessionTriple{
			save:     1 - ours.TotalJ()/yt.TotalJ(),
			degr:     1 - ours.MeanQoE/yt.MeanQoE,
			festSave: 1 - fest.TotalJ()/yt.TotalJ(),
		}
		return nil
	}); err != nil {
		return nil, err
	}
	for campaign := 0; campaign < campaigns; campaign++ {
		var save, degr, festSave, n float64
		for ti := 0; ti < nt; ti++ {
			tr := triples[campaign*nt+ti]
			save += tr.save
			degr += tr.degr
			festSave += tr.festSave
			n++
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("seeds+%d", campaign*1000), pct(save / n), pct(degr / n), pct(festSave / n),
		})
	}
	return t, nil
}
