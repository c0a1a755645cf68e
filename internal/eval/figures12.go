package eval

import (
	"ecavs/internal/dash"
	"ecavs/internal/fit"
	"ecavs/internal/qoe"
)

// Fig1a reproduces Fig. 1(a): total energy to download 100 MB as the
// signal strength sweeps from -90 to -115 dBm.
func (e *Env) Fig1a() (*Table, error) {
	t := &Table{
		ID:      "fig1a",
		Caption: "Energy to download 100 MB vs. signal strength (Fig. 1a)",
		Header:  []string{"signal (dBm)", "energy (J)", "energy/MB (J)", "nominal rate (Mbps)"},
		Notes: []string{
			"paper anchors: 49 J at -90 dBm, 193 J at -115 dBm",
		},
	}
	for s := -90.0; s >= -115; s -= 5 {
		t.Rows = append(t.Rows, []string{
			f1(s),
			f1(e.Power.DownloadEnergyJ(100, s)),
			f3(e.Power.EnergyPerMBJ(s)),
			f1(e.Power.NominalThroughputMbps(s)),
		})
	}
	return t, nil
}

// Fig1b reproduces Fig. 1(b): perceived QoE and session energy as
// functions of bitrate in a quiet room versus on a moving vehicle.
func (e *Env) Fig1b() (*Table, error) {
	const (
		roomVib    = 0.2
		vehicleVib = 6.5
		roomDBm    = -88.0
		vehicleDBm = -108.0
		sessionSec = 300.0
	)
	t := &Table{
		ID:      "fig1b",
		Caption: "QoE and relative energy vs. bitrate, room vs. vehicle (Fig. 1b)",
		Header: []string{"bitrate (Mbps)", "res", "QoE room", "QoE vehicle",
			"energy room (J)", "energy vehicle (J)"},
	}
	ladder := dash.TableIILadder()
	baseRoom := e.Power.SessionEnergyJ(ladder.Lowest().BitrateMbps, sessionSec, roomDBm)
	baseVeh := e.Power.SessionEnergyJ(ladder.Lowest().BitrateMbps, sessionSec, vehicleDBm)
	for _, rep := range ladder {
		r := rep.BitrateMbps
		t.Rows = append(t.Rows, []string{
			f2(r),
			rep.Name,
			f2(e.QoE.PerceivedQuality(r, roomVib)),
			f2(e.QoE.PerceivedQuality(r, vehicleVib)),
			f1(e.Power.SessionEnergyJ(r, sessionSec, roomDBm) - baseRoom),
			f1(e.Power.SessionEnergyJ(r, sessionSec, vehicleDBm) - baseVeh),
		})
	}
	// Annotations the paper prints on the figure.
	room1080 := e.QoE.PerceivedQuality(5.8, roomVib)
	room480 := e.QoE.PerceivedQuality(1.5, roomVib)
	veh1080 := e.QoE.PerceivedQuality(5.8, vehicleVib)
	veh480 := e.QoE.PerceivedQuality(1.5, vehicleVib)
	e1080 := e.Power.SessionEnergyJ(5.8, sessionSec, vehicleDBm) - baseVeh
	e480 := e.Power.SessionEnergyJ(1.5, sessionSec, vehicleDBm) - baseVeh
	t.Notes = append(t.Notes,
		"paper annotations: room QoE drop 1080p->480p 12%, vehicle 4%, vehicle energy saving 65%",
		"measured: room drop "+pct((room1080-room480)/room1080)+
			", vehicle drop "+pct((veh1080-veh480)/veh1080)+
			", vehicle extra-energy saving "+pct((e1080-e480)/e1080),
		"the fitted Fig. 2b/2c models imply a steeper room drop than the raw Fig. 1b study (see EXPERIMENTS.md)",
	)
	return t, nil
}

// Fig2a reproduces Fig. 2(a): the spatial/temporal information of the
// Table I test videos.
func (e *Env) Fig2a() (*Table, error) {
	t := &Table{
		ID:      "fig2a",
		Caption: "Average spatial and temporal information of the test videos (Fig. 2a, Table I)",
		Header:  []string{"title", "genre", "SI", "TI", "complexity"},
		Notes:   []string{"paper plots SI 30-60 and TI 0-30 across ten genres"},
	}
	for _, v := range dash.Catalog() {
		t.Rows = append(t.Rows, []string{v.Title, v.Genre, f1(v.SpatialInfo), f1(v.TemporalInfo), f2(v.Complexity())})
	}
	return t, nil
}

// raterStudy synthesises the paper's IRB quality-assessment study:
// twenty subjects rate every (bitrate, vibration) cell.
func (e *Env) raterStudy(vibrations []float64) (rs, vs, q5s []float64) {
	const subjects = 20
	ladder := dash.TableIILadder()
	for s := 0; s < subjects; s++ {
		rater := qoe.NewRater(e.QoE, 0.5, int64(7000+s))
		for _, rep := range ladder {
			for _, v := range vibrations {
				rs = append(rs, rep.BitrateMbps)
				vs = append(vs, v)
				q5s = append(q5s, qoe.Scale9To5(rater.Rate(rep.BitrateMbps, v)))
			}
		}
	}
	return rs, vs, q5s
}

// Fig2b reproduces Fig. 2(b): the "original" rate-quality curve fitted
// to quiet-room ratings with Gauss-Newton least squares.
func (e *Env) Fig2b() (*Table, error) {
	rs, _, q5s := e.raterStudy([]float64{0})
	params, err := fit.GaussNewton(fit.RateQualityModel{}, rs, q5s, []float64{1, 1})
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig2b",
		Caption: "Original quality vs. bitrate with least-squares fit (Fig. 2b)",
		Header:  []string{"bitrate (Mbps)", "mean rating", "fitted Q0"},
		Notes: []string{
			"fitted c1=" + f3(params[0]) + " c2=" + f3(params[1]) +
				" (ground truth c1=" + f3(e.QoE.C1) + " c2=" + f3(e.QoE.C2) + ")",
		},
	}
	ladder := dash.TableIILadder()
	for _, rep := range ladder {
		var sum, n float64
		for i, r := range rs {
			if r == rep.BitrateMbps {
				sum += q5s[i]
				n++
			}
		}
		t.Rows = append(t.Rows, []string{
			f2(rep.BitrateMbps),
			f3(sum / n),
			f3(fit.RateQualityModel{}.Eval(rep.BitrateMbps, params)),
		})
	}
	return t, nil
}

// Fig2c reproduces Fig. 2(c): the vibration-impairment surface fitted
// to the rating difference between contexts.
func (e *Env) Fig2c() (*Table, error) {
	vibs := []float64{0, 1, 2, 3, 4, 5, 6}
	rs, vs, q5s := e.raterStudy(vibs)
	// Impairment observation: quiet-room rating minus in-context rating
	// for the same (subject, bitrate), paired by construction.
	var xr, xv, xi []float64
	for i := range rs {
		if vs[i] == 0 {
			continue
		}
		// Find the same subject's quiet-room rating for this bitrate:
		// the study is laid out deterministically, vibration cell 0 is
		// at offset -(index within vibs).
		offset := 0
		for k, v := range vibs {
			if v == vs[i] {
				offset = k
			}
		}
		quiet := q5s[i-offset]
		xr = append(xr, rs[i])
		xv = append(xv, vs[i])
		xi = append(xi, quiet-q5s[i])
	}
	surface, err := fit.FitBilinear(xr, xv, xi)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig2c",
		Caption: "QoE impairment vs. (bitrate, vibration) with bilinear fit (Fig. 2c)",
		Header:  []string{"bitrate (Mbps)", "vibration", "model I", "fitted I"},
		Notes: []string{
			"fitted surface: " + surface.String(),
			"paper anchors: I(1.5,2)=0.049 I(1.5,6)=0.184 I(5.8,2)=0.174 I(5.8,6)=0.549",
		},
	}
	for _, r := range []float64{1.5, 5.8} {
		for _, v := range []float64{2, 6} {
			t.Rows = append(t.Rows, []string{
				f2(r), f1(v),
				f3(e.QoE.Impairment(r, v)),
				f3(surface.Eval(r, v)),
			})
		}
	}
	return t, nil
}
