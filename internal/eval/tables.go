package eval

import (
	"math"

	"ecavs/internal/dash"
	"ecavs/internal/fit"
	"ecavs/internal/power"
	"ecavs/internal/trace"
)

// Table2 reproduces Table II: the resolution/bitrate pairing of the
// video dataset.
func (e *Env) Table2() (*Table, error) {
	t := &Table{
		ID:      "tab2",
		Caption: "Resolution and bitrate of the video dataset (Table II)",
		Header:  []string{"resolution", "bitrate (Mbps)"},
	}
	ladder := dash.TableIILadder()
	for i := len(ladder) - 1; i >= 0; i-- {
		t.Rows = append(t.Rows, []string{ladder[i].Name, f2(ladder[i].BitrateMbps)})
	}
	return t, nil
}

// Table3 reproduces Table III: the QoE-model coefficients, re-fitted
// from the synthetic rating study and compared against the
// reconstruction's ground truth.
func (e *Env) Table3() (*Table, error) {
	// Rate-quality curve from quiet-room ratings.
	rs, _, q5s := e.raterStudy([]float64{0})
	curve, err := fit.GaussNewton(fit.RateQualityModel{}, rs, q5s, []float64{1, 1})
	if err != nil {
		return nil, err
	}
	// Impairment surface from paired context ratings (same pipeline as
	// Fig2c).
	vibs := []float64{0, 1, 2, 3, 4, 5, 6}
	rr, vv, qq := e.raterStudy(vibs)
	var xr, xv, xi []float64
	for i := range rr {
		if vv[i] == 0 {
			continue
		}
		offset := 0
		for k, v := range vibs {
			if v == vv[i] {
				offset = k
			}
		}
		xr = append(xr, rr[i])
		xv = append(xv, vv[i])
		xi = append(xi, qq[i-offset]-qq[i])
	}
	surface, err := fit.FitBilinear(xr, xv, xi)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:      "tab3",
		Caption: "Fitted QoE-model coefficients (Table III)",
		Header:  []string{"coefficient", "ground truth", "refitted"},
		Notes: []string{
			"the paper's published values: 1.036, 0.429, 0.782, -0.782, 0.0648 (names lost to OCR; see DESIGN.md)",
		},
	}
	rows := []struct {
		name       string
		truth, got float64
	}{
		{name: "c1 (curve exponent)", truth: e.QoE.C1, got: curve[0]},
		{name: "c2 (curve knee, Mbps)", truth: e.QoE.C2, got: curve[1]},
		{name: "p00", truth: e.QoE.P00, got: surface.P00},
		{name: "p10", truth: e.QoE.P10, got: surface.P10},
		{name: "p01", truth: e.QoE.P01, got: surface.P01},
		{name: "p11", truth: e.QoE.P11, got: surface.P11},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.name, f3(r.truth), f3(r.got)})
	}
	return t, nil
}

// Table5 reproduces Table V: the five evaluation traces' length, data
// size, and average vibration.
func (e *Env) Table5() (*Table, error) {
	traces, err := e.Traces()
	if err != nil {
		return nil, err
	}
	specs := trace.TableVSpecs()
	t := &Table{
		ID:      "tab5",
		Caption: "Video traces (Table V)",
		Header: []string{"trace", "length (s)", "data size (MB)", "avg vibration",
			"paper vibration", "avg signal (dBm)", "avg rate (Mbps)"},
	}
	for i, tr := range traces {
		t.Rows = append(t.Rows, []string{
			tr.Name,
			f1(tr.LengthSec),
			f1(tr.DataSizeMB()),
			f2(tr.AvgVibration()),
			f2(specs[i].TargetVibration),
			f1(tr.AvgSignalDBm()),
			f1(tr.AvgThroughputMbps()),
		})
	}
	return t, nil
}

// Table6 reproduces Table VI: power-model validation — the virtual
// Monsoon monitor's "measured" session energy against the analytic
// model, per bitrate, at -90 dBm.
func (e *Env) Table6() (*Table, error) {
	const sessionSec = 300
	t := &Table{
		ID:      "tab6",
		Caption: "Power model validation at -90 dBm (Table VI)",
		Header:  []string{"bitrate (Mbps)", "measured (J)", "calculated (J)", "error"},
		Notes:   []string{"paper: error consistently < 3%, average 1.43%"},
	}
	rates := []float64{5.8, 3.0, 1.5, 0.75, 0.375, 0.1}
	var sumErr float64
	for i, r := range rates {
		mo := power.NewMonitor(int64(100 + i))
		measured, err := mo.MeasureSession(e.Power, r, sessionSec, -90, dash.DefaultSegmentSec)
		if err != nil {
			return nil, err
		}
		calculated := e.Power.SessionEnergyJ(r, sessionSec, -90)
		errRatio := math.Abs(measured-calculated) / calculated
		sumErr += errRatio
		t.Rows = append(t.Rows, []string{f3(r), f2(measured), f2(calculated), pct(errRatio)})
	}
	t.Notes = append(t.Notes, "average error: "+pct(sumErr/float64(len(rates))))
	return t, nil
}
