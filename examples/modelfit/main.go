// Modelfit: reproduce the paper's modeling pipeline (Section III-B,
// Table III) — run a synthetic twenty-subject quality-assessment study,
// then recover the rate-quality curve by Gauss-Newton least squares and
// the vibration-impairment surface by bilinear least squares.
package main

import (
	"fmt"
	"log"

	"ecavs/internal/dash"
	"ecavs/internal/fit"
	"ecavs/internal/qoe"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	truth := qoe.Default()
	const subjects = 20
	ladder := dash.TableIILadder()
	vibrations := []float64{0, 1, 2, 3, 4, 5, 6}

	// Phase 1: every subject rates every (bitrate, vibration) cell on
	// the nine-grade ITU-T P.910 scale.
	type cellKey struct{ r, v float64 }
	ratings := make(map[cellKey][]float64)
	for s := 0; s < subjects; s++ {
		rater := qoe.NewRater(truth, 0.5, int64(500+s))
		for _, rep := range ladder {
			for _, v := range vibrations {
				k := cellKey{r: rep.BitrateMbps, v: v}
				ratings[k] = append(ratings[k], qoe.Scale9To5(rater.Rate(rep.BitrateMbps, v)))
			}
		}
	}
	mean := func(xs []float64) float64 {
		var sum float64
		for _, x := range xs {
			sum += x
		}
		return sum / float64(len(xs))
	}

	// Phase 2: fit the quiet-room rate-quality curve (Fig. 2b).
	var rs, qs []float64
	for _, rep := range ladder {
		for _, q := range ratings[cellKey{r: rep.BitrateMbps, v: 0}] {
			rs = append(rs, rep.BitrateMbps)
			qs = append(qs, q)
		}
	}
	curve, err := fit.GaussNewton(fit.RateQualityModel{}, rs, qs, []float64{1, 1})
	if err != nil {
		return fmt.Errorf("curve fit: %w", err)
	}
	fmt.Println("rate-quality curve Q0(r) = 1 + 4/(1 + (c2/r)^c1):")
	fmt.Printf("  fitted  c1=%.4f c2=%.4f\n", curve[0], curve[1])
	fmt.Printf("  truth   c1=%.4f c2=%.4f\n\n", truth.C1, truth.C2)

	// Phase 3: fit the impairment surface (Fig. 2c) from the rating
	// difference between the quiet room and each vibrating context.
	var xr, xv, xi []float64
	for _, rep := range ladder {
		quiet := mean(ratings[cellKey{r: rep.BitrateMbps, v: 0}])
		for _, v := range vibrations[1:] {
			xr = append(xr, rep.BitrateMbps)
			xv = append(xv, v)
			xi = append(xi, quiet-mean(ratings[cellKey{r: rep.BitrateMbps, v: v}]))
		}
	}
	surface, err := fit.FitBilinear(xr, xv, xi)
	if err != nil {
		return fmt.Errorf("surface fit: %w", err)
	}
	fmt.Println("vibration impairment I(r, v) (bilinear surface):")
	fmt.Printf("  fitted  %s\n", surface.String())
	fmt.Printf("  truth   p00=%.6f p10=%.6f p01=%.6f p11=%.6f\n\n", truth.P00, truth.P10, truth.P01, truth.P11)

	fmt.Println("paper anchor check (Fig. 2c prose):")
	for _, a := range []struct{ r, v, want float64 }{
		{r: 1.5, v: 2, want: 0.049},
		{r: 1.5, v: 6, want: 0.184},
		{r: 5.8, v: 2, want: 0.174},
		{r: 5.8, v: 6, want: 0.549},
	} {
		fmt.Printf("  I(%.1f, %.0f): fitted %.3f, paper %.3f\n", a.r, a.v, surface.Eval(a.r, a.v), a.want)
	}
	return nil
}
