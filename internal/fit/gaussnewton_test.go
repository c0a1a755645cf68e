package fit

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// expModel is f(x) = a * exp(b*x), a simple two-parameter test model
// exercising the numeric-gradient path.
type expModel struct{}

func (expModel) NumParams() int { return 2 }
func (expModel) Eval(x float64, p []float64) float64 {
	return p[0] * math.Exp(p[1]*x)
}

// lineModel implements GradientModel to exercise the analytic path.
type lineModel struct{}

func (lineModel) NumParams() int                      { return 2 }
func (lineModel) Eval(x float64, p []float64) float64 { return p[0] + p[1]*x }
func (lineModel) Gradient(x float64, p, grad []float64) {
	grad[0] = 1
	grad[1] = x
}

func TestGaussNewtonLinearAnalytic(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	ys := []float64{1, 3, 5, 7, 9} // y = 1 + 2x
	got, err := GaussNewton(lineModel{}, xs, ys, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got[0], 1, 1e-6) || !almostEqual(got[1], 2, 1e-6) {
		t.Errorf("params = %v, want [1 2]", got)
	}
}

func TestGaussNewtonExponentialNumeric(t *testing.T) {
	want := []float64{2.0, -0.5}
	var xs, ys []float64
	for i := 0; i <= 20; i++ {
		x := float64(i) / 4
		xs = append(xs, x)
		ys = append(ys, expModel{}.Eval(x, want))
	}
	got, err := GaussNewton(expModel{}, xs, ys, []float64{1, -0.1})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got[0], want[0], 1e-5) || !almostEqual(got[1], want[1], 1e-5) {
		t.Errorf("params = %v, want %v", got, want)
	}
}

func TestGaussNewtonRateQualityRecovery(t *testing.T) {
	want := []float64{1.036, 0.782}
	rng := rand.New(rand.NewSource(12))
	var xs, ys []float64
	for _, r := range []float64{0.1, 0.2, 0.375, 0.55, 0.75, 1.0, 1.5, 2.3, 3.0, 4.3, 5.8} {
		// Several noisy "raters" per bitrate.
		for k := 0; k < 20; k++ {
			xs = append(xs, r)
			ys = append(ys, RateQualityModel{}.Eval(r, want)+rng.NormFloat64()*0.05)
		}
	}
	got, err := GaussNewton(RateQualityModel{}, xs, ys, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got[0], want[0], 0.05) || !almostEqual(got[1], want[1], 0.05) {
		t.Errorf("params = %v, want approx %v", got, want)
	}
}

func TestGaussNewtonErrors(t *testing.T) {
	if _, err := GaussNewton(lineModel{}, nil, nil, []float64{0, 0}); !errors.Is(err, ErrDimension) {
		t.Errorf("empty: err = %v, want ErrDimension", err)
	}
	if _, err := GaussNewton(lineModel{}, []float64{1}, []float64{1, 2}, []float64{0, 0}); !errors.Is(err, ErrDimension) {
		t.Errorf("mismatched: err = %v, want ErrDimension", err)
	}
	if _, err := GaussNewton(lineModel{}, []float64{1}, []float64{1}, []float64{0}); !errors.Is(err, ErrDimension) {
		t.Errorf("bad init: err = %v, want ErrDimension", err)
	}
	// Fewer observations than parameters.
	if _, err := GaussNewton(lineModel{}, []float64{1}, []float64{1}, []float64{0, 0}); !errors.Is(err, ErrDimension) {
		t.Errorf("under-determined: err = %v, want ErrDimension", err)
	}
}

// backwardLineModel is lineModel with its analytic gradient negated:
// every Gauss-Newton step goes exactly the wrong way, doubling the
// parameter error, so no iteration budget converges.
type backwardLineModel struct{ lineModel }

func (backwardLineModel) Gradient(x float64, p, grad []float64) {
	grad[0] = -1
	grad[1] = -x
}

func TestGaussNewtonNoConverge(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7} // y = 1 + 2x
	got, err := GaussNewton(backwardLineModel{}, xs, ys, []float64{0, 0})
	if !errors.Is(err, ErrNoConverge) {
		t.Errorf("err = %v, want ErrNoConverge", err)
	}
	// The last iterate is returned beside the error, far from the fit.
	if len(got) != 2 || math.Abs(got[0]-1) < 1 {
		t.Errorf("params = %v, want the diverged last iterate", got)
	}
}

// nanModel is a line that is undefined (NaN) for a negative first
// parameter, as a model taking a parameter's logarithm or square root
// would be.
type nanModel struct{}

func (nanModel) NumParams() int { return 2 }
func (nanModel) Eval(x float64, p []float64) float64 {
	if p[0] < 0 {
		return math.NaN()
	}
	return p[0] + p[1]*x
}

// A NaN step ends the solve with ErrNoConverge. It used to pass for
// convergence, since a NaN step compares false against the tolerance,
// and the solver returned NaN parameters with a nil error.
func TestGaussNewtonNonFiniteStep(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7} // y = 1 + 2x
	got, err := GaussNewton(nanModel{}, xs, ys, []float64{-1, 0})
	if !errors.Is(err, ErrNoConverge) {
		t.Fatalf("err = %v (params %v), want ErrNoConverge", err, got)
	}
	// The last finite iterate, here the start, is returned beside it.
	if len(got) != 2 || got[0] != -1 || got[1] != 0 {
		t.Errorf("params = %v, want the start [-1 0]", got)
	}
}

func TestRateQualityModelShape(t *testing.T) {
	p := []float64{1.036, 0.782}
	m := RateQualityModel{}
	// Bounds: quality lives in (1, 5).
	for _, r := range []float64{0.01, 0.1, 1, 5.8, 100} {
		q := m.Eval(r, p)
		if q <= 1 || q >= 5 {
			t.Errorf("Q(%v) = %v, want within (1, 5)", r, q)
		}
	}
	// Monotone increasing in r.
	prev := m.Eval(0.05, p)
	for r := 0.1; r < 10; r += 0.1 {
		q := m.Eval(r, p)
		if q < prev {
			t.Fatalf("quality not monotone at r=%v: %v < %v", r, q, prev)
		}
		prev = q
	}
	// Degenerate inputs collapse to the floor.
	if got := m.Eval(0, p); got != 1 {
		t.Errorf("Q(0) = %v, want 1", got)
	}
	if got := m.Eval(1, []float64{1, -1}); got != 1 {
		t.Errorf("Q with c2<0 = %v, want 1", got)
	}
}

func TestRateQualityMatchesPaperAnchors(t *testing.T) {
	// Fig. 2(b) plotted curve anchors (read off the figure).
	p := []float64{1.036, 0.782}
	m := RateQualityModel{}
	anchors := []struct {
		r, q, tol float64
	}{
		{r: 0.1, q: 1.42, tol: 0.1},
		{r: 0.75, q: 2.96, tol: 0.12},
		{r: 1.5, q: 3.65, tol: 0.12},
		{r: 3.0, q: 4.21, tol: 0.12},
		{r: 5.8, q: 4.55, tol: 0.12},
	}
	for _, a := range anchors {
		if got := m.Eval(a.r, p); !almostEqual(got, a.q, a.tol) {
			t.Errorf("Q(%v) = %.3f, want %.3f +/- %.2f", a.r, got, a.q, a.tol)
		}
	}
}
