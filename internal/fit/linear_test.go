package fit

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSolveLinearExact(t *testing.T) {
	// 2x + y = 5; x - y = 1  =>  x=2, y=1.
	a := [][]float64{{2, 1}, {1, -1}}
	b := []float64{5, 1}
	x, err := SolveLinear(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(x[0], 2, 1e-12) || !almostEqual(x[1], 1, 1e-12) {
		t.Errorf("solution = %v, want [2 1]", x)
	}
}

func TestSolveLinearPivoting(t *testing.T) {
	// Leading zero forces a row swap.
	a := [][]float64{{0, 1}, {1, 0}}
	b := []float64{3, 7}
	x, err := SolveLinear(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(x[0], 7, 1e-12) || !almostEqual(x[1], 3, 1e-12) {
		t.Errorf("solution = %v, want [7 3]", x)
	}
}

func TestSolveLinearSingular(t *testing.T) {
	a := [][]float64{{1, 2}, {2, 4}}
	b := []float64{1, 2}
	if _, err := SolveLinear(a, b); !errors.Is(err, ErrSingular) {
		t.Errorf("err = %v, want ErrSingular", err)
	}
}

func TestSolveLinearDimensionErrors(t *testing.T) {
	if _, err := SolveLinear(nil, nil); !errors.Is(err, ErrDimension) {
		t.Errorf("empty: err = %v, want ErrDimension", err)
	}
	if _, err := SolveLinear([][]float64{{1, 2}}, []float64{1}); !errors.Is(err, ErrDimension) {
		t.Errorf("ragged: err = %v, want ErrDimension", err)
	}
}

func TestSolveLinearDoesNotMutate(t *testing.T) {
	a := [][]float64{{2, 1}, {1, -1}}
	b := []float64{5, 1}
	if _, err := SolveLinear(a, b); err != nil {
		t.Fatal(err)
	}
	if a[0][0] != 2 || a[1][1] != -1 || b[0] != 5 {
		t.Error("inputs were mutated")
	}
}

// Random well-conditioned systems round-trip: solve(A, A*x) == x.
func TestSolveLinearRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	f := func(nRaw uint8) bool {
		n := int(nRaw%5) + 1
		a := make([][]float64, n)
		x := make([]float64, n)
		for i := range a {
			a[i] = make([]float64, n)
			for j := range a[i] {
				a[i][j] = rng.NormFloat64()
			}
			a[i][i] += float64(n) + 1 // diagonal dominance => well-conditioned
			x[i] = rng.NormFloat64() * 3
		}
		b := make([]float64, n)
		for i := range a {
			for j := range a[i] {
				b[i] += a[i][j] * x[j]
			}
		}
		got, err := SolveLinear(a, b)
		if err != nil {
			return false
		}
		for i := range x {
			if !almostEqual(got[i], x[i], 1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLeastSquaresExactLine(t *testing.T) {
	// y = 3 - 2x, expressed with design rows [1, x].
	rows := [][]float64{{1, 0}, {1, 1}, {1, 2}, {1, 3}}
	y := []float64{3, 1, -1, -3}
	beta, err := LeastSquares(rows, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(beta[0], 3, 1e-9) || !almostEqual(beta[1], -2, 1e-9) {
		t.Errorf("beta = %v, want [3 -2]", beta)
	}
}

func TestLeastSquaresOverdeterminedNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var rows [][]float64
	var y []float64
	for i := 0; i < 500; i++ {
		x1 := rng.Float64() * 10
		x2 := rng.Float64() * 10
		rows = append(rows, []float64{1, x1, x2})
		y = append(y, 0.5+2*x1-1.5*x2+rng.NormFloat64()*0.01)
	}
	beta, err := LeastSquares(rows, y)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.5, 2, -1.5}
	for i := range want {
		if !almostEqual(beta[i], want[i], 0.01) {
			t.Errorf("beta[%d] = %v, want approx %v", i, beta[i], want[i])
		}
	}
}

func TestLeastSquaresErrors(t *testing.T) {
	if _, err := LeastSquares(nil, nil); !errors.Is(err, ErrDimension) {
		t.Errorf("empty: err = %v, want ErrDimension", err)
	}
	// Under-determined: fewer rows than parameters.
	if _, err := LeastSquares([][]float64{{1, 2, 3}}, []float64{1}); !errors.Is(err, ErrDimension) {
		t.Errorf("under-determined: err = %v, want ErrDimension", err)
	}
	// Ragged rows.
	if _, err := LeastSquares([][]float64{{1, 2}, {1}}, []float64{1, 2}); !errors.Is(err, ErrDimension) {
		t.Errorf("ragged: err = %v, want ErrDimension", err)
	}
	// Collinear columns -> singular normal equations.
	rows := [][]float64{{1, 2}, {2, 4}, {3, 6}}
	if _, err := LeastSquares(rows, []float64{1, 2, 3}); !errors.Is(err, ErrSingular) {
		t.Errorf("collinear: err = %v, want ErrSingular", err)
	}
}

func TestFitBilinearExactRecovery(t *testing.T) {
	truth := BilinearSurface{P00: -0.02, P10: 0.0012, P01: 0.0128, P11: 0.014}
	var xs, ys, zs []float64
	for _, x := range []float64{0.1, 1.5, 3.0, 5.8} {
		for _, y := range []float64{0, 2, 4, 6} {
			xs = append(xs, x)
			ys = append(ys, y)
			zs = append(zs, truth.Eval(x, y))
		}
	}
	got, err := FitBilinear(xs, ys, zs)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got.P00, truth.P00, 1e-9) ||
		!almostEqual(got.P10, truth.P10, 1e-9) ||
		!almostEqual(got.P01, truth.P01, 1e-9) ||
		!almostEqual(got.P11, truth.P11, 1e-9) {
		t.Errorf("fit = %+v, want %+v", got, truth)
	}
}

func TestFitBilinearErrors(t *testing.T) {
	if _, err := FitBilinear([]float64{1, 2}, []float64{1, 2}, []float64{1, 2}); !errors.Is(err, ErrDimension) {
		t.Errorf("too few: err = %v, want ErrDimension", err)
	}
	if _, err := FitBilinear([]float64{1}, []float64{1, 2}, []float64{1}); !errors.Is(err, ErrDimension) {
		t.Errorf("mismatch: err = %v, want ErrDimension", err)
	}
}

func TestBilinearSurfaceString(t *testing.T) {
	s := BilinearSurface{P00: 1, P10: 2, P01: 3, P11: 4}
	if got := s.String(); got == "" {
		t.Error("String returned empty")
	}
}
