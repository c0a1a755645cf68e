// Package fit implements the least-squares machinery the paper uses to
// build its QoE models from subjective-rating traces (Section III-B,
// Table III): ordinary linear least squares over an arbitrary design
// matrix, Gauss-Newton iteration for nonlinear curves such as the
// rate-quality model, and a bilinear surface fit for the vibration
// impairment of Fig. 2(c).
package fit

import (
	"errors"
	"fmt"
	"math"
)

var (
	// ErrDimension is returned when matrix/vector shapes are inconsistent
	// or a fit is under-determined.
	ErrDimension = errors.New("fit: dimension mismatch or under-determined system")
	// ErrSingular is returned when the normal equations are (numerically)
	// singular, e.g. collinear design columns.
	ErrSingular = errors.New("fit: singular system")
)

// LeastSquares solves min ||X·beta - y||² for beta, where X is an
// n-by-p design matrix given as n rows of length p. It forms the normal
// equations XᵀX·beta = Xᵀy and solves them by Gaussian elimination with
// partial pivoting, which is plenty for the small, well-conditioned
// systems the models here produce (p <= 6).
func LeastSquares(rows [][]float64, y []float64) ([]float64, error) {
	n := len(rows)
	if n == 0 || n != len(y) {
		return nil, ErrDimension
	}
	p := len(rows[0])
	if p == 0 || n < p {
		return nil, ErrDimension
	}
	for _, r := range rows {
		if len(r) != p {
			return nil, ErrDimension
		}
	}

	// Build XᵀX (p x p) and Xᵀy (p).
	xtx := make([][]float64, p)
	for i := range xtx {
		xtx[i] = make([]float64, p)
	}
	xty := make([]float64, p)
	for k := 0; k < n; k++ {
		row := rows[k]
		for i := 0; i < p; i++ {
			xty[i] += row[i] * y[k]
			for j := i; j < p; j++ {
				xtx[i][j] += row[i] * row[j]
			}
		}
	}
	for i := 1; i < p; i++ {
		for j := 0; j < i; j++ {
			xtx[i][j] = xtx[j][i]
		}
	}
	return SolveLinear(xtx, xty)
}

// SolveLinear solves the square system A·x = b by Gaussian elimination
// with partial pivoting. A and b are not modified.
func SolveLinear(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	if n == 0 || n != len(b) {
		return nil, ErrDimension
	}
	// Work on copies.
	m := make([][]float64, n)
	for i := range a {
		if len(a[i]) != n {
			return nil, ErrDimension
		}
		m[i] = make([]float64, n+1)
		copy(m[i], a[i])
		m[i][n] = b[i]
	}

	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(m[pivot][col]) < 1e-12 {
			return nil, ErrSingular
		}
		m[col], m[pivot] = m[pivot], m[col]
		// Eliminate below.
		for r := col + 1; r < n; r++ {
			f := m[r][col] / m[col][col]
			if f == 0 {
				continue
			}
			for c := col; c <= n; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	// Back substitution.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := m[i][n]
		for j := i + 1; j < n; j++ {
			sum -= m[i][j] * x[j]
		}
		x[i] = sum / m[i][i]
	}
	return x, nil
}

// BilinearSurface is the fitted model z = P00 + P10·x + P01·y + P11·x·y,
// the quadratic-family surface used for the vibration impairment in
// Fig. 2(c).
type BilinearSurface struct {
	P00, P10, P01, P11 float64
}

// Eval evaluates the surface at (x, y).
func (s BilinearSurface) Eval(x, y float64) float64 {
	return s.P00 + s.P10*x + s.P01*y + s.P11*x*y
}

// String renders the surface's coefficients for reports.
func (s BilinearSurface) String() string {
	return fmt.Sprintf("z = %.6f + %.6f*x + %.6f*y + %.6f*x*y", s.P00, s.P10, s.P01, s.P11)
}

// FitBilinear fits a BilinearSurface to the observations (xs[i], ys[i])
// -> zs[i] by linear least squares. At least four non-degenerate points
// are required.
func FitBilinear(xs, ys, zs []float64) (BilinearSurface, error) {
	if len(xs) != len(ys) || len(xs) != len(zs) || len(xs) < 4 {
		return BilinearSurface{}, ErrDimension
	}
	rows := make([][]float64, len(xs))
	for i := range xs {
		rows[i] = []float64{1, xs[i], ys[i], xs[i] * ys[i]}
	}
	beta, err := LeastSquares(rows, zs)
	if err != nil {
		return BilinearSurface{}, err
	}
	return BilinearSurface{P00: beta[0], P10: beta[1], P01: beta[2], P11: beta[3]}, nil
}
