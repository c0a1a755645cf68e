package fit

import (
	"errors"
	"fmt"
	"math"
)

// Model is a parametric scalar model f(x; params) with analytic or
// numeric gradients, suitable for Gauss-Newton fitting.
type Model interface {
	// Eval returns f(x; params).
	Eval(x float64, params []float64) float64
	// NumParams reports the number of parameters.
	NumParams() int
}

// GradientModel is an optional extension of Model providing analytic
// partial derivatives with respect to the parameters.
type GradientModel interface {
	Model
	// Gradient writes df/dparam_i at x into grad (len NumParams()).
	Gradient(x float64, params, grad []float64)
}

// ErrNoConverge is returned when Gauss-Newton exceeds its iteration
// budget without meeting the tolerance, or when an iteration's step is
// not finite (NaN or infinite), which no further iteration can mend.
var ErrNoConverge = errors.New("fit: Gauss-Newton did not converge")

// The solver's fixed settings: it stops after gnMaxIter iterations, or
// once no parameter moves by gnTol or more in an iteration. gnDamping
// is the Levenberg-Marquardt style diagonal damping added to the
// normal equations, just enough to avoid exact singularity.
const (
	gnMaxIter         = 100
	gnTol     float64 = 1e-9
	gnDamping float64 = 1e-9
)

// GaussNewton fits the model to the observations (xs[i] -> ys[i])
// starting from init, returning the fitted parameters. The residual
// being minimised is sum_i (f(xs[i]; p) - ys[i])².
func GaussNewton(m Model, xs, ys, init []float64) ([]float64, error) {
	if len(xs) != len(ys) || len(xs) == 0 {
		return nil, ErrDimension
	}
	p := m.NumParams()
	if len(init) != p || len(xs) < p {
		return nil, ErrDimension
	}

	params := make([]float64, p)
	copy(params, init)
	grad := make([]float64, p)

	for iter := 0; iter < gnMaxIter; iter++ {
		// Normal equations JᵀJ·delta = Jᵀr with r = y - f.
		jtj := make([][]float64, p)
		for i := range jtj {
			jtj[i] = make([]float64, p)
		}
		jtr := make([]float64, p)
		for k := range xs {
			gradient(m, xs[k], params, grad)
			r := ys[k] - m.Eval(xs[k], params)
			for i := 0; i < p; i++ {
				jtr[i] += grad[i] * r
				for j := i; j < p; j++ {
					jtj[i][j] += grad[i] * grad[j]
				}
			}
		}
		for i := 1; i < p; i++ {
			for j := 0; j < i; j++ {
				jtj[i][j] = jtj[j][i]
			}
		}
		for i := 0; i < p; i++ {
			jtj[i][i] += gnDamping
		}
		delta, err := SolveLinear(jtj, jtr)
		if err != nil {
			return nil, err
		}
		// math.Max propagates NaN, so a NaN step cannot pass for
		// convergence.
		var maxStep float64
		for _, d := range delta {
			maxStep = math.Max(maxStep, math.Abs(d))
		}
		if math.IsNaN(maxStep) || math.IsInf(maxStep, 0) {
			return params, fmt.Errorf("%w: non-finite step at iteration %d", ErrNoConverge, iter)
		}
		for i := range params {
			params[i] += delta[i]
		}
		if maxStep < gnTol {
			return params, nil
		}
	}
	return params, ErrNoConverge
}

// gradient fills grad with the model's parameter gradient at x, using
// analytic derivatives when available and central differences otherwise.
func gradient(m Model, x float64, params, grad []float64) {
	if gm, ok := m.(GradientModel); ok {
		gm.Gradient(x, params, grad)
		return
	}
	const h = 1e-6
	tmp := make([]float64, len(params))
	copy(tmp, params)
	for i := range params {
		tmp[i] = params[i] + h
		hi := m.Eval(x, tmp)
		tmp[i] = params[i] - h
		lo := m.Eval(x, tmp)
		tmp[i] = params[i]
		grad[i] = (hi - lo) / (2 * h)
	}
}

// RateQualityModel is the two-parameter parametric rate-quality curve
// Q(r) = 1 + 4 / (1 + (c2/r)^c1) used for the paper's "original
// quality" fit (Fig. 2b). params = [c1, c2].
type RateQualityModel struct{}

var _ Model = RateQualityModel{}

// NumParams implements Model.
func (RateQualityModel) NumParams() int { return 2 }

// Eval implements Model.
func (RateQualityModel) Eval(r float64, params []float64) float64 {
	c1, c2 := params[0], params[1]
	if r <= 0 || c2 <= 0 {
		return 1
	}
	return 1 + 4/(1+math.Pow(c2/r, c1))
}
