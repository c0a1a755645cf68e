package eval

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"ecavs/internal/pool"
	"ecavs/internal/sim"
	"ecavs/internal/trace"
)

// TestRunUnitsRecoversPanic pins that the evaluation fan-out — its
// units run through pool.Run at GOMAXPROCS width — inherits the worker
// pool's panic isolation: a unit that panics (a poisoned
// trace×algorithm cell) fails the evaluation with a typed error and a
// stack instead of crashing the process.
func TestRunUnitsRecoversPanic(t *testing.T) {
	err := pool.Run(4, 0, func(u int) error {
		if u == 2 {
			panic("poisoned evaluation unit")
		}
		return nil
	})
	var pe *pool.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *pool.PanicError", err)
	}
	if pe.Unit != 2 || pe.Value != "poisoned evaluation unit" {
		t.Errorf("PanicError = unit %d value %v", pe.Unit, pe.Value)
	}
}

// TestComparisonConcurrent drives Comparison from many goroutines at
// once (run under -race) and checks the singleflight contract: every
// caller receives the same *Comparison and the full evaluation runs
// exactly once.
func TestComparisonConcurrent(t *testing.T) {
	env := NewEnv()
	const callers = 8
	results := make([]*Comparison, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = env.Comparison()
		}(i)
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if results[i] == nil {
			t.Fatalf("caller %d: nil comparison", i)
		}
		if results[i] != results[0] {
			t.Errorf("caller %d received a different *Comparison than caller 0", i)
		}
	}
	env.compMu.Lock()
	runs := env.compRuns
	env.compMu.Unlock()
	if runs != 1 {
		t.Errorf("compRuns = %d, want 1 (concurrent callers must share one evaluation)", runs)
	}
}

// TestComparisonConcurrentFigures exercises the figure builders (which
// all call Comparison and read the memoized artifacts) concurrently.
func TestComparisonConcurrentFigures(t *testing.T) {
	env := NewEnv()
	figs := []func() (*Table, error){env.Fig5a, env.Fig5b, env.Fig5c, env.Fig6a, env.Fig6b, env.Fig6c, env.Fig7}
	var wg sync.WaitGroup
	for i, fig := range figs {
		wg.Add(1)
		go func(i int, fig func() (*Table, error)) {
			defer wg.Done()
			tbl, err := fig()
			if err != nil {
				t.Errorf("figure %d: %v", i, err)
				return
			}
			if len(tbl.Rows) == 0 {
				t.Errorf("figure %d: no rows", i)
			}
		}(i, fig)
	}
	wg.Wait()
}

// TestExperimentsShareEnvConcurrently runs the comparison, then three
// ablations at once on one Env (run under -race), and requires each
// table to render as a sequential run renders it: experiments that
// share an Env share only read-only state.
func TestExperimentsShareEnvConcurrently(t *testing.T) {
	if testing.Short() {
		t.Skip("the ablations replay many sessions")
	}
	ablations := []func(*Env) (*Table, error){
		(*Env).AblationAlphaSweep, (*Env).AblationNoContext, (*Env).AblationNoGradualSwitch,
	}
	want := make([]string, len(ablations))
	for i, run := range ablations {
		tbl, err := run(sharedEnv)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = tbl.String()
	}

	env := NewEnv()
	if _, err := env.Comparison(); err != nil {
		t.Fatal(err)
	}
	got := make([]string, len(ablations))
	errs := make([]error, len(ablations))
	var wg sync.WaitGroup
	for i, run := range ablations {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tbl, err := run(env)
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = tbl.String()
		}()
	}
	wg.Wait()
	for i := range ablations {
		if errs[i] != nil {
			t.Fatalf("ablation %d: %v", i, errs[i])
		}
		if got[i] != want[i] {
			t.Errorf("ablation %d run concurrently renders\n%s\nsequentially\n%s", i, got[i], want[i])
		}
	}
}

// TestMetricsMissingAlgorithm checks that a comparison missing an
// algorithm's metrics surfaces a descriptive error rather than the
// nil-map panic the old direct ByAlgorithm lookups produced.
func TestMetricsMissingAlgorithm(t *testing.T) {
	r := TraceResult{
		Trace:       &trace.Trace{ID: 3},
		ByAlgorithm: map[string]*sim.Metrics{"Youtube": {}},
	}
	if _, err := r.Metrics("Youtube"); err != nil {
		t.Fatalf("present algorithm: %v", err)
	}
	_, err := r.Metrics("Optimal")
	if err == nil {
		t.Fatal("missing algorithm: want error, got nil")
	}
	for _, want := range []string{"trace 3", `"Optimal"`} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}

	// The figure builders hit the same guard instead of panicking.
	env := NewEnv()
	env.comp = &Comparison{Results: []TraceResult{r}}
	for name, fig := range map[string]func() (*Table, error){
		"Fig5a": env.Fig5a, "Fig5c": env.Fig5c, "Fig6a": env.Fig6a,
	} {
		if _, err := fig(); err == nil {
			t.Errorf("%s: want error for missing algorithm, got nil", name)
		}
	}
}

// TestFig5cEmptyComparison checks the empty-results guard.
func TestFig5cEmptyComparison(t *testing.T) {
	env := NewEnv()
	env.comp = &Comparison{}
	if _, err := env.Fig5c(); err == nil {
		t.Fatal("want error for empty comparison, got nil")
	}
}
