package ecavs_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyExports lists the exported identifiers under internal/ that
// no production file references, each with the reason it stays
// exported. Keys are "pkg.Name" for package-level names and
// "pkg.Type.Method" for methods.
var testOnlyExports = map[string]string{
	"abr.WithBBARegion":           "option a caller sets: BBA's reservoir and cushion fractions",
	"abr.WithBOLAGP":              "option a caller sets: BOLA's gamma*p",
	"abr.WithFESTIVEWindow":       "option a caller sets: FESTIVE's harmonic-mean window",
	"abr.WithMPCHorizon":          "option a caller sets: MPC's planning horizon",
	"abr.WithoutGradualSwitching": "option a caller sets: FESTIVE without its one-rung-per-step rule",
	"abr.WithoutRobustness":       "option a caller sets: MPC without the RobustMPC discount",
	"faults.NewScript":            "fixture shared by the faults and httpdash tests: a scripted verdict sequence",
	"faults.Stats.Injected":       "fixture shared by the faults and httpdash chaos tests: a plan's total verdicts",
	"httpdash.Breaker.Opens":      "reads a breaker the caller builds and shares through WithSharedBreaker",
	"httpdash.Breaker.State":      "reads a breaker the caller builds and shares through WithSharedBreaker",
	"httpdash.WithCircuitBreaker": "option a caller sets: a circuit breaker per client",
	"httpdash.WithEdgeRetryAfter": "option a caller sets: the Retry-After of the edge's own 503s",
	"httpdash.WithFetchAhead":     "option a caller sets: the client's prefetch depth",
	"httpdash.WithRetryPolicy":    "option a caller sets: the client's retries, backoff and downgrades",
	"httpdash.WithSharedBreaker":  "option a caller sets: one breaker across a fleet of clients",
}

// TestNoTestOnlyExports fails when an exported identifier declared
// under internal/ is referenced only from _test.go files. Only this
// module can import internal/, so such a name is either dead code or a
// test hook in the production API. Every non-test Go file below the
// repository root counts as a caller: internal/, cmd/, examples/, the
// root package and perfbench/, which imports internal/ through its
// replace directive. The scan matches by name, without type checking:
// a package-level name is used when another package selects it through
// an import of its package, or its own package names it outside its
// declaration; a method is used when any production file selects a
// method or field of that name. A method only the standard library
// calls, through an interface, needs an allowlist entry. Struct fields
// and interface methods are not checked.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	type prodFile struct {
		dir string // slash-separated, relative to the repository root
		f   *ast.File
	}
	var files []prodFile
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, prodFile{filepath.ToSlash(filepath.Dir(p)), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Declarations: every exported name declared in a non-test file
	// under internal/, with the identifiers that declare them.
	declared := map[string]string{} // key -> declaring dir
	declSites := map[*ast.Ident]bool{}
	for _, pf := range files {
		if !strings.HasPrefix(pf.dir, "internal/") {
			continue
		}
		pkg := pf.f.Name.Name
		for _, decl := range pf.f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				declSites[d.Name] = true
				if d.Recv == nil {
					declared[pkg+"."+d.Name.Name] = pf.dir
				} else if recv := receiverType(d.Recv.List[0].Type); ast.IsExported(recv) {
					declared[pkg+"."+recv+"."+d.Name.Name] = pf.dir
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							declSites[s.Name] = true
							declared[pkg+"."+s.Name.Name] = pf.dir
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								declSites[n] = true
								declared[pkg+"."+n.Name] = pf.dir
							}
						}
					}
				}
			}
		}
	}

	// References from production files: qualified names selected
	// through an import, bare names inside their own package, and
	// selected method or field names anywhere.
	used := map[string]bool{}     // "pkg.Name", from another package
	ownUse := map[string]bool{}   // "dir:Name", bare inside dir
	selected := map[string]bool{} // method or field name
	for _, pf := range files {
		imports := map[string]string{} // local name -> package name
		for _, imp := range pf.f.Imports {
			ip, err := strconv.Unquote(imp.Path.Value)
			if err != nil || !strings.HasPrefix(ip, "ecavs/internal/") {
				continue
			}
			name := path.Base(ip)
			local := name
			if imp.Name != nil {
				local = imp.Name.Name
			}
			imports[local] = name
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncDecl:
				// A receiver names its type without using it.
				if x.Type != nil {
					ast.Inspect(x.Type, visit)
				}
				if x.Body != nil {
					ast.Inspect(x.Body, visit)
				}
				return false
			case *ast.SelectorExpr:
				if id, ok := x.X.(*ast.Ident); ok {
					if pkg, ok := imports[id.Name]; ok {
						used[pkg+"."+x.Sel.Name] = true
						return false
					}
				}
				selected[x.Sel.Name] = true
				ast.Inspect(x.X, visit)
				return false
			case *ast.Ident:
				if !declSites[x] {
					ownUse[pf.dir+":"+x.Name] = true
				}
			}
			return true
		}
		ast.Inspect(pf.f, visit)
	}

	var testOnly []string
	for key, dir := range declared {
		parts := strings.Split(key, ".")
		name := parts[len(parts)-1]
		var ok bool
		if len(parts) == 3 {
			ok = selected[name]
		} else {
			ok = used[key] || ownUse[dir+":"+name]
		}
		if !ok {
			testOnly = append(testOnly, key)
		}
	}
	sort.Strings(testOnly)
	for _, key := range testOnly {
		if _, ok := testOnlyExports[key]; !ok {
			t.Errorf("%s is exported but referenced only from tests: unexport or delete it, or list it in testOnlyExports with the reason it stays", key)
		}
	}
	listed := make([]string, 0, len(testOnlyExports))
	for key := range testOnlyExports {
		listed = append(listed, key)
	}
	sort.Strings(listed)
	for _, key := range listed {
		if i := sort.SearchStrings(testOnly, key); i == len(testOnly) || testOnly[i] != key {
			t.Errorf("testOnlyExports lists %s, which is no longer a test-only export: drop it from the list", key)
		}
	}
}

// receiverType is the name of a method receiver's type: T for T, *T,
// T[P] and *T[P].
func receiverType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
