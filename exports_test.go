package ecavs_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
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
	"faults.Plan.Stats":           "fixture shared by the faults and httpdash chaos tests: a plan's injection counters",
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
// test hook in the production API. Every non-test package of the
// module counts as a caller, and so does every package of perfbench/,
// which imports internal/ through its replace directive.
//
// The scan type-checks each of those packages from source with
// go/types, importing their dependencies from the export data that
// `go list -export -deps` reports, so a use is a resolved object, not
// a name: a package-level name is used when a non-test identifier
// resolves to it, and a method when a non-test selection resolves to
// it. A method whose name is a method of an interface the scanned
// packages can see (ChooseRung, ServeHTTP, String, ...) counts as used
// too, since a caller may reach it through that interface. A receiver
// naming its own type is not a use. Struct fields and interface methods
// are not checked.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	declared := map[string]bool{}
	used := map[string]bool{}
	ifaceMethods := map[string]bool{"Error": true} // the predeclared error
	addIfaces := func(pkg *types.Package) {
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if iface, ok := scope.Lookup(name).Type().Underlying().(*types.Interface); ok {
				for i := 0; i < iface.NumMethods(); i++ {
					ifaceMethods[iface.Method(i).Name()] = true
				}
			}
		}
	}
	for _, dir := range []string{".", "perfbench"} {
		pkgs := goListExports(t, dir)
		exports := map[string]string{}
		for _, p := range pkgs {
			exports[p.ImportPath] = p.Export
		}
		imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			if f := exports[path]; f != "" {
				return os.Open(f)
			}
			return nil, fmt.Errorf("no export data for %s", path)
		})
		for _, p := range pkgs {
			if p.DepOnly {
				dep, err := imp.Import(p.ImportPath)
				if err != nil {
					t.Fatal(err)
				}
				addIfaces(dep)
				continue
			}
			files := make([]*ast.File, 0, len(p.GoFiles))
			for _, name := range p.GoFiles {
				f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
				if err != nil {
					t.Fatal(err)
				}
				files = append(files, f)
			}
			info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
			pkg, err := (&types.Config{Importer: imp}).Check(p.ImportPath, fset, files, info)
			if err != nil {
				t.Fatalf("type-checking %s: %v", p.ImportPath, err)
			}
			addIfaces(pkg)

			// A receiver names its type without using it; an anonymous
			// interface's methods are callable like a named one's.
			receivers := map[*ast.Ident]bool{}
			for _, f := range files {
				ast.Inspect(f, func(n ast.Node) bool {
					switch x := n.(type) {
					case *ast.FuncDecl:
						if x.Recv != nil {
							ast.Inspect(x.Recv, func(n ast.Node) bool {
								if id, ok := n.(*ast.Ident); ok {
									receivers[id] = true
								}
								return true
							})
						}
					case *ast.InterfaceType:
						for _, m := range x.Methods.List {
							for _, name := range m.Names {
								ifaceMethods[name.Name] = true
							}
						}
					}
					return true
				})
			}
			for id, obj := range info.Uses {
				if key, ok := exportKey(obj); ok && !receivers[id] {
					used[key] = true
				}
			}

			if !strings.HasPrefix(p.ImportPath, "ecavs/internal/") {
				continue
			}
			scope := pkg.Scope()
			for _, name := range scope.Names() {
				obj := scope.Lookup(name)
				if !obj.Exported() {
					continue
				}
				key, _ := exportKey(obj)
				declared[key] = true
				tn, isType := obj.(*types.TypeName)
				if !isType || tn.IsAlias() {
					continue
				}
				named, ok := tn.Type().(*types.Named)
				if !ok {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); m.Exported() {
						if key, ok := exportKey(m); ok {
							declared[key] = true
						}
					}
				}
			}
		}
	}

	var testOnly []string
	for key := range declared {
		if used[key] {
			continue
		}
		if parts := strings.Split(key, "."); len(parts) == 3 && ifaceMethods[parts[2]] {
			continue
		}
		testOnly = append(testOnly, key)
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

// listedPackage is the part of a `go list -json` record the scan reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string // the compiler's export data file
	DepOnly    bool   // a dependency, not matched by ./...
}

// goListExports lists the packages matching ./... in the module at dir,
// and every package they depend on, each with its export data.
func goListExports(t *testing.T, dir string) []listedPackage {
	t.Helper()
	cmd := exec.Command("go", "list", "-export", "-deps", "-json=ImportPath,Dir,GoFiles,Export,DepOnly", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs
		} else if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
}

// exportKey names an object declared at package level under internal/
// as testOnlyExports does: "pkg.Name", or "pkg.Type.Method" for a
// method of a named non-interface type, where pkg is the import path
// below internal/. ok is false for any other object: struct fields,
// interface methods, local names, and names outside internal/.
func exportKey(obj types.Object) (key string, ok bool) {
	pkg := obj.Pkg()
	if pkg == nil || !strings.HasPrefix(pkg.Path(), "ecavs/internal/") {
		return "", false
	}
	prefix := strings.TrimPrefix(pkg.Path(), "ecavs/internal/")
	if fn, isFunc := obj.(*types.Func); isFunc {
		fn = fn.Origin()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			rt := recv.Type()
			if p, isPtr := rt.(*types.Pointer); isPtr {
				rt = p.Elem()
			}
			named, isNamed := rt.(*types.Named)
			if !isNamed || types.IsInterface(named) {
				return "", false
			}
			return prefix + "." + named.Origin().Obj().Name() + "." + fn.Name(), true
		}
	}
	if obj.Parent() != pkg.Scope() {
		return "", false
	}
	return prefix + "." + obj.Name(), true
}
