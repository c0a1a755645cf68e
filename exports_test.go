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
	"reflect"
	"sort"
	"strings"
	"testing"
)

// testOnlyExports lists the exported identifiers under internal/ that
// no production file references, the exported struct fields that none
// reads, and those that production reads but only tests and the
// field's own default set, each with the reason it stays exported.
// Keys are "pkg.Name" for package-level names and "pkg.Type.Method" or
// "pkg.Type.Field" for methods and fields.
var testOnlyExports = map[string]string{
	"campaign.Config.ThresholdSec":          "TestRunAbandonmentCertain sets 5 s because at the default 30 s play-out swallows a quit point that falls after the last delivery (ROADMAP item 1(d)); the field goes with that fix",
	"core.Plan.TotalCost":                   "objective of the plan ecavs.PlanOptimalForTrace returns; the planner's oracle tests compare it",
	"faults.NewScript":                      "fixture shared by the faults and httpdash tests: a scripted verdict sequence",
	"faults.Plan.Stats":                     "fixture shared by the faults and httpdash chaos tests: a plan's injection counters",
	"faults.Stats.Injected":                 "fixture shared by the faults and httpdash chaos tests: a plan's total verdicts",
	"faults.Stats.Requests":                 "fixture shared by the faults and httpdash chaos tests: the verdicts a plan handed out",
	"httpdash.Breaker.Opens":                "reads a breaker the caller builds and shares through WithSharedBreaker",
	"httpdash.Breaker.State":                "reads a breaker the caller builds and shares through WithSharedBreaker",
	"httpdash.Fetch.Attempts":               "per-segment retry outcome in the Stats a caller of Client.Stream gets: how many attempts the segment took",
	"httpdash.Fetch.ChosenRung":             "per-segment retry outcome in the Stats a caller of Client.Stream gets: the rung asked for before any downgrade",
	"httpdash.NewBreaker":                   "client circuit breaker, passed through WithSharedBreaker; no program turns it on, make chaos exercises it",
	"httpdash.RetryPolicy.AttemptTimeout":   "client retry policy, passed through WithRetryPolicy; no program turns it on, make chaos exercises it",
	"httpdash.RetryPolicy.BackoffBase":      "client retry policy, passed through WithRetryPolicy; no program turns it on, make chaos exercises it",
	"httpdash.RetryPolicy.BackoffMax":       "client retry policy, passed through WithRetryPolicy; no program turns it on, make chaos exercises it",
	"httpdash.RetryPolicy.DowngradeOnRetry": "client retry policy, passed through WithRetryPolicy; no program turns it on, make chaos exercises it",
	"httpdash.RetryPolicy.JitterSeed":       "client retry policy, passed through WithRetryPolicy; no program turns it on, make chaos exercises it",
	"httpdash.Stats.Downgrades":             "session resilience counter a caller of Client.Stream gets, beside the Retries perfbench reads",
	"httpdash.Stats.FastFails":              "session resilience counter a caller of Client.Stream gets, beside the Retries perfbench reads",
	"httpdash.Stats.Timeouts":               "session resilience counter a caller of Client.Stream gets, beside the Retries perfbench reads",
	"httpdash.Stats.Truncations":            "session resilience counter a caller of Client.Stream gets, beside the Retries perfbench reads",
	"httpdash.WithFetchAhead":               "client prefetch pipeline; no program turns it on, the TestFetchAhead tests pin it, and the HTTP replay on ROADMAP is to call it",
	"httpdash.WithRetryPolicy":              "client retries, backoff and downgrades; no program turns them on, make chaos exercises them",
	"httpdash.WithSharedBreaker":            "client circuit breaker; no program turns it on, make chaos exercises it",
}

// TestNoTestOnlyExports fails when an exported identifier declared
// under internal/ is referenced only from _test.go files, or when an
// exported struct field declared there is read only from them. Only
// this module can import internal/, so such a name is either dead code
// or a test hook in the production API, and such a field is a result
// the program computes but never reads. Every non-test package of the
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
// naming its own type is not a use. Interface methods are not checked.
//
// A package-level `var _ I = (*T)(nil)` assertion is not a use either:
// it proves that T implements I, not that anything calls T.
//
// A field of an exported struct type is read when a non-test selection
// of it is not the target of an assignment (=, := or op=) or of an
// increment or decrement; a composite-literal key only writes it. A
// selection through promotion reads every embedded field on its path.
// A field that json or xml encodes counts as read when an encoder call
// (Marshal, MarshalIndent, Encode, EncodeElement) receives a value
// whose static type reaches it, and a json or xml tag on a type that
// no encoder receives fails the check, since it documents a wire
// format that nothing writes.
//
// A field that non-test code reads must also be set by non-test code:
// a keyed or positional composite-literal element, the target of an
// assignment, increment or decrement, or the operand of & (as in
// flag.IntVar(&cfg.F, ...)). Otherwise production always sees its zero
// value, and the field is a knob that only tests turn.
//
// A field's default is neither a read nor a set: a plain assignment
// directly in the body of an if whose condition reads the same
// selector, as in `if c.Hz <= 0 { c.Hz = 100 }` or
// `if len(c.Ladder) == 0 { c.Ladder = dash.EvalLadder() }`, whose value
// names no local variable (only constants, package-level names and
// calls on them). A field that only its defaults and tests set always
// reads its default in production, so it fails like one that only
// tests set. The value condition keeps computed fields out:
// `if v.Root == "" { v.Root = sp.Name }` reads the local sp, so it is
// a set.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	declared := map[string]bool{}
	used := map[string]bool{}
	// Field keys are "pkg.Type.Field"; encoded also holds the "pkg.Type"
	// of every struct an encoder reaches, and tagged of every struct
	// declared under internal/ with a json or xml tag.
	fields := map[string]bool{}
	read := map[string]bool{}
	set := map[string]bool{}
	defaultAt := map[string][]string{} // positions of each field's defaults
	encoded := map[string]bool{}
	tagged := map[string]bool{}
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
			info := &types.Info{
				Types:      map[ast.Expr]types.TypeAndValue{},
				Uses:       map[*ast.Ident]types.Object{},
				Selections: map[*ast.SelectorExpr]*types.Selection{},
			}
			pkg, err := (&types.Config{Importer: imp}).Check(p.ImportPath, fset, files, info)
			if err != nil {
				t.Fatalf("type-checking %s: %v", p.ImportPath, err)
			}
			addIfaces(pkg)

			// A receiver or a `var _` assertion names a type without
			// using it; an anonymous interface's methods are callable
			// like a named one's. A selection that is assigned or stepped
			// is written, not read; one whose address is taken is both.
			notUses := map[*ast.Ident]bool{}
			markNotUses := func(n ast.Node) {
				ast.Inspect(n, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						notUses[id] = true
					}
					return true
				})
			}
			written := map[*ast.SelectorExpr]bool{}
			addressed := map[*ast.SelectorExpr]bool{}
			defaults := map[*ast.SelectorExpr]bool{}
			for _, f := range files {
				for _, d := range f.Decls {
					if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.VAR {
						for _, spec := range gd.Specs {
							if blankSpec(spec.(*ast.ValueSpec)) {
								markNotUses(spec)
							}
						}
					}
				}
				ast.Inspect(f, func(n ast.Node) bool {
					switch x := n.(type) {
					case *ast.FuncDecl:
						if x.Recv != nil {
							markNotUses(x.Recv)
						}
					case *ast.InterfaceType:
						for _, m := range x.Methods.List {
							for _, name := range m.Names {
								ifaceMethods[name.Name] = true
							}
						}
					case *ast.AssignStmt:
						for _, lhs := range x.Lhs {
							if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
								written[sel] = true
							}
						}
					case *ast.IfStmt:
						markDefaults(info, x, defaults)
					case *ast.IncDecStmt:
						if sel, ok := ast.Unparen(x.X).(*ast.SelectorExpr); ok {
							written[sel] = true
						}
					case *ast.UnaryExpr:
						if sel, ok := ast.Unparen(x.X).(*ast.SelectorExpr); ok && x.Op == token.AND {
							addressed[sel] = true
						}
					case *ast.CompositeLit:
						markLiteral(info, x, set)
					case *ast.CallExpr:
						if tag := encoderTag(info, x); tag != "" {
							markEncoded(info.TypeOf(x.Args[0]), tag, encoded, map[types.Type]bool{})
						}
					}
					return true
				})
			}
			for id, obj := range info.Uses {
				if key, ok := exportKey(obj); ok && !notUses[id] {
					used[key] = true
				}
			}
			for sel, s := range info.Selections {
				key := markSelection(s, written[sel], read)
				switch {
				case key == "":
				case defaults[sel]:
					defaultAt[key] = append(defaultAt[key], relPosition(fset.Position(sel.Pos())))
				case written[sel] || addressed[sel]:
					set[key] = true
				}
			}

			if !strings.HasPrefix(p.ImportPath, "ecavs/internal/") {
				continue
			}
			scope := pkg.Scope()
			for _, name := range scope.Names() {
				obj := scope.Lookup(name)
				tn, isType := obj.(*types.TypeName)
				if isType && !tn.IsAlias() {
					if st, ok := tn.Type().Underlying().(*types.Struct); ok {
						key, _ := typeKey(tn.Type())
						for i := 0; i < st.NumFields(); i++ {
							tag := reflect.StructTag(st.Tag(i))
							if tag.Get("json") != "" || tag.Get("xml") != "" {
								tagged[key] = true
							}
							if f := st.Field(i); obj.Exported() && f.Exported() {
								fields[key+"."+f.Name()] = true
							}
						}
					}
				}
				if !obj.Exported() {
					continue
				}
				key, _ := exportKey(obj)
				declared[key] = true
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
	for key := range fields {
		if (!read[key] && !encoded[key]) || (read[key] && !set[key]) {
			testOnly = append(testOnly, key)
		}
	}
	sort.Strings(testOnly)
	for _, key := range testOnly {
		if _, ok := testOnlyExports[key]; ok {
			continue
		}
		switch {
		case read[key] && len(defaultAt[key]) > 0:
			sort.Strings(defaultAt[key])
			t.Errorf("field %s is set only from tests and by its default at %s, so the program always reads that default: make it a constant, or list it in testOnlyExports with the reason it stays", key, strings.Join(defaultAt[key], ", "))
		case read[key]:
			t.Errorf("field %s is set only from tests, so the program always reads its zero value: make it a constant, or list it in testOnlyExports with the reason it stays", key)
		case fields[key]:
			t.Errorf("field %s is read only from tests: delete it with the code that computes it, or list it in testOnlyExports with the reason it stays", key)
		default:
			t.Errorf("%s is exported but referenced only from tests: unexport or delete it, or list it in testOnlyExports with the reason it stays", key)
		}
	}
	for key := range tagged {
		if !encoded[key] {
			t.Errorf("%s has json or xml tags, but no encoder receives it: drop the tags", key)
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

// encoderTag returns "json" or "xml" when call passes a value to an
// encoder of that package (Marshal, MarshalIndent, Encoder.Encode or
// Encoder.EncodeElement), and "" otherwise.
func encoderTag(info *types.Info, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || len(call.Args) == 0 {
		return ""
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	switch fn.Name() {
	case "Marshal", "MarshalIndent", "Encode", "EncodeElement":
	default:
		return ""
	}
	switch fn.Pkg().Path() {
	case "encoding/json":
		return "json"
	case "encoding/xml":
		return "xml"
	}
	return ""
}

// markEncoded records in encoded what an encoder writes from a value of
// type typ: the key of every struct under internal/ it reaches and of
// each exported field whose tag is not "-", through pointers, slices,
// arrays, map values and nested structs.
func markEncoded(typ types.Type, tag string, encoded map[string]bool, seen map[types.Type]bool) {
	if typ == nil || seen[typ] {
		return
	}
	seen[typ] = true
	switch u := typ.Underlying().(type) {
	case *types.Pointer:
		markEncoded(u.Elem(), tag, encoded, seen)
	case *types.Slice:
		markEncoded(u.Elem(), tag, encoded, seen)
	case *types.Array:
		markEncoded(u.Elem(), tag, encoded, seen)
	case *types.Map:
		markEncoded(u.Elem(), tag, encoded, seen)
	case *types.Struct:
		key, named := typeKey(typ)
		if named {
			encoded[key] = true
		}
		for i := 0; i < u.NumFields(); i++ {
			f := u.Field(i)
			if name, _, _ := strings.Cut(reflect.StructTag(u.Tag(i)).Get(tag), ","); !f.Exported() || name == "-" {
				continue
			}
			if named {
				encoded[key+"."+f.Name()] = true
			}
			markEncoded(f.Type(), tag, encoded, seen)
		}
	}
}

// markSelection records in read the fields under internal/ that
// selection s reads: every embedded field on its path, and the selected
// field unless it is only written. It returns the selected field's key,
// or "" when s selects a method or a field declared outside internal/.
func markSelection(s *types.Selection, written bool, read map[string]bool) (selected string) {
	path := s.Index()
	last := len(path) - 1
	if s.Kind() != types.FieldVal {
		path = path[:last] // the last index picks the method
	}
	typ := s.Recv()
	for i, idx := range path {
		if p, ok := typ.Underlying().(*types.Pointer); ok {
			typ = p.Elem()
		}
		st, ok := typ.Underlying().(*types.Struct)
		if !ok {
			return ""
		}
		if key, ok := typeKey(typ); ok {
			key += "." + st.Field(idx).Name()
			if i < last || !written {
				read[key] = true
			}
			if i == last {
				selected = key
			}
		}
		typ = st.Field(idx).Type()
	}
	return selected
}

// markDefaults records in defaults each selector that if statement s
// assigns a default: the target of a plain assignment directly in its
// body that its condition also reads, assigned a value that names no
// local variable.
func markDefaults(info *types.Info, s *ast.IfStmt, defaults map[*ast.SelectorExpr]bool) {
	cond := map[string]bool{}
	ast.Inspect(s.Cond, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			cond[types.ExprString(sel)] = true
		}
		return true
	})
	for _, stmt := range s.Body.List {
		as, ok := stmt.(*ast.AssignStmt)
		if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != len(as.Rhs) {
			continue
		}
		for i, lhs := range as.Lhs {
			if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok && cond[types.ExprString(sel)] && !namesLocal(info, as.Rhs[i]) {
				defaults[sel] = true
			}
		}
	}
}

// namesLocal reports whether expression e refers to a local variable:
// a variable that is neither declared at package level nor a field.
func namesLocal(info *types.Info, e ast.Expr) bool {
	local := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if v, ok := info.Uses[id].(*types.Var); ok && !v.IsField() && v.Pkg().Scope().Lookup(v.Name()) != v {
				local = true
			}
		}
		return !local
	})
	return local
}

// relPosition renders pos with its file name relative to the working
// directory, the module root when go test runs this file.
func relPosition(pos token.Position) string {
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, pos.Filename); err == nil {
			pos.Filename = rel
		}
	}
	return pos.String()
}

// markLiteral records in set the fields under internal/ that composite
// literal lit sets: each keyed element's field, and each positional
// element's field by its position.
func markLiteral(info *types.Info, lit *ast.CompositeLit, set map[string]bool) {
	typ := info.TypeOf(lit)
	if p, ok := typ.Underlying().(*types.Pointer); ok {
		typ = p.Elem() // an elided &T{...} element
	}
	key, named := typeKey(typ)
	st, ok := typ.Underlying().(*types.Struct)
	if !named || !ok {
		return
	}
	for i, elt := range lit.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			set[key+"."+kv.Key.(*ast.Ident).Name] = true
		} else {
			set[key+"."+st.Field(i).Name()] = true
		}
	}
}

// blankSpec reports whether a var spec declares only blank names, as a
// compile-time assertion such as `var _ http.Handler = (*Edge)(nil)`
// does.
func blankSpec(spec *ast.ValueSpec) bool {
	for _, name := range spec.Names {
		if name.Name != "_" {
			return false
		}
	}
	return true
}

// typeKey names a named type declared under internal/ as "pkg.Type",
// where pkg is the import path below internal/.
func typeKey(typ types.Type) (key string, ok bool) {
	named, isNamed := types.Unalias(typ).(*types.Named)
	if !isNamed {
		return "", false
	}
	obj := named.Origin().Obj()
	if obj.Pkg() == nil || !strings.HasPrefix(obj.Pkg().Path(), "ecavs/internal/") {
		return "", false
	}
	return strings.TrimPrefix(obj.Pkg().Path(), "ecavs/internal/") + "." + obj.Name(), true
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
