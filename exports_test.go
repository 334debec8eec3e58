package oopp_test

// The exports check: every exported function or method declared in a
// non-test file under internal/ must be referenced by some non-test code
// other than its own declaration — in its own package, another internal
// package, the root facade, an example, a command or the bench module.
// internal/ cannot be imported from outside the module, so an export
// that only tests reach is surface nothing uses; it goes, or the
// allowlist below names it with a reason.
//
// References resolve by type: the modules' packages are type-checked from
// source (the standard library from export data), and an export is
// called when a selector, method value, method expression or plain name
// outside its own declaration denotes it, a generic method by its origin.
// A method is also called when code calls an interface method of its
// name, since a call through an interface may reach it. A remote method
// handle (a package-level variable of rmi's Method type) is dead when
// nothing outside its own declaration references it: the server body it
// registers is then a method no stub, peer or fan-out calls. Methods the
// standard library calls through an interface (Error, Unwrap, Is, As,
// String) are exempt. The root facade (oopp.go, typed.go) is the module's
// importable API and is not checked, though the methods it reaches
// through its type aliases are, since they are declared under internal/.

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

// exportAllowlist keeps a flagged export; each entry says why. A key is
// "dir.Func", "dir.Type.Method" or a file path, which keeps every export
// that file declares.
var exportAllowlist = map[string]string{
	"internal/core.Array.DegradedWrites":   "ROADMAP 1(c) turns it into the count of marks a checker reads",
	"internal/rmi.ClassSpec.MethodNames":   "ROADMAP 6 lists a class's methods from it",
	"internal/core.BlockStorage.AddDevice": "ROADMAP 2(b)'s join event adds a device through it",
	"internal/fft.DFTNaive":                "the O(n²) oracle the fft and pfft tests compare against",
	"internal/e2e/harness.go":              "the multi-process test harness; the e2e suite is its caller",
}

// exemptMethods are called by the standard library through its
// interfaces (error, fmt.Stringer, errors.Is/As/Unwrap).
var exemptMethods = map[string]bool{"Error": true, "Unwrap": true, "Is": true, "As": true, "String": true}

// listedPackage is what the check reads of `go list -json`.
type listedPackage struct {
	ImportPath, Dir, Export string
	GoFiles                 []string
	Standard                bool
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// sourceFile is one non-test file of a checked module.
type sourceFile struct {
	dir, path string // package directory and file, relative to the root
	f         *ast.File
}

// checkedModules is root's module and, if root has one, the module in
// bench/, type-checked from source: their non-test files, and what the
// type checker recorded of every identifier and expression in them.
type checkedModules struct {
	fset  *token.FileSet
	files []sourceFile
	info  *types.Info
}

// loaded keeps each root's type-checked modules: the tests that read them
// share one load.
var loaded = make(map[string]*checkedModules)

// loadModules type-checks root's modules once and returns them.
func loadModules(t *testing.T, root string) *checkedModules {
	t.Helper()
	if m := loaded[root]; m != nil {
		return m
	}
	abs, err := filepath.Abs(root)
	if err != nil {
		t.Fatal(err)
	}
	// Every package the modules build, dependencies first: the standard
	// library's export data, and the modules' own packages to check.
	var pkgs []listedPackage
	exportData := make(map[string]string) // import path -> export data file
	seen := make(map[string]bool)
	for _, dir := range []string{abs, filepath.Join(abs, "bench")} {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err != nil {
			continue
		}
		cmd := exec.Command("go", "list", "-export", "-deps", "-json=ImportPath,Dir,Export,GoFiles,Standard", "./...")
		cmd.Dir = dir
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("go list in %s: %v", dir, err)
		}
		for dec := json.NewDecoder(bytes.NewReader(out)); ; {
			var p listedPackage
			if err := dec.Decode(&p); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
			switch {
			case seen[p.ImportPath]:
			case p.Standard:
				exportData[p.ImportPath] = p.Export
			default:
				pkgs = append(pkgs, p)
			}
			seen[p.ImportPath] = true
		}
	}

	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) { return os.Open(exportData[path]) })
	checked := make(map[string]*types.Package)
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return std.Import(path)
	})}
	info := &types.Info{
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
		Types: make(map[ast.Expr]types.TypeAndValue),
	}
	m := &checkedModules{fset: fset, info: info}
	for _, p := range pkgs {
		rel, err := filepath.Rel(abs, p.Dir)
		if err != nil {
			t.Fatal(err)
		}
		var asts []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			asts = append(asts, f)
			m.files = append(m.files, sourceFile{filepath.ToSlash(rel), filepath.ToSlash(filepath.Join(rel, name)), f})
		}
		if checked[p.ImportPath], err = conf.Check(p.ImportPath, fset, asts, info); err != nil {
			t.Fatalf("type-check %s: %v", p.ImportPath, err)
		}
	}
	loaded[root] = m
	return m
}

// uncalledExports returns the exports under root's internal/ that no
// non-test code references, as "dir.Func" or "dir.Type.Method" with dir
// relative to root, each with the file that declares it. The code
// searched is root's module and, if root has one, the module in bench/.
func uncalledExports(t *testing.T, root string) map[string]string {
	t.Helper()
	m := loadModules(t, root)
	info := m.info

	type export struct{ report, file string }
	decls := make(map[*types.Func]export)
	handles := make(map[*types.Var]export)
	used := make(map[types.Object]bool)
	ifaceCalled := make(map[string]bool) // names of the interface methods code calls
	for _, fl := range m.files {
		for _, decl := range fl.f.Decls {
			// A function is one unit, and so is each spec of a declaration
			// group: what a unit declares is not used by its own references.
			units := []ast.Node{decl}
			if g, ok := decl.(*ast.GenDecl); ok {
				units = units[:0]
				for _, spec := range g.Specs {
					units = append(units, spec)
				}
			}
			for _, unit := range units {
				self := make(map[types.Object]bool)
				switch d := unit.(type) {
				case *ast.FuncDecl:
					self[info.Defs[d.Name]] = true
					exempt := d.Recv != nil && exemptMethods[d.Name.Name]
					if strings.HasPrefix(fl.dir, "internal/") && d.Name.IsExported() && !exempt {
						name := d.Name.Name
						if d.Recv != nil {
							name = receiverType(d.Recv.List[0].Type) + "." + name
						}
						decls[info.Defs[d.Name].(*types.Func)] = export{fl.dir + "." + name, fl.path}
					}
				case *ast.ValueSpec:
					for _, id := range d.Names {
						self[info.Defs[id]] = true
						if v, ok := info.Defs[id].(*types.Var); ok && strings.HasPrefix(fl.dir, "internal/") && isHandle(v) {
							handles[v] = export{fl.dir + "." + id.Name, fl.path}
						}
					}
				}
				ast.Inspect(unit, func(n ast.Node) bool {
					id, _ := n.(*ast.Ident)
					obj := info.Uses[id]
					if fn, ok := obj.(*types.Func); ok {
						obj = fn.Origin()
						if recv := fn.Signature().Recv(); recv != nil && types.IsInterface(recv.Type()) {
							ifaceCalled[fn.Name()] = true
						}
					}
					if obj != nil && !self[obj] {
						used[obj] = true
					}
					return true
				})
			}
		}
	}

	flagged := make(map[string]string)
	for fn, e := range decls {
		if !used[fn] && !(fn.Signature().Recv() != nil && ifaceCalled[fn.Name()]) {
			flagged[e.report] = e.file
		}
	}
	for v, e := range handles {
		if !used[v] {
			flagged[e.report] = e.file
		}
	}
	return flagged
}

// namedByConstant returns the places where non-test code of root's own
// module, outside internal/rmi, names a remote method or class other than
// by its handle, as "file:line: what": a constant passed for a string
// parameter named method (Client.Call, FanOut, a collection's Broadcast, a
// serve Session's Call and every other by-name surface) or class
// (Client.New, SpawnNamed, SpawnRefs, Session.New, Store.Put,
// RegisterRestorable), and a registration through rmi's ClassSpec.Method
// or ConcurrentMethod. A handle's Name() is the accepted argument. The
// bench module is not searched.
func namedByConstant(t *testing.T, root string) []string {
	t.Helper()
	m := loadModules(t, root)
	var found []string
	for _, fl := range m.files {
		if fl.dir == "bench" || strings.HasPrefix(fl.dir, "bench/") || fl.dir == "internal/rmi" {
			continue
		}
		ast.Inspect(fl.f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			at := func(x ast.Node) string { return fmt.Sprintf("%s:%d: ", fl.path, m.fset.Position(x.Pos()).Line) }
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				if fn, ok := m.info.Uses[sel.Sel].(*types.Func); ok && isClassSpecRegistration(fn) {
					found = append(found, at(sel.Sel)+"registers through ClassSpec."+fn.Name())
				}
			}
			sig, ok := m.info.TypeOf(call.Fun).(*types.Signature)
			if !ok {
				return true
			}
			for i, arg := range call.Args {
				if i >= sig.Params().Len() {
					break
				}
				p := sig.Params().At(i)
				if (p.Name() == "method" || p.Name() == "class") && types.Identical(p.Type(), types.Typ[types.String]) && m.info.Types[arg].Value != nil {
					found = append(found, at(arg)+"names a "+p.Name()+" by the constant "+m.info.Types[arg].Value.String())
				}
			}
			return true
		})
	}
	sort.Strings(found)
	return found
}

// isClassSpecRegistration reports whether fn is the Method or
// ConcurrentMethod method of the ClassSpec type of a package
// .../internal/rmi.
func isClassSpecRegistration(fn *types.Func) bool {
	recv := fn.Signature().Recv()
	if recv == nil || (fn.Name() != "Method" && fn.Name() != "ConcurrentMethod") {
		return false
	}
	ptr, ok := recv.Type().(*types.Pointer)
	if !ok {
		return false
	}
	n, ok := ptr.Elem().(*types.Named)
	return ok && n.Obj().Name() == "ClassSpec" && strings.HasSuffix(n.Obj().Pkg().Path(), "internal/rmi")
}

// isHandle reports whether v is a remote method handle: a package-level
// variable of the Method type, or of an instance of the generic Op type,
// of a package .../internal/rmi.
func isHandle(v *types.Var) bool {
	n, ok := v.Type().(*types.Named)
	if !ok || v.Parent() != v.Pkg().Scope() {
		return false
	}
	o := n.Origin().Obj()
	return (o.Name() == "Method" || o.Name() == "Op") && o.Pkg() != nil && strings.HasSuffix(o.Pkg().Path(), "internal/rmi")
}

func TestInternalExportsHaveCallers(t *testing.T) {
	flagged := uncalledExports(t, ".")
	if len(exportAllowlist) > 12 {
		t.Errorf("the allowlist has %d entries; it may have at most 12", len(exportAllowlist))
	}
	used := make(map[string]bool)
	var bad []string
	for export, file := range flagged {
		switch {
		case exportAllowlist[export] != "":
			used[export] = true
		case exportAllowlist[file] != "":
			used[file] = true
		default:
			bad = append(bad, export+" ("+file+")")
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Errorf("%s: no non-test code calls it; delete it or allowlist it with a reason", b)
	}
	for key := range exportAllowlist {
		if !used[key] {
			t.Errorf("allowlist entry %s keeps nothing: it has a caller now, or is gone", key)
		}
	}
}

// TestExportsCheckFlagsFixture runs the check on a module of exports:
// one nothing calls, one only a test calls, one another package calls, an
// Is method, two methods named Len of which one is called, and a method
// called only through an interface, and two remote method handles and two
// Op handles of which only a test references one each. Exactly the first
// two, the uncalled Len and the test-only handles are flagged.
func TestExportsCheckFlagsFixture(t *testing.T) {
	got := uncalledExports(t, filepath.Join("testdata", "exports"))
	want := map[string]string{
		"internal/lib.Uncalled":   "internal/lib/lib.go",
		"internal/lib.OnlyTested": "internal/lib/lib.go",
		"internal/lib.Dead.Len":   "internal/lib/lib.go",
		"internal/lib.dead":       "internal/lib/lib.go",
		"internal/lib.deadOp":     "internal/lib/lib.go",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flagged %v, want %v", got, want)
	}
}

// TestMethodsAreNamedByHandle holds the module to one way of naming a
// remote method or class outside internal/rmi: its Declare'd or
// registered handle, whose Name() the by-name surfaces take.
func TestMethodsAreNamedByHandle(t *testing.T) {
	for _, f := range namedByConstant(t, ".") {
		t.Errorf("%s; declare the method or class and name it through its handle", f)
	}
}

// TestNamedByConstantFlagsFixture runs the rule on the fixture module,
// whose lib passes a by-name method surface one constant and one handle's
// Name(), and a by-name class surface a constant: only the constants are
// flagged.
func TestNamedByConstantFlagsFixture(t *testing.T) {
	got := namedByConstant(t, filepath.Join("testdata", "exports"))
	want := []string{
		`internal/lib/lib.go:19: names a method by the constant "dead"`,
		`internal/lib/lib.go:20: names a class by the constant "lib.Cell"`,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flagged %q, want %q", got, want)
	}
}
