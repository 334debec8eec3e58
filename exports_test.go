package oopp_test

// The exports check: every exported function or method declared in a
// non-test file under internal/ must be referenced by some non-test code
// other than its own declaration — in its own package, another internal
// package, the root facade, an example, a command or the bench module.
// internal/ cannot be imported from outside the module, so an export
// that only tests reach is surface nothing uses; it goes, or the
// allowlist below names it with a reason.
//
// Functions match by import path and name. Methods match by name alone:
// a call x.Foo() counts for every method named Foo, so a dead method that
// shares its name with a live one is not flagged. Methods the standard
// library calls through an interface (Error, Unwrap, Is, As, String) are
// exempt. The root facade (oopp.go, typed.go) is the module's importable
// API and is not checked, though the methods it reaches through its type
// aliases are, since they are declared under internal/.

import (
	"go/ast"
	"os"
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

// uncalledExports returns the exports under root's internal/ that no
// non-test code references, as "dir.Func" or "dir.Type.Method" with dir
// relative to root, each with the file that declares it.
func uncalledExports(t *testing.T, root string) map[string]string {
	t.Helper()
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	var modPath string
	for _, line := range strings.Split(string(mod), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			modPath = strings.TrimSpace(rest)
		}
	}
	type file struct {
		dir, name string // package directory relative to root ("." for the root), file name
		f         *ast.File
	}
	var files []file
	pkgName := make(map[string]string) // dir -> package name
	parseModule(t, root, func(path string, f *ast.File) {
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.ToSlash(rel)
		files = append(files, file{dir, filepath.Base(path), f})
		pkgName[dir] = f.Name.Name
	})

	// Declarations: function key "dir.Name", method key "#Name".
	type export struct{ report, file string }
	decls := make(map[string][]export)
	declKey := func(dir string, d *ast.FuncDecl) string {
		if d.Recv != nil && len(d.Recv.List) > 0 {
			return "#" + d.Name.Name
		}
		return dir + "." + d.Name.Name
	}
	for _, fl := range files {
		if !strings.HasPrefix(fl.dir, "internal/") {
			continue
		}
		for _, decl := range fl.f.Decls {
			d, ok := decl.(*ast.FuncDecl)
			if !ok || !d.Name.IsExported() {
				continue
			}
			report := fl.dir + "." + d.Name.Name
			if d.Recv != nil && len(d.Recv.List) > 0 {
				if exemptMethods[d.Name.Name] {
					continue
				}
				report = fl.dir + "." + receiverType(d.Recv.List[0].Type) + "." + d.Name.Name
			}
			k := declKey(fl.dir, d)
			decls[k] = append(decls[k], export{report, fl.dir + "/" + fl.name})
		}
	}

	// References from every non-test file, a declaration's references to
	// its own key excepted.
	refs := make(map[string]bool)
	for _, fl := range files {
		imports := make(map[string]string) // local name -> dir
		for _, imp := range fl.f.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			var dir string
			switch {
			case p == modPath:
				dir = "."
			case strings.HasPrefix(p, modPath+"/"):
				dir = strings.TrimPrefix(p, modPath+"/")
			default:
				continue
			}
			name := pkgName[dir]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = dir
		}
		// self is the declaration being walked; a function's references
		// to its own key, and a method's calls of itself on its receiver
		// recv, are not callers. A method's other references to its own
		// name are: a wrapper's x.inner.M() calls another type's M.
		var self, recv string
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				id, _ := x.X.(*ast.Ident)
				switch {
				case id != nil && imports[id.Name] != "":
					refs[imports[id.Name]+"."+x.Sel.Name] = true
				case id != nil && id.Name == recv && "#"+x.Sel.Name == self:
					// a method calling itself on its own receiver
				default:
					refs["#"+x.Sel.Name] = true
					ast.Inspect(x.X, visit)
				}
				return false // x.Sel is not a name of this package
			case *ast.Ident:
				if key := fl.dir + "." + x.Name; key != self {
					refs[key] = true
				}
			}
			return true
		}
		for _, decl := range fl.f.Decls {
			self, recv = "", ""
			if d, ok := decl.(*ast.FuncDecl); ok {
				self = declKey(fl.dir, d)
				if d.Recv != nil {
					if names := d.Recv.List[0].Names; len(names) > 0 {
						recv = names[0].Name
					}
					ast.Inspect(d.Recv, visit)
				}
				ast.Inspect(d.Type, visit)
				if d.Body != nil {
					ast.Inspect(d.Body, visit)
				}
				continue
			}
			ast.Inspect(decl, visit)
		}
	}

	flagged := make(map[string]string)
	for k, exps := range decls {
		if refs[k] {
			continue
		}
		for _, e := range exps {
			flagged[e.report] = e.file
		}
	}
	return flagged
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

// TestExportsCheckFlagsFixture runs the check on a module of four
// exports: one nothing calls, one only a test calls, one another package
// calls, and an Is method. Exactly the first two are flagged.
func TestExportsCheckFlagsFixture(t *testing.T) {
	got := uncalledExports(t, filepath.Join("testdata", "exports"))
	want := map[string]string{
		"internal/lib.Uncalled":   "internal/lib/lib.go",
		"internal/lib.OnlyTested": "internal/lib/lib.go",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flagged %v, want %v", got, want)
	}
}
