package oopp_test

// The docs-link check: every doc.go in the tree cross-references the
// API it narrates ("oopp.RegisterPipeline", "Array.ApplyPipeline",
// "rmi.ErrMachineDown", ...). Prose drifts when code moves — a renamed
// method silently orphans the chapter that sells it. This test parses
// the whole module, builds the set of identifiers each package actually
// declares, and fails on any doc.go reference of the form pkg.Name or
// Type.Method that no longer names a real declaration.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docSymbols is the per-package declaration index: top-level names
// (types, funcs, consts, vars) plus method and field names keyed as
// "Type.Member".
type docSymbols struct {
	names   map[string]bool // top-level declarations
	members map[string]bool // "Type.Method" and "Type.Field"
}

// receiverType unwraps a method receiver expression (*T, T, *T[P]) to
// the bare type name.
func receiverType(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

// parseModule parses every non-test Go file under root, skipping the
// directories below it that the go tool ignores (testdata, and names
// beginning with "." or "_"), and hands each file to visit with its path
// as the walk found it (root joined with the relative path).
func parseModule(t *testing.T, root string, visit func(path string, f *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		visit(path, f)
		return nil
	})
	if err != nil {
		t.Fatalf("walk: %v", err)
	}
}

// indexModule parses every non-test Go file under root and returns the
// symbol index per package name, plus the list of doc.go file paths.
// Packages named main (commands, examples) are not referenceable from
// prose and are skipped from the index.
func indexModule(t *testing.T, root string) (map[string]*docSymbols, []string) {
	t.Helper()
	pkgs := make(map[string]*docSymbols)
	var docs []string
	parseModule(t, root, func(path string, f *ast.File) {
		if filepath.Base(path) == "doc.go" {
			docs = append(docs, path)
		}
		pkg := f.Name.Name
		if pkg == "main" {
			return
		}
		syms := pkgs[pkg]
		if syms == nil {
			syms = &docSymbols{names: make(map[string]bool), members: make(map[string]bool)}
			pkgs[pkg] = syms
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil || len(d.Recv.List) == 0 {
					syms.names[d.Name.Name] = true
					continue
				}
				if recv := receiverType(d.Recv.List[0].Type); recv != "" {
					syms.members[recv+"."+d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						syms.names[s.Name.Name] = true
						if st, ok := s.Type.(*ast.StructType); ok {
							for _, fld := range st.Fields.List {
								for _, n := range fld.Names {
									syms.members[s.Name.Name+"."+n.Name] = true
								}
							}
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							syms.names[n.Name] = true
						}
					}
				}
			}
		}
	})
	return pkgs, docs
}

// pkgRef matches "pkg.Name" prose references whose package half is a
// module package; typeRef matches "Type.Member". Both require the dot
// to join the halves directly, so sentence boundaries ("pages. The
// client") never match.
var (
	pkgRef  = regexp.MustCompile(`(^|[^.\w])([a-z][a-z0-9]*)\.([A-Z][A-Za-z0-9]*)`)
	typeRef = regexp.MustCompile(`(^|[^.\w])([A-Z][A-Za-z0-9]*)\.([A-Z][A-Za-z0-9]*)`)
)

func TestDocGoCrossReferencesResolve(t *testing.T) {
	pkgs, docs := indexModule(t, ".")
	if len(docs) == 0 {
		t.Fatal("no doc.go files found — the walk is broken")
	}
	// declared reports whether any package resolves the reference, as a
	// top-level name, a method/field, or a method on a facade alias
	// (oopp.Array = core.Array declares Array in oopp but its methods in
	// core — prose may cite either spelling).
	declaredName := func(pkg, name string) bool {
		s := pkgs[pkg]
		return s != nil && s.names[name]
	}
	declaredMember := func(ref string) bool {
		for _, s := range pkgs {
			if s.members[ref] {
				return true
			}
		}
		return false
	}
	fset := token.NewFileSet()
	for _, path := range docs {
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, cg := range f.Comments {
			text := cg.Text()
			for _, m := range pkgRef.FindAllStringSubmatch(text, -1) {
				pkg, name := m[2], m[3]
				if _, known := pkgs[pkg]; !known {
					continue // stdlib or prose, not a module package
				}
				if !declaredName(pkg, name) && !memberOfAnyType(pkgs[pkg], name) {
					t.Errorf("%s: reference %s.%s names nothing %s declares", path, pkg, name, pkg)
				}
			}
			for _, m := range typeRef.FindAllStringSubmatch(text, -1) {
				typ, member := m[2], m[3]
				// Only vet references whose type half is a real module
				// type; "U.S." style prose or stdlib types pass through.
				if !anyDeclares(pkgs, typ) {
					continue
				}
				if !declaredMember(typ + "." + member) {
					t.Errorf("%s: reference %s.%s: no package declares that method or field", path, typ, member)
				}
			}
		}
	}
}

// memberOfAnyType reports whether name is a method or field of some
// type in the package — prose like "collection.CallAll" cites the
// package a method's type lives in rather than the receiver type.
func memberOfAnyType(s *docSymbols, name string) bool {
	if s == nil {
		return false
	}
	for ref := range s.members {
		if strings.HasSuffix(ref, "."+name) {
			return true
		}
	}
	return false
}

// anyDeclares reports whether any module package declares the type name
// at top level.
func anyDeclares(pkgs map[string]*docSymbols, name string) bool {
	for _, s := range pkgs {
		if s.names[name] {
			return true
		}
	}
	return false
}
