package tcss

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// callerlessAllowed exempts exported declarations that TestNoCallerlessExports
// would flag, one reason per entry. Keys are package.Name or
// package.Receiver.Name.
var callerlessAllowed = map[string]string{
	"serve.reqError.Unwrap": "errors.Is and errors.As call it through the unwrap interface",
}

// TestNoCallerlessExports keeps dead surface from growing back. Every
// exported top-level func, method, type, const and var declared in a non-test
// file of the root package or under internal/ must have its name appear as
// an identifier somewhere that can use it: another non-test file of the
// module or of bench/, its own file besides the declaring identifier, or a
// test file in a different directory (the seams other packages' tests use).
// A package's own tests do not count: an export only they call belongs in
// them or unexported. The check is by name only, so it can miss dead code
// that shares a name with live code, but it never flags a declaration that
// has a caller.
func TestNoCallerlessExports(t *testing.T) {
	type decl struct {
		key, name, file string
		pos             token.Pos // the declaring identifier
	}
	fset := token.NewFileSet()
	var decls []decl
	identPos := map[string]map[string][]token.Pos{} // non-test file → name → positions
	testNames := map[string]map[string]bool{}       // directory → names used by its tests
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.Dir(path)
		if strings.HasSuffix(path, "_test.go") {
			if testNames[dir] == nil {
				testNames[dir] = map[string]bool{}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					testNames[dir][id.Name] = true
				}
				return true
			})
			return nil
		}
		idents := map[string][]token.Pos{}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				idents[id.Name] = append(idents[id.Name], id.Pos())
			}
			return true
		})
		identPos[path] = idents
		if dir != "." && !strings.HasPrefix(path, "internal"+string(filepath.Separator)) {
			return nil
		}
		pkg := f.Name.Name
		add := func(key string, id *ast.Ident) {
			if id.IsExported() {
				decls = append(decls, decl{pkg + "." + key, id.Name, path, id.Pos()})
			}
		}
		for _, dl := range f.Decls {
			switch dl := dl.(type) {
			case *ast.FuncDecl:
				key := dl.Name.Name
				if dl.Recv != nil {
					key = receiverName(dl.Recv.List[0].Type) + "." + key
				}
				add(key, dl.Name)
			case *ast.GenDecl:
				for _, spec := range dl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(spec.Name.Name, spec.Name)
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							add(id.Name, id)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	used := func(d decl) bool {
		for file, idents := range identPos {
			for _, p := range idents[d.name] {
				if file != d.file || p != d.pos {
					return true
				}
			}
		}
		for dir, names := range testNames {
			if dir != filepath.Dir(d.file) && names[d.name] {
				return true
			}
		}
		return false
	}
	var flagged []string
	seen := map[string]bool{}
	for _, d := range decls {
		seen[d.key] = true
		if _, ok := callerlessAllowed[d.key]; !ok && !used(d) {
			flagged = append(flagged, d.key+" ("+d.file+")")
		}
	}
	sort.Strings(flagged)
	for _, f := range flagged {
		t.Errorf("%s is exported but nothing outside its declaration and its own package's tests names it: delete it, unexport it, or allowlist it with a reason", f)
	}
	for key := range callerlessAllowed {
		if !seen[key] {
			t.Errorf("allowlist entry %s names no exported declaration: remove it", key)
		}
	}
}

// receiverName is the base type name of a method receiver: T for T, *T,
// T[P] and *T[P].
func receiverName(e ast.Expr) string {
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
			return "?"
		}
	}
}
