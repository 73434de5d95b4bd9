package tcss

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
)

// callerlessAllowed exempts declarations that TestNoCallerlessExports would
// flag, one reason per entry. Keys are package.Name or
// package.Receiver.Name.
var callerlessAllowed = map[string]string{
	"serve.reqError.Unwrap": "errors.Is and errors.As call it through the unwrap interface",
}

// callerlessSeams are the test-support packages, as directories under the
// module root: a use from a _test.go file in another directory counts for
// their declarations.
var callerlessSeams = []string{"internal/check", "internal/cluster/clustertest", "internal/fault"}

// TestNoCallerlessExports keeps dead code from growing back. Every func and
// method, and every exported type, const and var, declared in a non-test
// file of the module must be referred to, as that very object, from a
// non-test file of the module or of a module nested in it (bench/); see
// callerless for what counts. A package's own tests do not count: code only
// they call belongs in them.
func TestNoCallerlessExports(t *testing.T) {
	decls, err := callerless(".", callerlessSeams...)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, d := range decls {
		seen[d.key] = true
		if _, ok := callerlessAllowed[d.key]; !ok && !d.used {
			t.Errorf("%s (%s) has no caller outside its own package's tests: delete it or move it into the test that uses it", d.key, d.file)
		}
	}
	for key := range callerlessAllowed {
		if !seen[key] {
			t.Errorf("allowlist entry %s names no declaration: remove it", key)
		}
	}
}

// TestNoCallerlessFindsPlantedDeclarations runs the analysis on a small
// module and checks the exact set it flags: an orphan method that shares its
// name with a live one, an unexported function only a test calls and a seam
// function only its own test calls, but not a method reached through an
// interface conversion, a function only a file for another GOARCH calls, or
// a seam function another directory's test calls.
func TestNoCallerlessFindsPlantedDeclarations(t *testing.T) {
	other := "!amd64"
	if runtime.GOARCH != "amd64" {
		other = "amd64"
	}
	root := t.TempDir()
	for name, src := range map[string]string{
		"go.mod": "module m\n\ngo 1.22\n",
		"main.go": `package main

import "m/a"

func main() {
	a.Live{}.Add()
	println(a.Describe())
}
`,
		"a/a.go": `package a

type Live struct{}

func (Live) Add() {}

type orphan struct{}

func (orphan) Add() {}

func helper() int { return 1 }

type named struct{}

func (named) Name() string { return "n" }

func Describe() string {
	var n interface{ Name() string } = named{}
	return n.Name()
}

func portable() {}
`,
		"a/a_other.go": "//go:build " + other + "\n\npackage a\n\nfunc init() { portable() }\n",
		"a/a_test.go": `package a

import (
	"testing"

	"m/seam"
)

func TestHelper(t *testing.T) {
	seam.Fake()
	_ = helper()
}
`,
		"seam/seam.go":      "package seam\n\nfunc Fake() {}\n\nfunc Own() {}\n",
		"seam/seam_test.go": "package seam\n\nimport \"testing\"\n\nfunc TestOwn(t *testing.T) { Own() }\n",
	} {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	decls, err := callerless(root, "seam")
	if err != nil {
		t.Fatal(err)
	}
	var flagged []string
	for _, d := range decls {
		if !d.used {
			flagged = append(flagged, d.key)
		}
	}
	sort.Strings(flagged)
	if want := []string{"a.helper", "a.orphan.Add", "seam.Own"}; !slices.Equal(flagged, want) {
		t.Fatalf("flagged %q, want %q", flagged, want)
	}
}

// callerlessDecl is one declaration the gate checks.
type callerlessDecl struct {
	key, file string // package.[Receiver.]Name; the declaring file
	used      bool
}

// callerless type-checks every package of the module at root and of every
// module nested under it, in `go list -deps` order, importing the standard
// library through go/importer from the export data go list reports. It
// returns every func and method, and every exported type, const and var,
// declared in a non-test file of the root module (main functions aside), with
// whether something uses it. A declaration is used when a non-test file of
// any of the modules refers to that object outside the declaration itself
// (a method's receiver does not count), including files that build
// constraints exclude on the host GOOS/GOARCH. A method is also used when
// such a file converts a value of its type to an interface that has the
// method. For declarations in the seam directories, the same uses from
// _test.go files of other directories count too.
func callerless(root string, seams ...string) ([]callerlessDecl, error) {
	modules, err := nestedModules(root)
	if err != nil {
		return nil, err
	}
	var listed []goPackage
	for i, dir := range modules {
		pkgs, err := goList(dir, i == 0)
		if err != nil {
			return nil, err
		}
		listed = append(listed, pkgs...)
	}
	exports := map[string]string{}
	for _, p := range listed {
		if p.Standard {
			exports[p.ImportPath] = p.Export
		}
	}
	fset := token.NewFileSet()
	c := &callers{
		fset: fset,
		std: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			if f, ok := exports[path]; ok && f != "" {
				return os.Open(f)
			}
			return nil, fmt.Errorf("no export data for %s", path)
		}),
		pkgs:   map[string]*types.Package{},
		parsed: map[string]*ast.File{},
		host:   newUsage(),
		tests:  map[string]*usage{},
	}
	var mainModule string
	var module []goPackage // the non-test module packages, each once, in dependency order
	seen := map[string]bool{}
	for _, p := range listed {
		if p.Module == nil || p.ForTest != "" || strings.HasSuffix(p.ImportPath, ".test") || seen[p.ImportPath] {
			continue
		}
		seen[p.ImportPath] = true
		if p.Module.Main && mainModule == "" {
			mainModule = p.Module.Path
		}
		module = append(module, p)
	}

	// Host build: every module package, checked strictly.
	for _, p := range module {
		files, err := c.parse(p.Dir, p.GoFiles)
		if err != nil {
			return nil, err
		}
		pkg, info, err := c.check(p.ImportPath, files, c, true)
		if err != nil {
			return nil, err
		}
		c.pkgs[p.ImportPath] = pkg
		for _, f := range files {
			c.record(info, f, c.host)
		}
	}
	// Other platforms: each distinct set of non-test files that build
	// constraints select for another GOOS/GOARCH.
	for _, p := range module {
		host := strings.Join(p.GoFiles, " ")
		sets := map[string]bool{host: true}
		for _, ctxt := range otherPlatforms() {
			var names []string
			for _, name := range append(slices.Clone(p.GoFiles), p.IgnoredGoFiles...) {
				if ok, err := ctxt.MatchFile(p.Dir, name); err == nil && ok && !strings.HasSuffix(name, "_test.go") {
					names = append(names, name)
				}
			}
			sort.Strings(names)
			if key := strings.Join(names, " "); !sets[key] {
				sets[key] = true
				files, err := c.parse(p.Dir, names)
				if err != nil {
					return nil, err
				}
				_, info, err := c.check(p.ImportPath, files, c, true)
				if err != nil {
					return nil, fmt.Errorf("%s for %s/%s: %w", p.ImportPath, ctxt.GOOS, ctxt.GOARCH, err)
				}
				for _, f := range files {
					c.record(info, f, c.host)
				}
			}
		}
	}
	// Tests that import a seam, checked leniently: a package under test is
	// not rebuilt for its own tests here, so the types of a dependency that
	// imports it back may not match.
	seamPaths := map[string]bool{}
	for _, s := range seams {
		seamPaths[mainModule+"/"+filepath.ToSlash(s)] = true
	}
	for _, p := range module {
		if !slices.ContainsFunc(append(slices.Clone(p.TestImports), p.XTestImports...), func(s string) bool { return seamPaths[s] }) {
			continue
		}
		testUse := newUsage()
		c.tests[p.Dir] = testUse
		under := c.pkgs[p.ImportPath]
		if len(p.TestGoFiles) > 0 {
			files, err := c.parse(p.Dir, append(slices.Clone(p.GoFiles), p.TestGoFiles...))
			if err != nil {
				return nil, err
			}
			pkg, info, _ := c.check(p.ImportPath, files, c, false)
			for _, f := range files[len(p.GoFiles):] {
				c.record(info, f, testUse)
			}
			under = pkg
		}
		if len(p.XTestGoFiles) > 0 {
			files, err := c.parse(p.Dir, p.XTestGoFiles)
			if err != nil {
				return nil, err
			}
			imp := importerFunc(func(path string) (*types.Package, error) {
				if path == p.ImportPath {
					return under, nil
				}
				return c.Import(path)
			})
			_, info, _ := c.check(p.ImportPath+"_test", files, imp, false)
			for _, f := range files {
				c.record(info, f, testUse)
			}
		}
	}
	c.resolve(c.host)
	for _, u := range c.tests {
		c.resolve(u)
	}

	// Each file was parsed once, so a declaring identifier's position is its
	// object's position in every check that saw the file.
	var decls []callerlessDecl
	for _, p := range module {
		if p.Module.Path != mainModule {
			continue
		}
		for _, name := range append(slices.Clone(p.GoFiles), p.IgnoredGoFiles...) {
			f := c.parsed[filepath.Join(p.Dir, name)]
			if f == nil {
				continue // excluded on every platform checked, or a test
			}
			add := func(key string, id *ast.Ident) {
				used := c.host.objs[id.Pos()] || c.seamUse(id.Pos(), p.Dir, seams)
				decls = append(decls, callerlessDecl{key: p.Name + "." + key, file: filepath.Join(p.Dir, name), used: used})
			}
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Name.Name == "init" || d.Name.Name == "_" || p.Name == "main" && d.Name.Name == "main" && d.Recv == nil {
						continue
					}
					key := d.Name.Name
					if d.Recv != nil {
						key = receiverName(d.Recv.List[0].Type) + "." + key
					}
					add(key, d.Name)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							if spec.Name.IsExported() {
								add(spec.Name.Name, spec.Name)
							}
						case *ast.ValueSpec:
							for _, id := range spec.Names {
								if id.IsExported() {
									add(id.Name, id)
								}
							}
						}
					}
				}
			}
		}
	}
	return decls, nil
}

// callers holds the loader state and what the recorded uses reached.
type callers struct {
	fset   *token.FileSet
	std    types.Importer
	pkgs   map[string]*types.Package // module packages, host build
	parsed map[string]*ast.File      // by path: each file is parsed once, so positions identify objects across checks
	host   *usage                    // non-test files
	tests  map[string]*usage         // _test.go files, by directory
}

// usage is what one set of files reaches: the declarations it refers to (by
// position), the concrete types it converts to interfaces and the
// interfaces it asserts values to.
type usage struct {
	objs      map[token.Pos]bool
	converted map[string]types.Type
	asserted  map[string]*types.Interface
}

func newUsage() *usage {
	return &usage{map[token.Pos]bool{}, map[string]types.Type{}, map[string]*types.Interface{}}
}

func (c *callers) Import(path string) (*types.Package, error) {
	if p := c.pkgs[path]; p != nil {
		return p, nil
	}
	return c.std.Import(path)
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// seamUse reports whether a test outside dir uses the declaration at pos,
// when dir is a seam.
func (c *callers) seamUse(pos token.Pos, dir string, seams []string) bool {
	if !slices.ContainsFunc(seams, func(s string) bool { return strings.HasSuffix(dir, string(filepath.Separator)+filepath.FromSlash(s)) }) {
		return false
	}
	for d, u := range c.tests {
		if d != dir && u.objs[pos] {
			return true
		}
	}
	return false
}

// stdlibAsserted are interfaces the standard library asserts values to:
// fmt and encoding/json on what they print or encode, math/rand on a Source.
var stdlibAsserted = [][2]string{{"fmt", "Stringer"}, {"encoding/json", "Marshaler"}, {"encoding/json", "Unmarshaler"}, {"math/rand", "Source64"}}

// resolve adds to u the methods that dynamic dispatch reaches: those of
// every interface asserted here, by non-test code or by the standard
// library, that a converted type implements. Conversion reaches what
// reflection does: the exported fields, elements and pointees of the
// converted value.
func (c *callers) resolve(u *usage) {
	ifaces := maps.Clone(c.host.asserted)
	maps.Copy(ifaces, u.asserted)
	for _, name := range stdlibAsserted {
		if pkg, err := c.std.Import(name[0]); err == nil {
			if iface, ok := pkg.Scope().Lookup(name[1]).Type().Underlying().(*types.Interface); ok {
				ifaces[name[0]+"."+name[1]] = iface
			}
		}
	}
	seen := map[string]bool{}
	var reach func(t types.Type)
	reach = func(t types.Type) {
		key := types.TypeString(t, nil)
		if seen[key] || types.IsInterface(t) {
			return
		}
		seen[key] = true
		for _, t := range []types.Type{t, types.NewPointer(t)} {
			for _, iface := range ifaces {
				if types.Implements(t, iface) {
					markMethods(t, iface, u.objs)
				}
			}
		}
		switch t := t.Underlying().(type) {
		case *types.Pointer:
			reach(t.Elem())
		case *types.Slice:
			reach(t.Elem())
		case *types.Array:
			reach(t.Elem())
		case *types.Map:
			reach(t.Key())
			reach(t.Elem())
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if t.Field(i).Exported() {
					reach(t.Field(i).Type())
				}
			}
		}
	}
	for _, t := range u.converted {
		reach(t)
	}
}

// markMethods marks the methods of t that the interface iface has.
func markMethods(t types.Type, iface *types.Interface, objs map[token.Pos]bool) {
	for i := 0; i < iface.NumMethods(); i++ {
		m := iface.Method(i)
		obj, _, _ := types.LookupFieldOrMethod(t, true, m.Pkg(), m.Name())
		if fn, ok := obj.(*types.Func); ok {
			objs[fn.Origin().Pos()] = true
		}
	}
}

func (c *callers) parse(dir string, names []string) ([]*ast.File, error) {
	files := make([]*ast.File, len(names))
	for i, name := range names {
		path := filepath.Join(dir, name)
		f := c.parsed[path]
		if f == nil {
			var err error
			if f, err = parser.ParseFile(c.fset, path, nil, parser.SkipObjectResolution); err != nil {
				return nil, err
			}
			c.parsed[path] = f
		}
		files[i] = f
	}
	return files, nil
}

func (c *callers) check(path string, files []*ast.File, imp types.Importer, strict bool) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:     map[ast.Expr]types.TypeAndValue{},
		Defs:      map[*ast.Ident]types.Object{},
		Uses:      map[*ast.Ident]types.Object{},
		Instances: map[*ast.Ident]types.Instance{},
	}
	conf := types.Config{Importer: imp}
	if !strict {
		conf.Error = func(error) {}
	}
	pkg, err := conf.Check(path, c.fset, files, info)
	return pkg, info, err
}

// record adds to u every object the top-level declarations of f refer to,
// outside the declaration's own object and its receiver, the methods their
// interface conversions reach, and the types they convert and assert to.
func (c *callers) record(info *types.Info, f *ast.File, u *usage) {
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			self := info.Defs[d.Name]
			var sig *types.Signature
			if self != nil {
				sig, _ = self.Type().(*types.Signature)
			}
			c.walk(info, self, sig, d.Type, u)
			if d.Body != nil {
				c.walk(info, self, sig, d.Body, u)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				var self types.Object
				switch s := spec.(type) {
				case *ast.TypeSpec:
					self = info.Defs[s.Name]
				case *ast.ValueSpec:
					if len(s.Names) == 1 {
						self = info.Defs[s.Names[0]]
					}
				}
				c.walk(info, self, nil, spec, u)
			}
		}
	}
}

// walk records into u what root refers to; sig is the signature its return
// statements answer to, outside any function literal.
func (c *callers) walk(info *types.Info, self types.Object, sig *types.Signature, root ast.Node, u *usage) {
	typeOf := func(e ast.Expr) types.Type {
		if e == nil {
			return nil
		}
		return info.TypeOf(e)
	}
	// convert marks the methods of from that the interface to has, and
	// notes from as converted.
	convert := func(from, to types.Type) {
		if from == nil || to == nil || types.IsInterface(from) {
			return
		}
		if iface, ok := to.Underlying().(*types.Interface); ok {
			markMethods(from, iface, u.objs)
			u.converted[types.TypeString(from, nil)] = from
		}
	}
	assert := func(t types.Type) {
		if iface, ok := under(t).(*types.Interface); ok {
			u.asserted[types.TypeString(t, nil)] = iface
		}
	}
	// values is the types of exprs, a single multi-valued call expanded.
	values := func(exprs []ast.Expr) []types.Type {
		if len(exprs) == 1 {
			if tuple, ok := typeOf(exprs[0]).(*types.Tuple); ok {
				ts := make([]types.Type, tuple.Len())
				for i := range ts {
					ts[i] = tuple.At(i).Type()
				}
				return ts
			}
		}
		ts := make([]types.Type, len(exprs))
		for i, e := range exprs {
			ts[i] = typeOf(e)
		}
		return ts
	}
	sigs := []*types.Signature{sig}
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			if _, ok := stack[len(stack)-1].(*ast.FuncLit); ok {
				sigs = sigs[:len(sigs)-1]
			}
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.Ident:
			if obj := info.Uses[n]; obj != nil && (self == nil || obj.Pos() != self.Pos()) {
				u.objs[obj.Pos()] = true
			}
			if inst, ok := info.Instances[n]; ok {
				var tparams *types.TypeParamList
				switch obj := info.Uses[n].(type) {
				case *types.Func:
					tparams = obj.Origin().Type().(*types.Signature).TypeParams()
				case *types.TypeName:
					if named, ok := obj.Type().(*types.Named); ok {
						tparams = named.Origin().TypeParams()
					}
				}
				for i := 0; tparams != nil && i < tparams.Len() && i < inst.TypeArgs.Len(); i++ {
					convert(inst.TypeArgs.At(i), tparams.At(i).Constraint())
				}
			}
		case *ast.FuncLit:
			s, _ := typeOf(n).(*types.Signature)
			sigs = append(sigs, s)
		case *ast.CallExpr:
			tv := info.Types[n.Fun]
			if tv.IsType() {
				if len(n.Args) == 1 {
					convert(typeOf(n.Args[0]), tv.Type)
				}
				break
			}
			s, ok := tv.Type.(*types.Signature)
			if tv.Type != nil && !ok {
				s, ok = tv.Type.Underlying().(*types.Signature)
			}
			if !ok {
				break
			}
			params := s.Params()
			for i, arg := range values(n.Args) {
				var p types.Type
				switch {
				case s.Variadic() && i >= params.Len()-1:
					p = params.At(params.Len() - 1).Type()
					if sl, ok := p.Underlying().(*types.Slice); ok && !n.Ellipsis.IsValid() {
						p = sl.Elem()
					}
				case i < params.Len():
					p = params.At(i).Type()
				}
				convert(arg, p)
			}
		case *ast.AssignStmt:
			for i, v := range values(n.Rhs) {
				if i < len(n.Lhs) {
					convert(v, typeOf(n.Lhs[i]))
				}
			}
		case *ast.ValueSpec:
			if n.Type != nil {
				for _, v := range values(n.Values) {
					convert(v, typeOf(n.Type))
				}
			}
		case *ast.ReturnStmt:
			if s := sigs[len(sigs)-1]; s != nil {
				for i, v := range values(n.Results) {
					if i < s.Results().Len() {
						convert(v, s.Results().At(i).Type())
					}
				}
			}
		case *ast.TypeAssertExpr:
			assert(typeOf(n.Type))
		case *ast.TypeSwitchStmt:
			for _, cl := range n.Body.List {
				for _, e := range cl.(*ast.CaseClause).List {
					assert(typeOf(e))
				}
			}
		case *ast.SendStmt:
			if ch, ok := under(typeOf(n.Chan)).(*types.Chan); ok {
				convert(typeOf(n.Value), ch.Elem())
			}
		case *ast.IndexExpr:
			if m, ok := under(typeOf(n.X)).(*types.Map); ok {
				convert(typeOf(n.Index), m.Key())
			}
		case *ast.CompositeLit:
			t := under(typeOf(n))
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem().Underlying()
			}
			for i, e := range n.Elts {
				kv, _ := e.(*ast.KeyValueExpr)
				v := e
				if kv != nil {
					v = kv.Value
				}
				switch t := t.(type) {
				case *types.Struct:
					if kv == nil && i < t.NumFields() {
						convert(typeOf(v), t.Field(i).Type())
					} else if kv != nil {
						key, _ := kv.Key.(*ast.Ident)
						for j := 0; j < t.NumFields(); j++ {
							if key != nil && t.Field(j).Name() == key.Name {
								convert(typeOf(v), t.Field(j).Type())
							}
						}
					}
				case *types.Slice:
					convert(typeOf(v), t.Elem())
				case *types.Array:
					convert(typeOf(v), t.Elem())
				case *types.Map:
					if kv != nil {
						convert(typeOf(kv.Key), t.Key())
					}
					convert(typeOf(v), t.Elem())
				}
			}
		}
		return true
	})
}

func under(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	return t.Underlying()
}

// otherPlatforms are the build contexts besides the host whose file
// selections the gate also checks: the other of amd64 and arm64 (assembly
// bodies) and a non-unix GOOS.
func otherPlatforms() []build.Context {
	var out []build.Context
	for _, p := range [][2]string{{runtime.GOOS, "amd64"}, {runtime.GOOS, "arm64"}, {"windows", "amd64"}} {
		ctxt := build.Default
		ctxt.GOOS, ctxt.GOARCH = p[0], p[1]
		out = append(out, ctxt)
	}
	return out
}

// goPackage is the part of `go list -json` output the gate reads.
type goPackage struct {
	ImportPath, Dir, Name, ForTest, Export string
	Standard                               bool
	Module                                 *struct {
		Path string
		Main bool
	}
	GoFiles, IgnoredGoFiles, TestGoFiles, XTestGoFiles, TestImports, XTestImports []string
}

// goList lists the packages of the module in dir and their dependencies,
// with export data; tests adds the test-only dependencies.
func goList(dir string, tests bool) ([]goPackage, error) {
	args := []string{"list", "-deps", "-export", "-json"}
	if tests {
		args = append(args, "-test")
	}
	cmd := exec.Command("go", append(args, "./...")...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []goPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p goPackage
		if err := dec.Decode(&p); err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// nestedModules is root followed by the directory of every go.mod below it.
func nestedModules(root string) ([]string, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	mods := []string{root}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if !d.IsDir() && d.Name() == "go.mod" && filepath.Dir(path) != root {
			mods = append(mods, filepath.Dir(path))
		}
		return nil
	})
	return mods, err
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
