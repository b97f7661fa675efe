package repro_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// implicitMethods are method names the standard library calls through an
// interface (fmt, sort, io, encoding/json, net/http, errors, math/rand),
// so no source file need spell them at a call site.
var implicitMethods = map[string]bool{
	"String": true, "Error": true, "Format": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"Len": true, "Less": true, "Swap": true,
	"Read": true, "Write": true, "Close": true,
	"ServeHTTP": true, "Unwrap": true,
	"Int63": true, "Uint64": true, "Seed": true,
}

// testOnlyAllowed names the declarations (or whole packages, by
// directory) kept although no production file reaches them.
var testOnlyAllowed = map[string]string{
	"internal/noc.(*Network).CheckInvariants": "the structural reference the engine tests assert after every step",
	"internal/freelist.(*List).Flush":         "the cold path the fabric and injector-slab reuse tests compare the warm one against",
	"internal/queueing":                       "the analytic M/M/1 model; ROADMAP gives it claims to check",
}

// modulePath is the import path of the repository root; bench/ is a
// module of its own under the same prefix.
const modulePath = "repro"

// TestNoTestOnlyExports lists every exported function, method and type
// declared in a non-test file under internal/ that no non-test Go file
// in the repository (bench/, cmd/, examples/ and nocsim/ included)
// references. The files are type-checked, so a reference is to one
// object, not to a name: a name two packages share cannot hide either.
// A reference counts only from a declaration that is itself reached, so
// a helper used only by another test-only helper is listed too.
func TestNoTestOnlyExports(t *testing.T) {
	decls, err := loadDecls(".")
	if err != nil {
		t.Fatal(err)
	}
	var found []string
	for _, d := range unreached(decls) {
		if !d.obj.Exported() || d.kind == "var" || allowedTestOnly(d) {
			continue
		}
		found = append(found, d.key)
	}
	sort.Strings(found)
	for _, k := range found {
		t.Errorf("%s: declared for tests only; delete it, or move it into a _test.go file", k)
	}
}

type decl struct {
	key  string // "internal/noc.(*Network).Step"
	dir  string // "internal/noc"
	kind string // "func", "type" or "var"
	obj  types.Object
	root bool                  // reached whatever else is: outside internal/, init, main, "_"
	refs map[types.Object]bool // package-level objects of the repository its body uses
}

// loader type-checks the repository's packages from source, each once,
// so every package sees the same object for a declaration.
type loader struct {
	fset  *token.FileSet
	files map[string][]*ast.File // by import path
	pkgs  map[string]*types.Package
	info  *types.Info
	std   types.Importer
}

func (l *loader) Import(p string) (*types.Package, error) {
	if pkg, ok := l.pkgs[p]; ok {
		return pkg, nil
	}
	files, ok := l.files[p]
	if !ok {
		return l.std.Import(p)
	}
	pkg, err := (&types.Config{Importer: l}).Check(p, l.fset, files, l.info)
	l.pkgs[p] = pkg
	return pkg, err
}

// loadDecls parses every non-test .go file under root, skipping hidden
// directories and testdata, type-checks the packages, and returns their
// top-level declarations.
func loadDecls(root string) ([]*decl, error) {
	l := &loader{
		fset:  token.NewFileSet(),
		files: make(map[string][]*ast.File),
		pkgs:  make(map[string]*types.Package),
		info:  &types.Info{Defs: make(map[*ast.Ident]types.Object), Uses: make(map[*ast.Ident]types.Object)},
	}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	err := filepath.WalkDir(root, func(p string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if p != root && (strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(l.fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ip := path.Join(modulePath, filepath.ToSlash(filepath.Dir(p)))
		l.files[ip] = append(l.files[ip], f)
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []*decl
	for ip, files := range l.files {
		if _, err := l.Import(ip); err != nil {
			return nil, err
		}
		dir := strings.TrimPrefix(strings.TrimPrefix(ip, modulePath), "/")
		for _, f := range files {
			for _, d := range f.Decls {
				out = append(out, l.fileDecls(d, dir)...)
			}
		}
	}
	return out, nil
}

func (l *loader) fileDecls(d ast.Decl, dir string) []*decl {
	mk := func(name *ast.Ident, recv, kind string, node ast.Node) *decl {
		obj := l.info.Defs[name]
		if obj == nil { // "_"
			obj = types.NewVar(name.Pos(), nil, name.Name, nil)
		}
		x := &decl{dir: dir, kind: kind, obj: obj,
			root: !strings.HasPrefix(dir, "internal/") || name.Name == "_" || name.Name == "init" || name.Name == "main",
			refs: l.objectsUsedIn(node)}
		x.key = dir + "." + name.Name
		if recv != "" {
			x.key = dir + ".(" + recv + ")." + name.Name
		}
		return x
	}
	switch d := d.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil {
			return []*decl{mk(d.Name, "", "func", d)}
		}
		return []*decl{mk(d.Name, recvString(d.Recv.List[0].Type), "func", d)}
	case *ast.GenDecl:
		var out []*decl
		for _, s := range d.Specs {
			switch s := s.(type) {
			case *ast.TypeSpec:
				out = append(out, mk(s.Name, "", "type", s))
			case *ast.ValueSpec:
				for _, n := range s.Names {
					out = append(out, mk(n, "", "var", s))
				}
			}
		}
		return out
	}
	return nil
}

// objectsUsedIn returns the package-level objects of the repository —
// functions, methods, types, variables and constants — that identifiers
// under n refer to, generic instances mapped to their origin.
func (l *loader) objectsUsedIn(n ast.Node) map[types.Object]bool {
	refs := make(map[types.Object]bool)
	ast.Inspect(n, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := l.info.Uses[id]
		if obj == nil || obj.Pkg() == nil || l.pkgs[obj.Pkg().Path()] == nil {
			return true
		}
		if f, ok := obj.(*types.Func); ok {
			obj = f.Origin()
		}
		if isMethod(obj) || obj.Parent() == obj.Pkg().Scope() {
			refs[obj] = true
		}
		return true
	})
	return refs
}

// isMethod reports whether obj is a method, concrete or of an interface.
func isMethod(obj types.Object) bool {
	f, ok := obj.(*types.Func)
	return ok && f.Type().(*types.Signature).Recv() != nil
}

// unreached returns the declarations no reached declaration uses. A
// method is also reached, once its receiver type is, when the standard
// library calls it or a reached interface type that the receiver
// implements requires it.
func unreached(decls []*decl) []*decl {
	reached := make(map[*decl]bool)
	used := make(map[types.Object]bool)
	var ifaces []*types.Interface // interface types reached so far
	mark := func(d *decl) {
		reached[d] = true
		used[d.obj] = true
		for r := range d.refs {
			if used[r] {
				continue
			}
			used[r] = true
			if tn, ok := r.(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, it)
				}
			}
		}
	}
	for _, d := range decls {
		if d.root || allowedTestOnly(d) {
			mark(d)
		}
	}
	for changed := true; changed; {
		changed = false
		for _, d := range decls {
			if reached[d] {
				continue
			}
			ok := used[d.obj]
			if !ok && isMethod(d.obj) {
				ok = implicitlyCalled(d.obj.(*types.Func), used, ifaces)
			}
			if ok {
				mark(d)
				changed = true
			}
		}
	}
	var out []*decl
	for _, d := range decls {
		if !reached[d] {
			out = append(out, d)
		}
	}
	return out
}

// implicitlyCalled reports whether a concrete method of a reached type is
// called without being named: by the standard library, or through one of
// the reached interfaces its receiver type implements.
func implicitlyCalled(m *types.Func, used map[types.Object]bool, ifaces []*types.Interface) bool {
	recv := m.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || !used[named.Obj()] {
		return false
	}
	if implicitMethods[m.Name()] {
		return true
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == m.Name() &&
				(types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
				return true
			}
		}
	}
	return false
}

func allowedTestOnly(d *decl) bool {
	_, ok := testOnlyAllowed[d.key]
	_, pkg := testOnlyAllowed[d.dir]
	return ok || pkg
}

// recvString renders a receiver type as "T" or "*T", dropping type
// parameters.
func recvString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return "*" + recvString(e.X)
	case *ast.IndexExpr:
		return recvString(e.X)
	case *ast.IndexListExpr:
		return recvString(e.X)
	case *ast.Ident:
		return e.Name
	}
	return ""
}
