package repro_test

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
	"internal/queueing":                       "the analytic M/M/1 model; ROADMAP gives it claims to check",
}

// TestNoTestOnlyExports lists every exported function, method and type
// declared in a non-test file under internal/ that no non-test Go file
// in the repository (bench/, cmd/, examples/ and nocsim/ included)
// references. A reference counts only from a declaration that is itself
// reached, so a helper used only by another test-only helper is listed
// too. Matching is by name, so a name two packages share counts as used:
// the list can only be too short.
func TestNoTestOnlyExports(t *testing.T) {
	decls, err := parseDecls(".")
	if err != nil {
		t.Fatal(err)
	}
	var found []string
	for _, d := range unreached(decls) {
		if !d.exported || d.kind == "var" || allowedTestOnly(d) {
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
	key      string // "internal/noc.(*Network).Step"
	dir      string // "internal/noc"
	name     string
	recv     string // receiver type name; "" for a function or type
	kind     string // "func", "type" or "var"
	exported bool
	root     bool            // reached whatever else is: outside internal/, init, main, "_"
	refs     map[string]bool // identifiers its body names
}

// parseDecls reads every top-level declaration of every non-test .go file
// under root, skipping hidden directories and testdata.
func parseDecls(root string) ([]*decl, error) {
	var out []*decl
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if path != root && (strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		scanned := strings.HasPrefix(dir, "internal/")
		for _, d := range f.Decls {
			out = append(out, fileDecls(d, dir, scanned)...)
		}
		return nil
	})
	return out, err
}

func fileDecls(d ast.Decl, dir string, scanned bool) []*decl {
	mk := func(name, recv, kind string, node ast.Node, skip ...*ast.Ident) *decl {
		x := &decl{dir: dir, name: name, recv: recv, kind: kind,
			exported: ast.IsExported(name),
			root:     !scanned || name == "_" || name == "init" || name == "main",
			refs:     identsIn(node, skip...)}
		x.key = dir + "." + name
		if recv != "" {
			x.key = dir + ".(" + recv + ")." + name
		}
		return x
	}
	switch d := d.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil {
			return []*decl{mk(d.Name.Name, "", "func", d, d.Name)}
		}
		recvType := d.Recv.List[0].Type
		// The receiver does not reach its own type: a type only its
		// methods name is unreached.
		x := mk(d.Name.Name, recvString(recvType), "func", d, append(identsList(recvType), d.Name)...)
		return []*decl{x}
	case *ast.GenDecl:
		var out []*decl
		for _, s := range d.Specs {
			switch s := s.(type) {
			case *ast.TypeSpec:
				out = append(out, mk(s.Name.Name, "", "type", s, s.Name))
			case *ast.ValueSpec:
				for _, n := range s.Names {
					out = append(out, mk(n.Name, "", "var", s, s.Names...))
				}
			}
		}
		return out
	}
	return nil
}

// unreached returns the declarations no reached declaration names. A
// method is reached only with its receiver type, and then when its name
// is named or the standard library calls it.
func unreached(decls []*decl) []*decl {
	reached := make(map[*decl]bool)
	named := make(map[string]bool)
	typeReached := make(map[string]bool) // dir + "." + type name
	mark := func(d *decl) {
		reached[d] = true
		for r := range d.refs {
			named[r] = true
		}
		if d.kind == "type" {
			typeReached[d.dir+"."+d.name] = true
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
			ok := named[d.name]
			if d.recv != "" {
				base := strings.TrimPrefix(d.recv, "*")
				ok = (ok || implicitMethods[d.name]) && typeReached[d.dir+"."+base]
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

func allowedTestOnly(d *decl) bool {
	_, ok := testOnlyAllowed[d.key]
	_, pkg := testOnlyAllowed[d.dir]
	return ok || pkg
}

// identsIn returns the names of the identifiers under n, less skip.
func identsIn(n ast.Node, skip ...*ast.Ident) map[string]bool {
	omit := make(map[*ast.Ident]bool, len(skip))
	for _, s := range skip {
		omit[s] = true
	}
	refs := make(map[string]bool)
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && !omit[id] {
			refs[id.Name] = true
		}
		return true
	})
	return refs
}

func identsList(n ast.Node) []*ast.Ident {
	var out []*ast.Ident
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			out = append(out, id)
		}
		return true
	})
	return out
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
