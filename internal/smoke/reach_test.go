package smoke

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// publicAPI holds the packages whose exports are the module's API: the
// reachability test links every exported function of theirs and every
// exported method declared on their exported types, aliases included,
// as roots.
var publicAPI = []string{"dtr", "dtr/dist", "dtr/dist/fit", "dtr/modelspec"}

// unlinked is what may stay although no binary links it, each entry
// with its reason. A key names a whole package ("internal/markov") or
// one function or method as the linker spells it without the module
// path ("internal/obs.(*Span).TraceID").
var unlinked = map[string]string{
	"internal/markov": "the exact-CTMC oracle that internal/direct's and internal/sim's " +
		"tests hold the production evaluators to",
	"internal/policy.Optimize2Regen": "the regeneration-solver search the tests hold Optimize2 to",
	"internal/adapt.(*Controller).Fitted": "reads the fitted spec under the controller's lock; " +
		"the adapt tests check a decision against it",
	"internal/cluster.(*Cluster).Members": "reads the ring membership under the cluster's lock " +
		"for the cluster and serve tests",
	"internal/cluster.(*Cluster).Alive": "reads the probed liveness under the cluster's lock " +
		"for the cluster and serve tests",
	"internal/gridfn.(*Lattice).Clone": "copies a lattice's private layout for the gridfn and " +
		"direct tests that compare a fold with its inputs",
	"internal/gridfn.(*Lattice).Mass": "sums a lattice's private layout for the mass checks of " +
		"the gridfn and direct tests",
	"internal/ingest.(*Aggregator).Tenants": "lists tenants under the aggregator's lock for the " +
		"ingest tests",
	"internal/obs.(*Histogram).Count": "reads the histogram's atomic count for the obs tests",
	"internal/obs.(*LazyCounter).Value": "reads a lazy counter through its binding for the " +
		"tests of the packages that own one",
	"internal/obs.(*Span).TraceID": "reads the span's private identity for the span and " +
		"traceparent tests",
	"internal/obs.(*Span).SpanID": "reads the span's private identity for the span and " +
		"traceparent tests",
}

// listed is what go list reports of one package.
type listed struct {
	ImportPath, Name, Dir string
	GoFiles               []string
}

// TestReachable fails on a function or method outside the public API
// that no binary links and the allowlist does not name. Every main
// package is built, with a roots package that references the whole
// public API, without inlining in this module; a candidate is linked
// if some binary's symbol table holds it.
func TestReachable(t *testing.T) {
	openSources(t)
	pkgs := goList(t)
	var mains []string
	byPath := map[string]listed{}
	for _, p := range pkgs {
		byPath[p.ImportPath] = p
		if p.Name == "main" {
			mains = append(mains, p.ImportPath)
		}
	}

	// The roots package exists only in an overlay, so nothing is
	// written into the repository.
	dir := t.TempDir()
	src, overlay := filepath.Join(dir, "roots.go"), filepath.Join(dir, "overlay.json")
	abs, err := filepath.Abs(filepath.Join(root, "internal", "smoke", "roots", "roots.go"))
	if err != nil {
		t.Fatal(err)
	}
	ov, _ := json.Marshal(map[string]any{"Replace": map[string]string{abs: src}})
	if err := os.WriteFile(src, rootsSource(t, byPath), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(overlay, ov, 0o644); err != nil {
		t.Fatal(err)
	}
	bin := goBuild(t, []string{"-overlay", overlay, "-gcflags=dtr/...=-l"}, append(mains, "dtr/internal/smoke/roots")...)

	linked := map[string]bool{}
	entries, err := os.ReadDir(bin)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		out, err := goCmd("tool", "nm", filepath.Join(bin, e.Name())).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", e.Name(), err)
		}
		for _, line := range strings.Split(string(out), "\n") {
			// address, kind, name; a shape type in a name holds spaces.
			if f := strings.Fields(line); len(f) >= 3 && (f[1] == "T" || f[1] == "t") {
				linked[stripBrackets(strings.Join(f[2:], " "))] = true
			}
		}
	}

	used := map[string]bool{}
	var dead []string
	for _, p := range pkgs {
		if p.Name == "main" || slices.Contains(publicAPI, p.ImportPath) || p.ImportPath == "dtr/internal/testutil" {
			continue
		}
		short := strings.TrimPrefix(p.ImportPath, "dtr/")
		for _, fn := range funcs(t, p) {
			if fn.linked(p.ImportPath, linked) {
				continue
			}
			name := short + "." + fn.sym
			switch {
			case unlinked[name] != "":
				used[name] = true
			case unlinked[short] != "":
				used[short] = true
			default:
				dead = append(dead, name)
			}
		}
	}
	for _, name := range dead {
		t.Errorf("%s is linked by no binary: delete it, move it into its tests, or allowlist it with a reason", name)
	}
	for name := range unlinked {
		if !used[name] {
			t.Errorf("allowlist entry %s names nothing unlinked: remove it", name)
		}
	}
}

// goList reports every package of the module.
func goList(t *testing.T) []listed {
	t.Helper()
	out, err := goCmd("list", "-json=ImportPath,Name,Dir,GoFiles", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	var pkgs []listed
	for dec := json.NewDecoder(strings.NewReader(string(out))); ; {
		var p listed
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs
		} else if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
}

// parse parses the non-test sources of p.
func parse(t *testing.T, p listed) []*ast.File {
	t.Helper()
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return files
}

// fn is a function or method with a body, spelled as the linker spells
// it after the package path: F, T.M or (*T).M.
type fn struct {
	sym, recv, name string
	ptr             bool
}

// linked reports whether a binary holds fn; a value method counts as
// linked through its pointer wrapper too.
func (f fn) linked(path string, syms map[string]bool) bool {
	return syms[path+"."+f.sym] || (f.recv != "" && !f.ptr && syms[path+".(*"+f.recv+")."+f.name])
}

// funcs lists the functions and methods declared in p, except init and
// the body-less ones (assembly).
func funcs(t *testing.T, p listed) []fn {
	var out []fn
	for _, f := range parse(t, p) {
		for _, d := range f.Decls {
			d, ok := d.(*ast.FuncDecl)
			if !ok || d.Body == nil || d.Name.Name == "init" || d.Name.Name == "_" {
				continue
			}
			out = append(out, declared(d))
		}
	}
	return out
}

// declared names the function d declares.
func declared(d *ast.FuncDecl) fn {
	f := fn{sym: d.Name.Name, name: d.Name.Name}
	if d.Recv == nil {
		return f
	}
	typ := d.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ, f.ptr = star.X, true
	}
	switch x := typ.(type) {
	case *ast.IndexExpr:
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	f.recv = typ.(*ast.Ident).Name
	if f.ptr {
		f.sym = "(*" + f.recv + ")." + f.name
	} else {
		f.sym = f.recv + "." + f.name
	}
	return f
}

// rootsSource writes a main package that references every exported
// function of the public packages and every exported method declared on
// their exported types; an alias's methods are those of the type it
// names. Generic declarations are skipped: they have no value to
// reference uninstantiated.
func rootsSource(t *testing.T, byPath map[string]listed) []byte {
	var b strings.Builder
	b.WriteString("package main\n\nimport (\n")
	for i, path := range publicAPI {
		fmt.Fprintf(&b, "\tp%d %q\n", i, path)
	}
	b.WriteString(")\n\nvar roots = []any{\n")
	for i, path := range publicAPI {
		p := byPath[path]
		methods := exportedMethods(t, p)
		for _, f := range parse(t, p) {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && d.Name.IsExported() && d.Type.TypeParams == nil {
						fmt.Fprintf(&b, "\tp%d.%s,\n", i, d.Name.Name)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						s, ok := s.(*ast.TypeSpec)
						if !ok || !s.Name.IsExported() || s.TypeParams != nil {
							continue
						}
						ms := methods[s.Name.Name]
						if s.Assign.IsValid() {
							ms = aliasMethods(t, f, s.Type, byPath, methods)
						}
						for _, m := range ms {
							fmt.Fprintf(&b, "\t(*p%d.%s).%s,\n", i, s.Name.Name, m)
						}
					}
				}
			}
		}
	}
	b.WriteString("}\n\nfunc main() { println(len(roots)) }\n")
	return []byte(b.String())
}

// exportedMethods maps each type of p to its exported methods.
func exportedMethods(t *testing.T, p listed) map[string][]string {
	out := map[string][]string{}
	for _, f := range funcs(t, p) {
		if f.recv != "" && ast.IsExported(f.name) {
			out[f.recv] = append(out[f.recv], f.name)
		}
	}
	return out
}

// aliasMethods lists the exported methods of the type an alias in file
// f names: a type of the same package (local) or of a package f imports
// (none for a package outside the module).
func aliasMethods(t *testing.T, f *ast.File, typ ast.Expr, byPath map[string]listed, local map[string][]string) []string {
	switch x := typ.(type) {
	case *ast.Ident:
		return local[x.Name]
	case *ast.SelectorExpr:
		pkg := x.X.(*ast.Ident).Name
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			name := path[strings.LastIndex(path, "/")+1:]
			if p, ok := byPath[path]; ok {
				name = p.Name
			}
			if imp.Name != nil {
				name = imp.Name.Name
			}
			if name == pkg {
				return exportedMethods(t, byPath[path])[x.Sel.Name]
			}
		}
		t.Fatalf("alias of %s.%s: no import names %s", pkg, x.Sel.Name, pkg)
	}
	return nil
}

// stripBrackets drops the type arguments the linker prints inside
// square brackets: direct.(*cell[go.shape.float64]).get → direct.(*cell).get.
func stripBrackets(sym string) string {
	if !strings.Contains(sym, "[") {
		return sym
	}
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}
