package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestUnreached holds the repository's reachability rule (TESTING.md,
// Tier 5): code under internal/ stays only if a command, an example, the
// public API, the paper's evaluation or the benchmark module reaches it.
// It parses every .go file of the root module and of benchmark/ — no type
// checking, no go list — and fails on any exported package-level func,
// type, var or const under internal/ that no non-test file references
// outside its own declaration. An exported method counts as reached when
// any non-test selector anywhere carries its name, which over-approximates
// interface dispatch and so raises no false alarm.
func TestUnreached(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	u := newUniverse(t, root)
	var problems []string
	allowed := map[string]bool{}
	for _, d := range u.decls {
		_, listed := unreachedAllow[d.key]
		switch {
		case u.reached(d):
		case listed:
			allowed[d.key] = true
		default:
			problems = append(problems, fmt.Sprintf("%s: %s is exported but no non-test code reaches it: delete it, unexport it, or allow-list it",
				u.fset.Position(d.pos), d.key))
		}
	}
	for name := range unreachedAllow {
		if !allowed[name] {
			problems = append(problems, fmt.Sprintf("allow-list entry %s names no unreached export: drop it", name))
		}
	}
	sort.Strings(problems)
	for _, p := range problems {
		t.Error(p)
	}
}

// unreachedExempt lists the packages (paths below internal/) whose exports
// the rule does not check: test support by design (chaos, race) and the
// paper's application kernels.
var unreachedExempt = []string{
	"chaos", "race",
	"apps", "chain", "landsat", "qlearn", "stubborn",
}

// unreachedAllow names exports that only tests reach but that must live
// in a product file, because a test in another package needs them. Each
// entry names that test, or the interface call that reaches a method no
// selector names. An entry whose export is reached, or gone, fails the
// test: the list holds only what it must.
var unreachedAllow = map[string]string{
	"analysis.Loader.Import":       "go/types, through types.Config.Importer: an interface call that no selector names",
	"analysis/analysistest.Run":    "ctxguard: TestCtxguard; locksend: TestLocksend",
	"master.Master.LenderStats":    "pando: Diagnostics (export_test.go), the chaos tests' wedge evidence",
	"proto.SetPoisonPut":           "transport: TestHelloRejectionReleasesWelcome",
	"proto.SetReleaseObserver":     "transport: TestHelloRejectionReleasesWelcome, TestDuplexReleasesEveryFrame",
	"transport.SignalServer.Peers": "pando: TestChaosSignalFlap",
	"worker.ServeWithReconnect":    "pando: TestChaosSignalFlap; master: TestReattachDoesNotInheritStaleFlowState",
}

// An exportedDecl is one exported package-level declaration under
// internal/, or an exported method declared there.
type exportedDecl struct {
	dir  string // package directory, relative to the root
	pkg  string // dir without the internal/ prefix
	recv string // receiver type name, for a method
	name string
	key  string // pkg.name or pkg.recv.name, as the allow-list spells it
	pos  token.Pos
	end  token.Pos // the declaration's extent, self-references excluded
}

// A universe is every parsed file of the root module and benchmark/.
type universe struct {
	fset  *token.FileSet
	decls []exportedDecl
	// idents: per package directory, the positions of every bare
	// identifier in its non-test files, by name.
	idents map[string]map[string][]token.Pos
	// qualified: "importpath.Name" -> positions of pkg.Name selectors in
	// non-test files.
	qualified map[string][]token.Pos
	// selectors: every selector name in non-test files, for methods.
	selectors map[string][]token.Pos
}

func newUniverse(t *testing.T, root string) *universe {
	t.Helper()
	u := &universe{
		fset:      token.NewFileSet(),
		idents:    map[string]map[string][]token.Pos{},
		qualified: map[string][]token.Pos{},
		selectors: map[string][]token.Pos{},
	}
	const module = "pando"
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if n := e.Name(); path != root && (strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(u.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, filepath.Dir(path))
		rel = filepath.ToSlash(rel)
		u.collectDecls(f, rel)
		u.collectRefs(f, rel, module)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// collectDecls records the exported declarations of one file under
// internal/, skipping exempt packages.
func (u *universe) collectDecls(f *ast.File, dir string) {
	pkg, ok := strings.CutPrefix(dir, "internal/")
	if !ok {
		return
	}
	for _, ex := range unreachedExempt {
		if pkg == ex || strings.HasPrefix(pkg, ex+"/") {
			return
		}
	}
	add := func(recv string, id *ast.Ident, node ast.Node) {
		if !id.IsExported() {
			return
		}
		key := pkg + "." + id.Name
		if recv != "" {
			key = pkg + "." + recv + "." + id.Name
		}
		u.decls = append(u.decls, exportedDecl{dir: dir, pkg: pkg, recv: recv, name: id.Name, key: key, pos: node.Pos(), end: node.End()})
	}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			if decl.Recv == nil {
				add("", decl.Name, decl)
				continue
			}
			if recv := recvName(decl.Recv.List[0].Type); ast.IsExported(recv) {
				add(recv, decl.Name, decl)
			}
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					add("", spec.Name, spec)
				case *ast.ValueSpec:
					for _, id := range spec.Names {
						add("", id, spec)
					}
				}
			}
		}
	}
}

// recvName returns the type name of a method receiver, with pointers and
// type parameters stripped.
func recvName(e ast.Expr) string {
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
			return ""
		}
	}
}

// collectRefs records the references one non-test file makes: bare
// identifiers (same-package uses), selectors on an imported module
// package, and every selector name (method uses).
func (u *universe) collectRefs(f *ast.File, dir, module string) {
	imports := map[string]string{} // local name -> import path
	for _, is := range f.Imports {
		path := strings.Trim(is.Path.Value, `"`)
		if !strings.HasPrefix(path, module+"/") {
			continue
		}
		name := path[strings.LastIndex(path, "/")+1:]
		if is.Name != nil {
			name = is.Name.Name
		}
		imports[name] = path
	}
	local := u.idents[dir]
	if local == nil {
		local = map[string][]token.Pos{}
		u.idents[dir] = local
	}
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			local[n.Name] = append(local[n.Name], n.Pos())
		case *ast.SelectorExpr:
			u.selectors[n.Sel.Name] = append(u.selectors[n.Sel.Name], n.Sel.Pos())
			if x, ok := n.X.(*ast.Ident); ok {
				if path, ok := imports[x.Name]; ok {
					key := strings.TrimPrefix(path, module+"/") + "." + n.Sel.Name
					u.qualified[key] = append(u.qualified[key], n.Sel.Pos())
					return false
				}
			}
			ast.Inspect(n.X, visit)
			return false
		case *ast.FuncDecl: // the name declares, it does not refer
			if n.Recv != nil {
				ast.Inspect(n.Recv, visit)
			}
			ast.Inspect(n.Type, visit)
			if n.Body != nil {
				ast.Inspect(n.Body, visit)
			}
			return false
		case *ast.Field: // so do field, parameter and method names
			ast.Inspect(n.Type, visit)
			return false
		}
		return true
	}
	ast.Inspect(f, visit)
}

// reached reports whether any non-test reference to d lies outside d's
// own declaration.
func (u *universe) reached(d exportedDecl) bool {
	outside := func(ps []token.Pos) bool {
		for _, p := range ps {
			if p < d.pos || p >= d.end {
				return true
			}
		}
		return false
	}
	if d.recv != "" {
		return outside(u.selectors[d.name])
	}
	return outside(u.idents[d.dir][d.name]) || outside(u.qualified["internal/"+d.pkg+"."+d.name])
}
