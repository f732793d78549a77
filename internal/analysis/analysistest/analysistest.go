// Package analysistest runs a pando-vet analyzer over GOPATH-style
// testdata packages and diffs its diagnostics against expectations
// embedded in the sources, mirroring x/tools' analysistest so suites
// written here port to the upstream harness unchanged in spirit.
//
// Layout: each analyzer package holds testdata/src/<pkg>/*.go trees.
// Fixtures import only the standard library, which resolves through
// compiler export data.
//
// Expectations are `// want` comments carrying one or more regular
// expressions, quoted or backquoted:
//
//	h.out <- v // want `blocking channel send while h.mu is held`
//
// A want comment on a line with code applies to that line. A want
// comment standing alone applies to the next line — the same adjacency
// rule //pando: directives use — which is how a diagnostic anchored to
// a directive comment itself (a reason-less suppression) is asserted.
// Every diagnostic must be matched by a want and every want must match
// a diagnostic, or the test fails.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"pando/internal/analysis"
)

// Run loads each named package from <caller>/testdata/src/<name>, runs
// the analyzer over it, and reports every mismatch between produced
// diagnostics and // want expectations.
func Run(t *testing.T, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatalf("analysistest: getwd: %v", err)
	}
	root := filepath.Join(wd, "testdata", "src")
	ld := analysis.NewLoader(root)
	for _, name := range pkgs {
		pkg, err := load(ld, name, filepath.Join(root, filepath.FromSlash(name)))
		if err != nil {
			t.Fatalf("analysistest: load %s: %v", name, err)
		}
		diags, err := analysis.Run(pkg, []*analysis.Analyzer{a})
		if err != nil {
			t.Fatalf("analysistest: run %s on %s: %v", a.Name, name, err)
		}
		check(t, pkg, diags)
	}
}

// load parses and type-checks one testdata directory. Type errors are
// fatal: fixtures must be valid Go, or the analyzers see half-filled
// type information and the suite proves nothing.
func load(ld *analysis.Loader, path, dir string) (*analysis.Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	fset := ld.Fset()
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: ld}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", path, err)
	}
	return &analysis.Package{Path: path, Dir: dir, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}

// expectation is one parsed want regexp, anchored to a file and line.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
	used bool
}

// check diffs diagnostics against the package's want comments.
func check(t *testing.T, pkg *analysis.Package, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.Files {
		wants = append(wants, parseWants(t, pkg.Fset, f)...)
	}
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if w.used || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.used {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.raw)
		}
	}
}

// wantPatterns matches the quoted and backquoted regexp tokens of one
// want comment.
var wantPatterns = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

// parseWants extracts the file's want expectations. The adjacency rule
// matches directives: a want comment sharing a line with code asserts
// on that line; a standalone one asserts on the line below it.
func parseWants(t *testing.T, fset *token.FileSet, f *ast.File) []*expectation {
	t.Helper()
	codeLines := map[int]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case nil, *ast.Comment, *ast.CommentGroup, *ast.File:
			return true
		default:
			codeLines[fset.Position(n.Pos()).Line] = true
			return true
		}
	})
	var out []*expectation
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if !strings.HasPrefix(text, "want ") {
				continue
			}
			pos := fset.Position(c.Pos())
			line := pos.Line
			if !codeLines[line] {
				line++
			}
			toks := wantPatterns.FindAllString(text[len("want "):], -1)
			if len(toks) == 0 {
				t.Errorf("%s:%d: want comment with no quoted pattern", pos.Filename, pos.Line)
				continue
			}
			for _, tok := range toks {
				var pat string
				if tok[0] == '`' {
					pat = tok[1 : len(tok)-1]
				} else {
					var err error
					pat, err = strconv.Unquote(tok)
					if err != nil {
						t.Errorf("%s:%d: bad want pattern %s: %v", pos.Filename, pos.Line, tok, err)
						continue
					}
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Errorf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
					continue
				}
				out = append(out, &expectation{file: pos.Filename, line: line, re: re, raw: pat})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].line < out[j].line })
	return out
}
