// Package analysis is pando-vet's analyzer framework: a small,
// dependency-free analogue of golang.org/x/tools/go/analysis built on
// the standard library's go/ast and go/types. It exists because two of
// the repo's correctness protocols — lock discipline and context-guarded
// goroutines — are conventions whose violations no test run reliably
// reaches; the analyzers in the sub-packages check them on every build.
//
// The shape mirrors x/tools deliberately (Analyzer, Pass, Reportf) so
// an analyzer written here ports to the upstream framework by swapping
// imports, and vice versa.
//
// # Directives
//
// Analyzers and the driver honor one //pando: directive comment:
//
//	//pando:allow <analyzer> <reason>
//	    On (or immediately above) an offending line: suppresses that
//	    analyzer's diagnostic. The reason is mandatory.
//
// A directive with a missing reason is itself a diagnostic, so every
// suppression in the tree documents why it is safe.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //pando:allow directives.
	Name string
	// Doc is the one-paragraph description printed by pando-vet -help.
	Doc string
	// Run applies the check to one package.
	Run func(*Pass) error
}

// A Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// A Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	directives []Directive
	diags      []Diagnostic
	suppressed int
}

// A Directive is one parsed //pando: comment.
type Directive struct {
	Pos  token.Pos
	Line int    // line the directive applies to (its own line)
	End  int    // last line the directive covers (Line, or Line+1 when standalone)
	Verb string // the word after //pando:, "allow" for a suppression
	Args string // rest of the comment, space-trimmed
}

// Reportf records a diagnostic at pos unless a directive suppresses it.
// Suppression: an "allow <analyzer> <reason>" directive on the same line
// as pos or standing alone on the line above it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	for _, d := range p.directives {
		if d.Verb != "allow" || position.Line < d.Line || position.Line > d.End {
			continue
		}
		name, rest, _ := strings.Cut(d.Args, " ")
		if name != p.Analyzer.Name {
			continue
		}
		if strings.TrimSpace(rest) == "" {
			p.diags = append(p.diags, Diagnostic{
				Pos:      p.Fset.Position(d.Pos),
				Analyzer: p.Analyzer.Name,
				Message:  fmt.Sprintf("suppression of %s without a reason (write //pando:%s <reason>)", p.Analyzer.Name, d.Verb),
			})
		}
		p.suppressed++
		return
	}
	p.diags = append(p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// parseDirective splits one comment into a //pando: verb and its args.
func parseDirective(text string) (verb, args string, ok bool) {
	const prefix = "//pando:"
	if !strings.HasPrefix(text, prefix) {
		return "", "", false
	}
	rest := strings.TrimPrefix(text, prefix)
	verb, args, _ = strings.Cut(rest, " ")
	return verb, strings.TrimSpace(args), verb != ""
}

// collectDirectives parses every //pando: comment of the files. A
// directive on a line of its own also covers the next line, so it can
// sit above the statement it annotates.
func collectDirectives(fset *token.FileSet, files []*ast.File) []Directive {
	var out []Directive
	for _, f := range files {
		// Map of lines that hold non-comment code, to decide whether a
		// directive stands alone on its line.
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
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				verb, args, ok := parseDirective(c.Text)
				if !ok {
					continue
				}
				line := fset.Position(c.Pos()).Line
				d := Directive{Pos: c.Pos(), Line: line, End: line, Verb: verb, Args: args}
				if !codeLines[line] {
					d.End = line + 1
				}
				out = append(out, d)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out
}

// Run applies each analyzer to the package, returning the surviving
// (unsuppressed) diagnostics sorted by position.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var out []Diagnostic
	dirs := collectDirectives(pkg.Fset, pkg.Files)
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:   a,
			Fset:       pkg.Fset,
			Files:      pkg.Files,
			Pkg:        pkg.Types,
			TypesInfo:  pkg.Info,
			directives: dirs,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
		out = append(out, pass.diags...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return out, nil
}
