// Package analysis is a small, dependency-free static-analysis framework
// in the spirit of golang.org/x/tools/go/analysis, built on the standard
// library only (the container has no module proxy access, so x/tools
// itself is unavailable). It provides the Analyzer/Pass/Diagnostic model,
// a package loader backed by `go list -export`, and the
// `//vrlint:allow <pass>` suppression-annotation mechanism shared by every
// vrlint pass.
//
// The simulator-specific passes live in the subpackages simdet, panicfree,
// cyclesafe, cfgflow, exhaustive (per-package) and observe (module-scope);
// cmd/vrlint assembles them into a multichecker.
// Each invariant they encode — and why determinism is load-bearing for the
// EXPERIMENTS.md shape comparisons — is documented in DESIGN.md under
// "Static invariants".
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static-analysis pass: a named invariant
// checker that inspects a type-checked package and reports diagnostics.
type Analyzer struct {
	// Name identifies the pass in diagnostics and in
	// `//vrlint:allow <name>` suppression annotations. It must be a
	// valid identifier.
	Name string

	// Doc is a one-paragraph description of the invariant the pass
	// enforces.
	Doc string

	// Scope, when non-nil, restricts which packages the driver applies
	// the pass to (by import path). Passes whose invariants only bind
	// inside the deterministic simulator core (e.g. simdet) use this to
	// skip tooling packages. The analysistest harness runs passes
	// directly and does not consult Scope; drivers must.
	Scope func(pkgPath string) bool

	// Run inspects one package and reports findings via pass.Reportf.
	Run func(pass *Pass) error
}

// A Pass carries one type-checked package through an Analyzer.Run.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags []Diagnostic
}

// A Diagnostic is one finding, positioned in the file set of the pass
// that produced it.
type Diagnostic struct {
	Analyzer string
	Pos      token.Pos
	Position token.Position
	Message  string
	// Suppressed marks findings silenced by a //vrlint:allow annotation.
	// RunAnalyzer drops them; AllDiagnostics() keeps them flagged, which
	// is how `vrlint -json` reports the suppression inventory.
	Suppressed bool
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Position, d.Message, d.Analyzer)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      pos,
		Position: p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// AllDiagnostics returns every finding, including suppressed ones (with
// Suppressed set), sorted by position.
func (p *Pass) AllDiagnostics() []Diagnostic {
	return markSuppressed(p.Fset, p.Files, p.diags)
}

// markSuppressed resolves //vrlint:allow coverage over files and returns
// the diagnostics sorted by position with Suppressed set where covered.
func markSuppressed(fset *token.FileSet, files []*ast.File, diags []Diagnostic) []Diagnostic {
	sup := newSuppressions(fset, files)
	out := make([]Diagnostic, 0, len(diags))
	for _, d := range diags {
		d.Suppressed = sup.covers(d.Analyzer, d.Pos)
		out = append(out, d)
	}
	sortDiagnostics(out)
	return out
}

func dropSuppressed(diags []Diagnostic) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if !d.Suppressed {
			out = append(out, d)
		}
	}
	return out
}

func sortDiagnostics(out []Diagnostic) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Position, out[j].Position
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return out[i].Message < out[j].Message
	})
}

// RunAnalyzer applies one analyzer to one loaded package and returns its
// unsuppressed diagnostics. The caller is responsible for honoring
// a.Scope.
func RunAnalyzer(a *Analyzer, pkg *Package) ([]Diagnostic, error) {
	diags, err := RunAnalyzerAll(a, pkg)
	return dropSuppressed(diags), err
}

// RunAnalyzerAll is RunAnalyzer keeping suppressed findings (flagged via
// Diagnostic.Suppressed), for drivers that report the suppression
// inventory.
func RunAnalyzerAll(a *Analyzer, pkg *Package) ([]Diagnostic, error) {
	pass := &Pass{
		Analyzer: a,
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.PkgPath, err)
	}
	return pass.AllDiagnostics(), nil
}

// AllowPrefix introduces a suppression annotation. The full syntax is
//
//	//vrlint:allow pass1,pass2 -- reason
//
// The pass list names the analyzers being silenced ("all" silences every
// pass); everything after an optional "--" is a human-readable
// justification. The annotation covers:
//
//   - the source line it sits on, and the line directly below it
//     (i.e. it works both as a trailing comment and as a leading one);
//   - the whole function, when written in (or directly above) a function
//     declaration's doc comment;
//   - the whole declaration, when attached to a package-level var/const
//     declaration.
const AllowPrefix = "//vrlint:allow"

// suppressions indexes every //vrlint:allow annotation in a package.
type suppressions struct {
	fset *token.FileSet
	// byLine maps file -> line -> the analyzer names of the annotations
	// covering the line.
	byLine map[string]map[int]map[string]bool
	files  []*ast.File
}

// ParseAllow extracts the analyzer names from one comment, or nil if the
// comment is not an allow annotation.
func ParseAllow(text string) []string {
	if !strings.HasPrefix(text, AllowPrefix) {
		return nil
	}
	rest := strings.TrimPrefix(text, AllowPrefix)
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return nil // e.g. //vrlint:allowed — not ours
	}
	if i := strings.Index(rest, "--"); i >= 0 {
		rest = rest[:i] // the justification is for human review
	}
	return strings.FieldsFunc(rest, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' })
}

func newSuppressions(fset *token.FileSet, files []*ast.File) *suppressions {
	s := &suppressions{fset: fset, byLine: map[string]map[int]map[string]bool{}, files: files}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				names := ParseAllow(c.Text)
				if len(names) == 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				lines := s.byLine[pos.Filename]
				if lines == nil {
					lines = map[int]map[string]bool{}
					s.byLine[pos.Filename] = lines
				}
				// The annotation covers its own line and the next one, so
				// it works both trailing a statement and leading it.
				for _, ln := range []int{pos.Line, pos.Line + 1} {
					set := lines[ln]
					if set == nil {
						set = map[string]bool{}
						lines[ln] = set
					}
					for _, n := range names {
						set[n] = true
					}
				}
			}
		}
	}
	return s
}

// lineAllows reports whether an annotation covering (filename, line)
// names the analyzer, or "all".
func (s *suppressions) lineAllows(name, filename string, line int) bool {
	set := s.byLine[filename][line]
	return set[name] || set["all"]
}

// covers reports whether a diagnostic from the named analyzer at pos is
// silenced: by a line annotation at/above the finding, by one in the doc
// comment of the enclosing function, or by one attached to the enclosing
// package-level declaration.
func (s *suppressions) covers(name string, pos token.Pos) bool {
	p := s.fset.Position(pos)
	if s.lineAllows(name, p.Filename, p.Line) {
		return true
	}
	for _, f := range s.files {
		if f.Pos() > pos || f.End() < pos {
			continue
		}
		for _, decl := range f.Decls {
			start, end := decl.Pos(), decl.End()
			var doc *ast.CommentGroup
			switch d := decl.(type) {
			case *ast.FuncDecl:
				doc = d.Doc
			case *ast.GenDecl:
				doc = d.Doc
			}
			if doc != nil && doc.Pos() < start {
				start = doc.Pos()
			}
			if pos < start || pos > end {
				continue
			}
			dp := s.fset.Position(decl.Pos())
			// An annotation anywhere in the declaration's doc comment, or
			// on the line just above the declaration, covers all of it.
			if s.lineAllows(name, dp.Filename, dp.Line) {
				return true
			}
			if doc != nil {
				for ln := s.fset.Position(doc.Pos()).Line; ln <= s.fset.Position(doc.End()).Line; ln++ {
					if s.lineAllows(name, dp.Filename, ln) {
						return true
					}
				}
			}
			return false
		}
	}
	return false
}
