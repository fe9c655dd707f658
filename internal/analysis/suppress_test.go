package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// suppressSrc pins the edge cases of //vrlint:allow coverage. Line
// numbers are load-bearing: see posAt callers below.
const suppressSrc = `package p

var before int

//vrlint:allow simdet -- justified: read-only table
var covered int

var wrongLine int

func f() {
	x := 1
	//vrlint:allow cyclesafe
	_ = x
	y := 2
	_ = y
}

//vrlint:allow panicfree -- constructor cannot recurse
func g() {
	_ = 3
}
`

func parseSuppressSrc(t *testing.T) (*token.FileSet, *ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "p.go", suppressSrc, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return fset, file
}

func posAt(t *testing.T, fset *token.FileSet, f *ast.File, line int) token.Pos {
	t.Helper()
	return fset.File(f.Pos()).LineStart(line)
}

func TestSuppressionCoverage(t *testing.T) {
	fset, file := parseSuppressSrc(t)
	sup := newSuppressions(fset, []*ast.File{file})

	cases := []struct {
		name string
		pass string
		line int
		want bool
	}{
		// The annotation covers its own line and the next one.
		{"annotation line itself", "simdet", 5, true},
		{"line below annotation", "simdet", 6, true},
		// Wrong line: two lines below the annotation is not covered.
		{"two lines below annotation", "simdet", 8, false},
		// An annotation without `--` justification text still parses and
		// suppresses; vrlint relies on review to demand the reason.
		{"no justification text", "cyclesafe", 13, true},
		// The pass name must match.
		{"wrong pass name", "simdet", 13, false},
		// Statement after the covered one is back in scope.
		{"statement past coverage", "cyclesafe", 15, false},
		// A doc-comment annotation covers the whole declaration.
		{"func doc comment, body line", "panicfree", 20, true},
		{"func doc comment, wrong pass", "simdet", 20, false},
	}
	for _, c := range cases {
		got := sup.covers(c.pass, posAt(t, fset, file, c.line))
		if got != c.want {
			t.Errorf("%s: covers(%q, line %d) = %v, want %v",
				c.name, c.pass, c.line, got, c.want)
		}
	}
}

// TestMarkSuppressed pins the split between AllDiagnostics (suppressed
// findings kept, flagged) and RunAnalyzer's filtered findings (dropped)
// that `vrlint -json` depends on.
func TestMarkSuppressed(t *testing.T) {
	fset, file := parseSuppressSrc(t)
	pass := &Pass{
		Analyzer: &Analyzer{Name: "simdet"},
		Fset:     fset,
		Files:    []*ast.File{file},
	}
	pass.Reportf(posAt(t, fset, file, 6), "finding on covered line")
	pass.Reportf(posAt(t, fset, file, 8), "finding on uncovered line")

	all := pass.AllDiagnostics()
	if len(all) != 2 {
		t.Fatalf("AllDiagnostics: got %d findings, want 2", len(all))
	}
	if !all[0].Suppressed {
		t.Errorf("finding on line 6 not marked suppressed: %v", all[0])
	}
	if all[1].Suppressed {
		t.Errorf("finding on line 8 wrongly suppressed: %v", all[1])
	}

	vis := dropSuppressed(all)
	if len(vis) != 1 || vis[0].Position.Line != 8 {
		t.Errorf("unsuppressed findings: got %v, want only the line-8 finding", vis)
	}
}

// TestModuleScopeSuppression pins the suppression path a module-scope
// pass such as observe takes: a ModulePass
// resolves //vrlint:allow annotations across the files of *every* loaded
// package, so an annotation in one package silences a finding the pass
// reported there even when the pass itself was driven from another
// package's analysis. The wrong-pass and justification-free edges behave
// exactly as in the per-package path.
func TestModuleScopeSuppression(t *testing.T) {
	const otherSrc = `package q

//vrlint:allow observe -- written once, before any observer runs
var scratch []int

var bare int
`
	fset := token.NewFileSet()
	pfile, err := parser.ParseFile(fset, "p.go", suppressSrc, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse p: %v", err)
	}
	qfile, err := parser.ParseFile(fset, "q.go", otherSrc, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse q: %v", err)
	}
	pass := &ModulePass{
		Analyzer: &ModuleAnalyzer{Name: "observe"},
		Fset:     fset,
		Pkgs: []*Package{
			{PkgPath: "vrsim/p", Fset: fset, Files: []*ast.File{pfile}},
			{PkgPath: "vrsim/q", Fset: fset, Files: []*ast.File{qfile}},
		},
	}
	lineStart := func(f *ast.File, line int) token.Pos {
		return fset.File(f.Pos()).LineStart(line)
	}
	pass.Reportf(lineStart(qfile, 4), "finding under module-scope allow")
	pass.Reportf(lineStart(qfile, 6), "finding with no annotation")
	// A finding in p: suppressSrc's line-5 annotation names simdet, not
	// observe, so a module pass with a different name must not be
	// silenced by it (wrong-pass edge, module scope).
	pass.Reportf(lineStart(pfile, 6), "finding under another pass's allow")

	all := pass.AllDiagnostics()
	if len(all) != 3 {
		t.Fatalf("AllDiagnostics: got %d findings, want 3", len(all))
	}
	byFile := map[string][]Diagnostic{}
	for _, d := range all {
		byFile[d.Position.Filename] = append(byFile[d.Position.Filename], d)
	}
	if d := byFile["p.go"][0]; d.Suppressed {
		t.Errorf("p.go finding suppressed by an annotation naming a different pass: %v", d)
	}
	q := byFile["q.go"]
	if !q[0].Suppressed {
		t.Errorf("q.go line-4 finding not suppressed by module-scope allow: %v", q[0])
	}
	if q[1].Suppressed {
		t.Errorf("q.go line-6 finding wrongly suppressed: %v", q[1])
	}

	vis := dropSuppressed(all)
	if len(vis) != 2 {
		t.Errorf("unsuppressed findings: got %d findings, want 2 (suppressed one dropped): %v", len(vis), vis)
	}
}

// TestAllowInsideGoldens guards the convention the per-pass golden
// testdata relies on: a //vrlint:allow line in a testdata source file
// suppresses the matching finding, so golden files can hold both flagged
// (`// want ...`) and allowed cases side by side. The per-pass golden
// tests (cyclesafe, exhaustive and the others) exercise this end to end;
// this test pins the mechanism in isolation.
func TestAllowInsideGoldens(t *testing.T) {
	src := `package golden

func suppressed(now, start uint64) uint64 {
	//vrlint:allow cyclesafe -- testdata: caller guarantees now >= start
	return now - start
}
`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "golden.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	sup := newSuppressions(fset, []*ast.File{file})
	subLine := fset.File(file.Pos()).LineStart(5)
	if !sup.covers("cyclesafe", subLine) {
		t.Error("allow annotation inside a golden file does not cover the next line")
	}
	if sup.covers("exhaustive", subLine) {
		t.Error("allow annotation suppresses a pass it does not name")
	}
}
