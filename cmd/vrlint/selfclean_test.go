package main

import (
	"bytes"
	"encoding/json"
	"go/parser"
	"go/token"
	"io"
	"os/exec"
	"path/filepath"
	"testing"

	"vrsim/internal/analysis"
)

// TestSelfClean is the self-application gate: the full vrlint registry —
// every per-package and module-scope pass — runs over this repository
// and must report zero unsuppressed findings. A finding here means the
// tree regressed an invariant (fix the code) or a pass regressed its
// precision (fix the pass); either way the gate, not a human re-running
// `make lint`, catches it.
func TestSelfClean(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and analyzes the whole module")
	}
	pkgs, err := analysis.Load("", "vrsim/...")
	if err != nil {
		t.Fatal(err)
	}
	var all []analysis.Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Scope != nil && !a.Scope(pkg.PkgPath) {
				continue
			}
			diags, err := analysis.RunAnalyzerAll(a, pkg)
			if err != nil {
				t.Fatalf("%s: %v", a.Name, err)
			}
			all = append(all, diags...)
		}
	}
	for _, a := range moduleAnalyzers {
		diags, err := analysis.RunModuleAnalyzerAll(a, pkgs)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		all = append(all, diags...)
	}
	var suppressed int
	for _, d := range all {
		if d.Suppressed {
			suppressed++
			continue
		}
		t.Errorf("unsuppressed finding: %s", d)
	}
	if suppressed == 0 {
		t.Error("no suppressed findings at all; the justified-annotation inventory should not be empty")
	}
}

// TestAllowNamesRegisteredPass: every //vrlint:allow annotation in the
// module's packages names a registered pass or "all". Suppression matches
// names without checking them, so an annotation naming a retired or
// misspelled pass would otherwise be ignored without a word. The check
// parses comments only, so it runs under -short too.
func TestAllowNamesRegisteredPass(t *testing.T) {
	known := map[string]bool{"all": true}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	for _, a := range moduleAnalyzers {
		known[a.Name] = true
	}
	out, err := exec.Command("go", "list", "-find", "-json=Dir,GoFiles", "vrsim/...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	fset := token.NewFileSet()
	annotations := 0
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var pkg struct {
			Dir     string
			GoFiles []string
		}
		if err := dec.Decode(&pkg); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("go list: decoding output: %v", err)
		}
		for _, name := range pkg.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(pkg.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					for _, n := range analysis.ParseAllow(c.Text) {
						annotations++
						if !known[n] {
							t.Errorf("%s: //vrlint:allow names %q, which is not a registered pass", fset.Position(c.Pos()), n)
						}
					}
				}
			}
		}
	}
	if annotations == 0 {
		t.Error("found no //vrlint:allow annotations at all; the package listing is wrong")
	}
}
