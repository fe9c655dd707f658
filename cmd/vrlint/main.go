// Command vrlint is the simulator-invariant multichecker: it runs the
// six vrsim-specific static-analysis passes — five per-package (simdet,
// panicfree, cyclesafe, cfgflow, exhaustive) and one module-scope
// (observe) — over the repository and fails when any invariant is
// violated. See DESIGN.md "Static invariants" for what each pass encodes
// and the `//vrlint:allow` suppression syntax. The lock discipline and
// the counters' flow into harness.Result are checked at run time, by
// tests in internal/harness.
//
// Standalone usage (what `make lint` runs):
//
//	vrlint [packages...]           # default ./...
//	vrlint -json [packages...]     # machine-readable findings (incl. suppressed)
//	vrlint -list                   # describe the passes and exit
//
// vrlint also speaks the `go vet -vettool` unit-checker protocol: when
// invoked by the go command with a *.cfg argument it type-checks the unit
// from the supplied export data and reports findings for that package
// alone, so `go vet -vettool=$(which vrlint) ./...` integrates the passes
// into any vet-based workflow. Module-scope passes need the whole package
// graph at once and therefore run only in standalone mode.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"strings"

	"vrsim/internal/analysis"
	"vrsim/internal/analysis/cfgflow"
	"vrsim/internal/analysis/cyclesafe"
	"vrsim/internal/analysis/exhaustive"
	"vrsim/internal/analysis/observe"
	"vrsim/internal/analysis/panicfree"
	"vrsim/internal/analysis/simdet"
)

// version participates in the go command's content-based caching of vet
// results; bump it when a pass changes behaviour. The numeric part is
// also echoed in `-json` output so downstream tooling can detect schema
// drift.
const version = "vrlint version 7.0.0"

// analyzers is the multichecker's per-package pass set.
var analyzers = []*analysis.Analyzer{
	simdet.Analyzer,
	panicfree.Analyzer,
	cyclesafe.Analyzer,
	cfgflow.Analyzer,
	exhaustive.Analyzer,
}

// moduleAnalyzers is the whole-module pass set (standalone mode only).
var moduleAnalyzers = []*analysis.ModuleAnalyzer{
	observe.Analyzer,
}

func main() {
	var (
		printVersion = flag.String("V", "", "print version (go vet protocol; use -V=full)")
		printFlags   = flag.Bool("flags", false, "print analyzer flags as JSON (go vet protocol)")
		list         = flag.Bool("list", false, "describe the passes and exit")
		jsonOut      = flag.Bool("json", false, "emit findings as JSON, including suppressed ones")
	)
	flag.Parse()

	switch {
	case *printVersion != "":
		fmt.Println(version)
		return
	case *printFlags:
		fmt.Println("[]")
		return
	case *list:
		for _, a := range analyzers {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		for _, a := range moduleAnalyzers {
			fmt.Printf("%-10s %s (module-scope; standalone mode only)\n", a.Name, a.Doc)
		}
		return
	}

	args := flag.Args()
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(vetUnit(args[0]))
	}
	os.Exit(standalone(args, *jsonOut))
}

// jsonDiag is one finding in `vrlint -json` output.
type jsonDiag struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Pass       string `json:"pass"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
}

// jsonReport is the `vrlint -json` envelope; Version lets downstream
// tooling detect pass-set or schema drift.
type jsonReport struct {
	Version  string     `json:"version"`
	Findings []jsonDiag `json:"findings"`
}

// jsonVersion is the bare numeric version echoed in -json output.
func jsonVersion() string {
	return strings.TrimPrefix(version, "vrlint version ")
}

// standalone loads the requested packages with the go list driver and
// applies every pass, honoring each analyzer's Scope. Module-scope
// analyzers run once over the full package set.
func standalone(patterns []string, jsonOut bool) int {
	pkgs, err := analysis.Load("", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vrlint:", err)
		return 1
	}
	var all []analysis.Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Scope != nil && !a.Scope(pkg.PkgPath) {
				continue
			}
			diags, err := analysis.RunAnalyzerAll(a, pkg)
			if err != nil {
				fmt.Fprintln(os.Stderr, "vrlint:", err)
				return 1
			}
			all = append(all, diags...)
		}
	}
	for _, a := range moduleAnalyzers {
		diags, err := analysis.RunModuleAnalyzerAll(a, pkgs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vrlint:", err)
			return 1
		}
		all = append(all, diags...)
	}

	found := 0
	for _, d := range all {
		if !d.Suppressed {
			found++
		}
	}
	if jsonOut {
		out := jsonReport{Version: jsonVersion(), Findings: make([]jsonDiag, 0, len(all))}
		for _, d := range all {
			out.Findings = append(out.Findings, jsonDiag{
				File:       d.Position.Filename,
				Line:       d.Position.Line,
				Col:        d.Position.Column,
				Pass:       d.Analyzer,
				Message:    d.Message,
				Suppressed: d.Suppressed,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "vrlint:", err)
			return 1
		}
	} else {
		for _, d := range all {
			if !d.Suppressed {
				fmt.Println(d)
			}
		}
	}
	if found > 0 {
		fmt.Fprintf(os.Stderr, "vrlint: %d finding(s)\n", found)
		return 1
	}
	return 0
}

// vetConfig is the configuration file the go command hands a vet tool for
// one compilation unit (the unit-checker protocol).
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// vetUnit checks one compilation unit under the go vet protocol.
func vetUnit(cfgFile string) int {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vrlint:", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "vrlint: parsing %s: %v\n", cfgFile, err)
		return 1
	}
	// The go command requires the facts output file to exist even though
	// vrlint's passes exchange no facts.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintln(os.Stderr, "vrlint:", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	// Test files are excluded deliberately: tests exercise Must* helpers,
	// injected panics and unvalidated configs on purpose.
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		if !filepath.IsAbs(name) {
			name = filepath.Join(cfg.Dir, name)
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vrlint:", err)
			return 1
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return 0
	}
	imp := importer.ForCompiler(fset, "gc", func(importPath string) (io.ReadCloser, error) {
		path := importPath
		if p, ok := cfg.ImportMap[importPath]; ok {
			path = p
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no package file for %q", path)
		}
		return os.Open(file)
	})
	tpkg, info, err := analysis.TypeCheck(cfg.ImportPath, fset, files, imp)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(os.Stderr, "vrlint: %s: %v\n", cfg.ImportPath, err)
		return 1
	}
	pkg := &analysis.Package{
		PkgPath: cfg.ImportPath,
		Dir:     cfg.Dir,
		Fset:    fset,
		Files:   files,
		Types:   tpkg,
		Info:    info,
	}
	found := 0
	for _, a := range analyzers {
		if a.Scope != nil && !a.Scope(cfg.ImportPath) {
			continue
		}
		diags, err := analysis.RunAnalyzer(a, pkg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vrlint:", err)
			return 1
		}
		for _, d := range diags {
			fmt.Fprintln(os.Stderr, d)
			found++
		}
	}
	if found > 0 {
		return 2
	}
	return 0
}
