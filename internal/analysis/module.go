package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
)

// A ModuleAnalyzer is a whole-module static-analysis pass: unlike an
// Analyzer, which sees one package at a time, its Run receives every
// loaded package at once. Passes whose invariants span package
// boundaries (e.g. observe, which follows the call graph from observer
// hooks in one package to the state they write in another) must use
// this form.
//
// Module analyzers run only in vrlint's standalone mode: the go vet
// unitchecker protocol type-checks one package per process, so a
// cross-package pass cannot participate in it.
type ModuleAnalyzer struct {
	// Name identifies the pass in diagnostics and in
	// `//vrlint:allow <name>` suppression annotations.
	Name string

	// Doc is a one-paragraph description of the invariant the pass
	// enforces.
	Doc string

	// Run inspects the whole loaded module and reports findings via
	// pass.Reportf.
	Run func(pass *ModulePass) error
}

// A ModulePass carries the full set of loaded, type-checked packages
// through a ModuleAnalyzer.Run.
type ModulePass struct {
	Analyzer *ModuleAnalyzer
	Fset     *token.FileSet
	Pkgs     []*Package

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      pos,
		Position: p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Package returns the loaded package with the given import path, or nil.
func (p *ModulePass) Package(path string) *Package {
	for _, pkg := range p.Pkgs {
		if pkg.PkgPath == path {
			return pkg
		}
	}
	return nil
}

// allFiles gathers every syntax file of every package; all packages share
// one FileSet, so suppression positions resolve consistently.
func (p *ModulePass) allFiles() []*ast.File {
	var files []*ast.File
	for _, pkg := range p.Pkgs {
		files = append(files, pkg.Files...)
	}
	return files
}

// AllDiagnostics returns every finding, including suppressed ones (with
// Suppressed set), sorted by position.
func (p *ModulePass) AllDiagnostics() []Diagnostic {
	return markSuppressed(p.Fset, p.allFiles(), p.diags)
}

// RunModuleAnalyzer applies one module analyzer to the loaded package set
// and returns its unsuppressed diagnostics.
func RunModuleAnalyzer(a *ModuleAnalyzer, pkgs []*Package) ([]Diagnostic, error) {
	diags, err := RunModuleAnalyzerAll(a, pkgs)
	return dropSuppressed(diags), err
}

// RunModuleAnalyzerAll is RunModuleAnalyzer keeping suppressed findings
// (flagged via Diagnostic.Suppressed).
func RunModuleAnalyzerAll(a *ModuleAnalyzer, pkgs []*Package) ([]Diagnostic, error) {
	if len(pkgs) == 0 {
		return nil, nil
	}
	pass := &ModulePass{
		Analyzer: a,
		Fset:     pkgs[0].Fset,
		Pkgs:     pkgs,
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %w", a.Name, err)
	}
	return pass.AllDiagnostics(), nil
}
