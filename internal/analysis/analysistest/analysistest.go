// Package analysistest runs an analyzer over golden testdata packages and
// checks its diagnostics against expectations written in the source, in
// the style of golang.org/x/tools/go/analysis/analysistest (which the
// container cannot fetch).
//
// Test packages live in a GOPATH-style layout under the analyzer's
// directory: testdata/src/<importpath>/*.go. Imports between testdata
// packages resolve within that tree, so a test package may import a stub
// "vrsim/internal/harness" that mimics the real API; standard-library
// imports resolve through `go list -export` like the main loader.
//
// Expectations are trailing comments of the form
//
//	x := m[k] // want `regexp`
//
// Each `want` holds one or more backquoted regular expressions, all of
// which must match a diagnostic reported on that line. Lines without a
// want comment must produce no diagnostics; suppressed findings (via
// //vrlint:allow) count as absent.
package analysistest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"vrsim/internal/analysis"
)

// Run loads each named testdata package, applies the analyzer, and
// reports mismatches between actual diagnostics and // want expectations
// as test errors.
func Run(t *testing.T, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	srcRoot, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	ld := &loader{
		srcRoot: srcRoot,
		fset:    token.NewFileSet(),
		cache:   map[string]*analysis.Package{},
	}
	ld.std = importer.ForCompiler(ld.fset, "gc", ld.stdExport)
	for _, path := range pkgPaths {
		pkg, err := ld.load(path)
		if err != nil {
			t.Fatalf("loading testdata package %s: %v", path, err)
		}
		diags, err := analysis.RunAnalyzer(a, pkg)
		if err != nil {
			t.Fatalf("running %s on %s: %v", a.Name, path, err)
		}
		check(t, pkg, diags)
	}
}

// RunModule loads every named testdata package into one shared FileSet,
// applies the module analyzer to the whole set at once, and checks the
// combined diagnostics against the // want expectations of every package.
func RunModule(t *testing.T, a *analysis.ModuleAnalyzer, pkgPaths ...string) {
	t.Helper()
	srcRoot, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	ld := &loader{
		srcRoot: srcRoot,
		fset:    token.NewFileSet(),
		cache:   map[string]*analysis.Package{},
	}
	ld.std = importer.ForCompiler(ld.fset, "gc", ld.stdExport)
	var pkgs []*analysis.Package
	for _, path := range pkgPaths {
		pkg, err := ld.load(path)
		if err != nil {
			t.Fatalf("loading testdata package %s: %v", path, err)
		}
		pkgs = append(pkgs, pkg)
	}
	diags, err := analysis.RunModuleAnalyzer(a, pkgs)
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}
	// Expectations span all packages; partition diagnostics by the package
	// that owns the file so check sees only its own.
	fileOwner := map[string]*analysis.Package{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			fileOwner[ld.fset.Position(f.Pos()).Filename] = pkg
		}
	}
	byPkg := map[*analysis.Package][]analysis.Diagnostic{}
	for _, d := range diags {
		owner := fileOwner[d.Position.Filename]
		if owner == nil {
			t.Errorf("diagnostic outside loaded packages: %s", d)
			continue
		}
		byPkg[owner] = append(byPkg[owner], d)
	}
	for _, pkg := range pkgs {
		check(t, pkg, byPkg[pkg])
	}
}

// loader resolves testdata imports from the testdata/src tree and
// standard-library imports via go list -export.
type loader struct {
	srcRoot string
	fset    *token.FileSet
	cache   map[string]*analysis.Package
	std     types.Importer
	exports map[string]string
}

// stdExport satisfies the gc importer's lookup for standard-library
// imports: it shells out to `go list -export -deps` once per new package
// (caching the whole dependency closure) and hands back the export data
// the toolchain compiled.
func (ld *loader) stdExport(path string) (io.ReadCloser, error) {
	if file, ok := ld.exports[path]; ok {
		return os.Open(file)
	}
	out, err := exec.Command("go", "list", "-export", "-json=ImportPath,Export", "-deps", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export %s: %v", path, err)
	}
	if ld.exports == nil {
		ld.exports = map[string]string{}
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p struct{ ImportPath, Export string }
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		if p.Export != "" {
			ld.exports[p.ImportPath] = p.Export
		}
	}
	file, ok := ld.exports[path]
	if !ok {
		return nil, fmt.Errorf("no export data for %q", path)
	}
	return os.Open(file)
}

func (ld *loader) load(path string) (*analysis.Package, error) {
	if p, ok := ld.cache[path]; ok {
		return p, nil
	}
	dir := filepath.Join(ld.srcRoot, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	pkg, info, err := analysis.TypeCheck(path, ld.fset, files, importerFunc(ld.importPkg))
	if err != nil {
		return nil, err
	}
	p := &analysis.Package{PkgPath: path, Dir: dir, Fset: ld.fset, Files: files, Types: pkg, Info: info}
	ld.cache[path] = p
	return p, nil
}

// importPkg resolves one import during testdata type checking: testdata
// packages from source, everything else from toolchain export data.
func (ld *loader) importPkg(path string) (*types.Package, error) {
	if st, err := os.Stat(filepath.Join(ld.srcRoot, filepath.FromSlash(path))); err == nil && st.IsDir() {
		p, err := ld.load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return ld.std.Import(path)
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// wantRx extracts the backquoted patterns of a // want comment.
var wantRx = regexp.MustCompile("`([^`]*)`")

// check compares diagnostics against the package's // want comments.
func check(t *testing.T, pkg *analysis.Package, diags []analysis.Diagnostic) {
	t.Helper()

	type key struct {
		file string
		line int
	}
	// Collect expectations per (file, line).
	wants := map[key][]*regexp.Regexp{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "want ") && text != "want" {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				k := key{pos.Filename, pos.Line}
				for _, m := range wantRx.FindAllStringSubmatch(text, -1) {
					rx, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", pos, m[1], err)
					}
					wants[k] = append(wants[k], rx)
				}
			}
		}
	}

	got := map[key][]string{}
	for _, d := range diags {
		k := key{d.Position.Filename, d.Position.Line}
		got[k] = append(got[k], d.Message)
	}

	// Every expectation must be matched by some diagnostic on its line.
	var keys []key
	for k := range wants {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].file != keys[j].file {
			return keys[i].file < keys[j].file
		}
		return keys[i].line < keys[j].line
	})
	for _, k := range keys {
		msgs := got[k]
		for _, rx := range wants[k] {
			matched := false
			for _, m := range msgs {
				if rx.MatchString(m) {
					matched = true
					break
				}
			}
			if !matched {
				t.Errorf("%s:%d: no diagnostic matching %q (got %v)", k.file, k.line, rx, msgs)
			}
		}
		if len(msgs) > len(wants[k]) {
			t.Errorf("%s:%d: %d diagnostics for %d want patterns: %v", k.file, k.line, len(msgs), len(wants[k]), msgs)
		}
	}
	// Every diagnostic must be expected.
	for k, msgs := range got {
		if _, ok := wants[k]; !ok {
			t.Errorf("%s:%d: unexpected diagnostics: %v", k.file, k.line, msgs)
		}
	}
}
