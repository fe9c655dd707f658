package analysis

import (
	"testing"
)

// TestLoadModulePackages exercises the go list -export loader against the
// repository itself: the mem package must type-check with its imports
// resolved through export data.
func TestLoadModulePackages(t *testing.T) {
	pkgs, err := Load("", "vrsim/internal/mem", "vrsim/internal/harness")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("got %d packages, want 2", len(pkgs))
	}
	byPath := map[string]*Package{}
	for _, p := range pkgs {
		byPath[p.PkgPath] = p
		if len(p.Files) == 0 {
			t.Errorf("%s: no files", p.PkgPath)
		}
		if p.Types == nil || p.Info == nil {
			t.Fatalf("%s: missing type information", p.PkgPath)
		}
	}
	mem := byPath["vrsim/internal/mem"]
	if mem == nil {
		t.Fatal("vrsim/internal/mem not loaded")
	}
	if obj := mem.Types.Scope().Lookup("NewHierarchy"); obj == nil {
		t.Error("mem.NewHierarchy not found in type info")
	}
	// The harness package imports mem; cross-package types must resolve.
	h := byPath["vrsim/internal/harness"]
	if h == nil {
		t.Fatal("vrsim/internal/harness not loaded")
	}
	if obj := h.Types.Scope().Lookup("RunSupervised"); obj == nil {
		t.Error("harness.RunSupervised not found in type info")
	}
}

func TestParseAllow(t *testing.T) {
	cases := []struct {
		text string
		want []string
	}{
		{"//vrlint:allow simdet", []string{"simdet"}},
		{"//vrlint:allow simdet,cyclesafe -- read-only table", []string{"simdet", "cyclesafe"}},
		{"//vrlint:allow all", []string{"all"}},
		{"//vrlint:allowed simdet", nil},
		{"// plain comment", nil},
	}
	for _, c := range cases {
		got := ParseAllow(c.text)
		if len(got) != len(c.want) {
			t.Errorf("ParseAllow(%q) = %v, want %v", c.text, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("ParseAllow(%q) = %v, want %v", c.text, got, c.want)
			}
		}
	}
}
