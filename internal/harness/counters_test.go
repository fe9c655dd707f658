// Counter-integrity tests: every counter the simulator keeps must reach
// Result, every Result field must have a counter behind it, and every
// counter must be written by some run. assemble is the only place a
// Result is built from counters, so perturbing its inputs one field at a
// time shows exactly what each counter feeds.

package harness

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"vrsim/internal/mem"
	"vrsim/internal/workloads"
)

// unreported names the counter fields that no Result field is expected
// to move, with the reason.
var unreported = map[string]string{
	"cpu.Stats.FUIssued": "read only by cmd/vrtrace's port table, until the vrtrace rebuild (ROADMAP item 3(c)) carries it in Result",
}

// A counterField is one field of one counter struct, named as
// "cpu.Stats.Cycles".
type counterField struct {
	name string
	v    reflect.Value
}

// counterFields lists the fields of every counter struct c holds,
// skipping the absent ones.
func counterFields(c *counters) []counterField {
	var out []counterField
	cv := reflect.ValueOf(c).Elem()
	for i := 0; i < cv.NumField(); i++ {
		sv := cv.Field(i)
		if sv.Kind() == reflect.Pointer {
			if sv.IsNil() {
				continue
			}
			sv = sv.Elem()
		}
		for j := 0; j < sv.NumField(); j++ {
			out = append(out, counterField{sv.Type().String() + "." + sv.Type().Field(j).Name, sv.Field(j)})
		}
	}
	return out
}

// eachLeaf calls fn on every leaf of v, descending into arrays and
// structs. The counters are uint64 and float64 today; a leaf of any
// other kind fails the test until the tests here learn to set and bump
// it.
func eachLeaf(t *testing.T, name string, v reflect.Value, fn func(reflect.Value)) {
	t.Helper()
	switch v.Kind() {
	case reflect.Uint64, reflect.Float64:
		fn(v)
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			eachLeaf(t, name, v.Index(i), fn)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			eachLeaf(t, name, v.Field(i), fn)
		}
	default:
		t.Fatalf("%s: counter of kind %s", name, v.Kind())
	}
}

// allCounters returns counters with every struct present and every leaf
// set to a distinct non-zero value.
func allCounters(t *testing.T) counters {
	var c counters
	cv := reflect.ValueOf(&c).Elem()
	for i := 0; i < cv.NumField(); i++ {
		if f := cv.Field(i); f.Kind() == reflect.Pointer {
			f.Set(reflect.New(f.Type().Elem()))
		}
	}
	next := uint64(1000)
	for _, f := range counterFields(&c) {
		eachLeaf(t, f.name, f.v, func(v reflect.Value) {
			next++
			if v.Kind() == reflect.Float64 {
				v.SetFloat(float64(next) + 0.5)
			} else {
				v.SetUint(next)
			}
		})
	}
	return c
}

// resultLeaves flattens r into its numeric leaves, keyed by path
// ("VRStats.Activations", "DemandLoadsByLevel[2]"). String fields name
// the run rather than measure it and are left out.
func resultLeaves(r Result) map[string]string {
	out := map[string]string{}
	var walk func(path string, v reflect.Value)
	walk = func(path string, v reflect.Value) {
		switch v.Kind() {
		case reflect.String:
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(strings.TrimPrefix(path+"."+v.Type().Field(i).Name, "."), v.Field(i))
			}
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(fmt.Sprintf("%s[%d]", path, i), v.Index(i))
			}
		default:
			out[path] = fmt.Sprint(v.Interface())
		}
	}
	walk("", reflect.ValueOf(r))
	return out
}

// TestAssembleReadsEveryCounter perturbs each field of each counter
// struct in turn, every leaf of it by one, and requires some Result field
// to move; and it requires every numeric Result field to move under some
// counter. A dropped aggregation, a Result field assigned again after it
// was aggregated, and a Result field with no counter behind it all fail.
func TestAssembleReadsEveryCounter(t *testing.T) {
	c := allCounters(t)
	base := resultLeaves(assemble("w", TechVR, c))
	moved := map[string]bool{}
	for _, f := range counterFields(&c) {
		saved := reflect.New(f.v.Type()).Elem()
		saved.Set(f.v)
		eachLeaf(t, f.name, f.v, func(v reflect.Value) {
			if v.Kind() == reflect.Float64 {
				v.SetFloat(v.Float() + 1)
			} else {
				v.SetUint(v.Uint() + 1)
			}
		})
		var changed []string
		for path, val := range resultLeaves(assemble("w", TechVR, c)) {
			if val != base[path] {
				changed = append(changed, path)
				moved[path] = true
			}
		}
		f.v.Set(saved)
		reason, exempt := unreported[f.name]
		switch {
		case len(changed) == 0 && !exempt:
			t.Errorf("%s moves no Result field", f.name)
		case len(changed) > 0 && exempt:
			t.Errorf("%s moves %v, yet is listed as unreported (%s)", f.name, changed, reason)
		}
	}
	for path := range base {
		if !moved[path] {
			t.Errorf("Result.%s moves under no counter", path)
		}
	}
}

// TestAssembleMLPArea pins MLPArea, the one figure assemble derives from
// a hierarchy counter itself: the miss-latency area per cycle.
func TestAssembleMLPArea(t *testing.T) {
	c := allCounters(t)
	c.CPU.Cycles, c.Hier.MissLatencyArea = 1000, 2500
	if got := assemble("w", TechOoO, c).MLPArea; got != 2.5 {
		t.Errorf("MLPArea = %v, want 2.5", got)
	}
	c.CPU.Cycles = 0
	if got := assemble("w", TechOoO, c).MLPArea; got != 0 {
		t.Errorf("MLPArea over no cycles = %v, want 0", got)
	}
}

// TestCounterStructsAssembled finds every struct type named *Stats in the
// simulator packages' sources and requires the set to be exactly
// assemble's inputs: a counter struct the simulator writes but assemble
// does not take fails here.
func TestCounterStructsAssembled(t *testing.T) {
	inputs := map[string]bool{}
	ct := reflect.TypeOf(counters{})
	for i := 0; i < ct.NumField(); i++ {
		ft := ct.Field(i).Type
		if ft.Kind() == reflect.Pointer {
			ft = ft.Elem()
		}
		inputs[ft.PkgPath()+"."+ft.Name()] = true
	}
	declared := map[string]bool{}
	for _, pkg := range []string{"cpu", "core", "mem", "prefetch", "branch"} {
		files, err := filepath.Glob(filepath.Join("..", pkg, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no sources for %s: %v", pkg, err)
		}
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts := spec.(*ast.TypeSpec)
					if _, ok := ts.Type.(*ast.StructType); ok && strings.HasSuffix(ts.Name.Name, "Stats") {
						declared["vrsim/internal/"+pkg+"."+ts.Name.Name] = true
					}
				}
			}
		}
	}
	for name := range declared {
		if !inputs[name] {
			t.Errorf("counter struct %s is not an input of assemble", name)
		}
	}
	for name := range inputs {
		if !declared[name] {
			t.Errorf("assemble takes %s, which is not a simulator counter struct", name)
		}
	}
}

// TestCountersLive requires every counter field to be non-zero after some
// run: a counter nothing writes fails here. The cells are every small
// workload under every recycle variant, plus the two cells that reach
// the rarest counters.
func TestCountersLive(t *testing.T) {
	written := map[string]bool{}
	note := func(in *instance) {
		c := in.counters()
		for _, f := range counterFields(&c) {
			if !f.v.IsZero() {
				written[f.name] = true
			}
		}
	}
	run := func(w *workloads.Workload, rc RunConfig) error {
		in, err := newInstance(w, rc)
		if err != nil {
			t.Fatalf("%s/%s: %v", w.Name, rc.Tech, err)
		}
		_, err = in.execute()
		note(in)
		if err == nil {
			in.recycle()
		}
		return err
	}
	for _, w := range smallWorkloads() {
		for _, rc := range recycleVariants(w.Name) {
			if err := run(w, rc); err != nil {
				t.Fatalf("%s/%s: %v", w.Name, rc.Tech, err)
			}
		}
	}
	// VR with the loop-bound and reconvergence extensions, and A8's hold
	// bound so chains reach their divergence points: the lanes masked by
	// the bound, stashed and resumed.
	bc := workloads.BC(9, workloads.GraphKron, "kr")
	rc := DefaultRunConfig(TechVR)
	rc.MaxBudget = timingGoldenBudget
	rc.VR.LoopBoundAware, rc.VR.Reconverge, rc.VR.MaxHoldCycles = true, true, 2048
	if err := run(bc, rc); err != nil {
		t.Fatalf("%s/%s: %v", bc.Name, rc.Tech, err)
	}
	// A memory system that hangs on the first demand miss: the hang.
	camel := workloads.Camel(12, 1500)
	rc = DefaultRunConfig(TechOoO)
	rc.Faults = mem.FaultConfig{HangAfter: 1}
	rc.WatchdogCycles = 3000
	if err := run(camel, rc); !errors.Is(err, ErrNoProgress) {
		t.Fatalf("%s/%s with a hang: err = %v, want ErrNoProgress", camel.Name, rc.Tech, err)
	}

	all := allCounters(t)
	for _, f := range counterFields(&all) {
		if !written[f.name] {
			t.Errorf("%s is never written", f.name)
		}
	}
}
