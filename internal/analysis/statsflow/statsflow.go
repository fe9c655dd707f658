// Package statsflow defines a whole-module vrlint pass enforcing the
// stats-integrity invariant: every counter the simulator increments must
// flow into the harness Result struct (directly, through a derived-stats
// computation, or by whole-struct aggregation), and every Result field
// must trace back to at least one simulator counter. Counters that are
// written but never aggregated are dead weight that silently skews code
// reviews ("surely this is reported somewhere"); Result fields with no
// counter behind them report constant zeroes as if they were measurements.
//
// The pass is intentionally cross-package — the writes live in
// internal/{cpu,core,mem,prefetch,branch} and the aggregation lives in
// internal/harness — so it is a ModuleAnalyzer and runs only in vrlint's
// standalone mode (the go vet unitchecker protocol sees one package at a
// time).
package statsflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"vrsim/internal/analysis"
	"vrsim/internal/analysis/dataflow"
)

// simPackages are the packages whose *Stats struct types are treated as
// counter stores.
var simPackages = map[string]bool{
	"vrsim/internal/cpu":      true,
	"vrsim/internal/core":     true,
	"vrsim/internal/mem":      true,
	"vrsim/internal/prefetch": true,
	"vrsim/internal/branch":   true,
}

const harnessPath = "vrsim/internal/harness"

// Analyzer is the statsflow pass.
var Analyzer = &analysis.ModuleAnalyzer{
	Name: "statsflow",
	Doc: "check that every simulator counter flows into harness.Result " +
		"and every Result field traces back to a counter",
	Run: run,
}

// A counterStruct is one named *Stats type declared in a simulator
// package. Packages are type-checked in separate universes (each against
// the others' export data), so struct and field identity is tracked by
// (package path, type name, field name) strings, never by types.Object
// pointers.
type counterStruct struct {
	key     string // "vrsim/internal/cpu.Stats"
	display string // "cpu.Stats"
	fields  []*fieldRec
	byName  map[string]*fieldRec
	// copied is set when a value of this struct type is aggregated whole
	// into a harness Result field (e.g. res.VRStats = vr.Stats); every
	// field then counts as read.
	copied bool
}

// A fieldRec tracks one counter field's writes and reads module-wide.
type fieldRec struct {
	cs     *counterStruct
	decl   token.Pos // declaration position in the defining package
	name   string
	writes []token.Pos
	reads  int
}

type checker struct {
	pass    *analysis.ModulePass
	structs map[string]*counterStruct
}

// typeKey is the universe-independent identity of a named type.
func typeKey(named *types.Named) string {
	tn := named.Obj()
	if tn.Pkg() == nil {
		return ""
	}
	return tn.Pkg().Path() + "." + tn.Name()
}

func run(pass *analysis.ModulePass) error {
	harness := pass.Package(harnessPath)
	if harness == nil {
		return nil // partial load: the invariant is not checkable
	}

	c := &checker{
		pass:    pass,
		structs: map[string]*counterStruct{},
	}
	c.collectCounterStructs()
	if len(c.structs) == 0 {
		return nil
	}
	for _, pkg := range pass.Pkgs {
		for _, file := range pkg.Files {
			c.scanFile(pkg.Info, file)
		}
	}
	c.checkResult(harness)
	c.reportCounters()
	return nil
}

// collectCounterStructs finds every package-level struct type whose name
// ends in "Stats" in a simulator package.
func (c *checker) collectCounterStructs() {
	for _, pkg := range c.pass.Pkgs {
		if !simPackages[pkg.PkgPath] {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			if !strings.HasSuffix(name, "Stats") {
				continue
			}
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			st, ok := named.Underlying().(*types.Struct)
			if !ok {
				continue
			}
			cs := &counterStruct{
				key:     typeKey(named),
				display: pkg.Types.Name() + "." + name,
				byName:  map[string]*fieldRec{},
			}
			c.structs[cs.key] = cs
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				fr := &fieldRec{cs: cs, decl: f.Pos(), name: f.Name()}
				cs.fields = append(cs.fields, fr)
				cs.byName[fr.name] = fr
			}
		}
	}
}

// counterFieldOf resolves sel to a counter-struct field, or nil. Only
// direct (non-promoted) selections are tracked.
func (c *checker) counterFieldOf(info *types.Info, sel *ast.SelectorExpr) *fieldRec {
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal || len(s.Index()) != 1 {
		return nil
	}
	recv := s.Recv()
	if p, ok := recv.Underlying().(*types.Pointer); ok {
		recv = p.Elem()
	} else if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return nil
	}
	cs := c.structs[typeKey(named)]
	if cs == nil {
		return nil
	}
	return cs.byName[s.Obj().Name()]
}

// baseSelector unwraps index/paren/deref layers around an lvalue down to
// its selector, so `st.CommitStall[cause]++` registers a write to
// CommitStall.
func baseSelector(e ast.Expr) *ast.SelectorExpr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			return x
		default:
			return nil
		}
	}
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// scanFile records counter writes and reads in one file. A write is a
// field assignment or inc/dec (compound assignments count as writes only:
// a counter feeding nothing but its own update is still dead). Keyed
// composite-literal fields count as writes too. Every other selection of
// a counter field is a read.
func (c *checker) scanFile(info *types.Info, file *ast.File) {
	writeSels := map[*ast.SelectorExpr]bool{}
	markWrite := func(e ast.Expr) {
		sel := baseSelector(e)
		if sel == nil {
			return
		}
		if fr := c.counterFieldOf(info, sel); fr != nil {
			fr.writes = append(fr.writes, sel.Sel.Pos())
			writeSels[sel] = true
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				markWrite(lhs)
			}
		case *ast.IncDecStmt:
			markWrite(n.X)
		case *ast.CompositeLit:
			tv, ok := info.Types[n]
			if !ok {
				return true
			}
			named, ok := tv.Type.(*types.Named)
			if !ok {
				return true
			}
			cs := c.structs[typeKey(named)]
			if cs == nil {
				return true
			}
			for _, elt := range n.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				key, ok := kv.Key.(*ast.Ident)
				if !ok {
					continue
				}
				if fr := cs.byName[key.Name]; fr != nil {
					fr.writes = append(fr.writes, key.Pos())
				}
			}
		}
		return true
	})
	ast.Inspect(file, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || writeSels[sel] {
			return true
		}
		if fr := c.counterFieldOf(info, sel); fr != nil {
			fr.reads++
		}
		return true
	})
}

// reportCounters emits the dead/orphaned-counter findings once all reads,
// writes and whole-struct aggregations are known.
func (c *checker) reportCounters() {
	var all []*counterStruct
	for _, cs := range c.structs {
		all = append(all, cs)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].display < all[j].display })
	for _, cs := range all {
		for _, fr := range cs.fields {
			if len(fr.writes) == 0 {
				c.pass.Reportf(fr.decl, "counter %s.%s is declared but never written", cs.display, fr.name)
				continue
			}
			if fr.reads == 0 && !cs.copied {
				w := fr.writes
				sort.Slice(w, func(i, j int) bool { return w[i] < w[j] })
				c.pass.Reportf(w[0], "counter %s.%s is written but never read: aggregate it into harness results or delete it", cs.display, fr.name)
			}
		}
	}
}

// checkResult verifies the harness side of the invariant: every
// non-string Result field is assigned somewhere in the harness package,
// every assignment traces back to a simulator counter, and no field is
// plainly reassigned after an earlier aggregation already reached it.
func (c *checker) checkResult(harness *analysis.Package) {
	obj, ok := harness.Types.Scope().Lookup("Result").(*types.TypeName)
	if !ok {
		return
	}
	resNamed, ok := obj.Type().(*types.Named)
	if !ok {
		return
	}
	resStruct, ok := resNamed.Underlying().(*types.Struct)
	if !ok {
		return
	}
	resultFields := map[*types.Var]bool{}
	for i := 0; i < resStruct.NumFields(); i++ {
		resultFields[resStruct.Field(i)] = true
	}
	assigned := map[*types.Var]bool{}

	info := harness.Info
	for _, file := range harness.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			c.checkFunc(info, fd, resNamed, resultFields, assigned)
		}
	}

	for i := 0; i < resStruct.NumFields(); i++ {
		f := resStruct.Field(i)
		if stringKind(f.Type()) || assigned[f] {
			continue
		}
		c.pass.Reportf(f.Pos(), "Result field %s is never assigned: no counter flows into it", f.Name())
	}
}

// stringKind reports whether t's underlying type is string; such Result
// fields (workload/technique labels) are exempt from counter tracing.
func stringKind(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// resultFieldOf resolves an lvalue to the Result field it assigns, or nil.
func resultFieldOf(info *types.Info, e ast.Expr, resultFields map[*types.Var]bool) (*types.Var, *ast.SelectorExpr) {
	sel := baseSelector(e)
	if sel == nil {
		return nil, nil
	}
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return nil, nil
	}
	v, ok := s.Obj().(*types.Var)
	if !ok || !resultFields[v] {
		return nil, nil
	}
	return v, sel
}

// checkFunc checks one harness function: traces every Result-field
// assignment, credits whole-struct aggregations, and runs the
// reaching-assignment domain to catch overwrites.
func (c *checker) checkFunc(info *types.Info, fd *ast.FuncDecl, resNamed *types.Named, resultFields map[*types.Var]bool, assigned map[*types.Var]bool) {
	tr := &tracer{c: c, info: info}
	tr.chains = dataflow.BuildChains(fd, fd.Body, info)

	checkValue := func(f *types.Var, pos token.Pos, rhs ast.Expr) {
		assigned[f] = true
		if rhs == nil {
			return
		}
		// Whole-struct aggregation: assigning a counter-struct value into
		// a Result field makes every field of that struct observable.
		if named := valueCounterType(info, rhs); named != nil {
			if cs := c.structs[typeKey(named)]; cs != nil {
				cs.copied = true
			}
		}
		if stringKind(f.Type()) {
			return
		}
		if !tr.traced(rhs) {
			c.pass.Reportf(pos, "Result field %s does not trace back to any simulator counter", f.Name())
		}
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			tv, ok := info.Types[n]
			if !ok || tv.Type != resNamed {
				return true
			}
			for _, elt := range n.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				key, ok := kv.Key.(*ast.Ident)
				if !ok {
					continue
				}
				if f, ok := info.Uses[key].(*types.Var); ok && resultFields[f] {
					checkValue(f, kv.Pos(), kv.Value)
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				f, sel := resultFieldOf(info, lhs, resultFields)
				if f == nil {
					continue
				}
				var rhs ast.Expr
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				}
				checkValue(f, sel.Pos(), rhs)
			}
		}
		return true
	})

	c.checkOverwrites(info, fd, resNamed, resultFields)
}

// valueCounterType returns the counter-struct type of e when e is a plain
// value of that type (not a pointer, not a zeroing composite literal).
func valueCounterType(info *types.Info, e ast.Expr) *types.Named {
	e = unparen(e)
	if _, ok := e.(*ast.CompositeLit); ok {
		return nil
	}
	tv, ok := info.Types[e]
	if !ok {
		return nil
	}
	named, ok := tv.Type.(*types.Named)
	if !ok {
		return nil
	}
	return named
}

// A tracer answers "does this expression derive from a simulator
// counter?" by walking the expression and, for local variables, the
// def-use chains of the enclosing function.
type tracer struct {
	c      *checker
	info   *types.Info
	chains *dataflow.Chains
	seen   map[*types.Var]bool
}

const traceDepth = 5

func (tr *tracer) traced(e ast.Expr) bool {
	tr.seen = map[*types.Var]bool{}
	return tr.rooted(e, 0)
}

// rooted reports whether e's value derives from the simulator: a
// selection or call whose object is declared in a simulator package, an
// expression typed as a counter struct, or a local variable one of whose
// definitions is itself rooted.
func (tr *tracer) rooted(e ast.Expr, depth int) bool {
	if depth > traceDepth {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SelectorExpr:
			if s := tr.info.Selections[n]; s != nil && simObject(s.Obj()) {
				found = true
				return false
			}
		case *ast.CallExpr:
			if obj := callee(tr.info, n); simObject(obj) {
				found = true
				return false
			}
		case *ast.Ident:
			if tr.identRooted(n, depth) {
				found = true
				return false
			}
		}
		if expr, ok := n.(ast.Expr); ok {
			if tv, ok := tr.info.Types[expr]; ok {
				if counterTyped(tr.c.structs, tv.Type) {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

// identRooted expands a local-variable use through its definitions.
func (tr *tracer) identRooted(id *ast.Ident, depth int) bool {
	v, ok := tr.info.Uses[id].(*types.Var)
	if !ok || v.IsField() || tr.chains == nil {
		return false
	}
	defs := tr.chains.Defs[v]
	if len(defs) == 0 || tr.seen[v] {
		return false
	}
	tr.seen[v] = true
	for _, def := range defs {
		if def.Rhs != nil && tr.rooted(def.Rhs, depth+1) {
			return true
		}
	}
	return false
}

// simObject reports whether obj is declared in a simulator package.
func simObject(obj types.Object) bool {
	return obj != nil && obj.Pkg() != nil && simPackages[obj.Pkg().Path()]
}

// callee resolves the object a call invokes, when syntactically evident.
func callee(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	}
	return nil
}

// counterTyped reports whether t is (or points to) a counter struct.
func counterTyped(structs map[string]*counterStruct, t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && structs[typeKey(named)] != nil
}

// aggKey identifies one (local Result variable, field) aggregation slot.
type aggKey struct {
	base  *types.Var
	field *types.Var
}

// aggFact maps each slot already assigned on some path to the position of
// its earliest assignment.
type aggFact map[aggKey]token.Pos

func (f aggFact) clone() aggFact {
	out := make(aggFact, len(f))
	for k, v := range f {
		out[k] = v
	}
	return out
}

// aggDomain is the reaching-assignment domain behind the overwrite check,
// built on the dataflow engine.
type aggDomain struct {
	info         *types.Info
	resNamed     *types.Named
	resultFields map[*types.Var]bool
}

func (d *aggDomain) Entry() dataflow.Fact { return aggFact{} }

// keysOf extracts the slots one statement assigns.
func (d *aggDomain) keysOf(n ast.Node) []aggKey {
	as, ok := n.(*ast.AssignStmt)
	if !ok {
		return nil
	}
	var keys []aggKey
	for i, lhs := range as.Lhs {
		if k, ok := d.keyOfLhs(lhs); ok {
			keys = append(keys, k)
			continue
		}
		// res := Result{Field: ...} seeds the slots of its keyed fields.
		if as.Tok != token.DEFINE && as.Tok != token.ASSIGN {
			continue
		}
		id, ok := lhs.(*ast.Ident)
		if !ok || len(as.Rhs) != len(as.Lhs) {
			continue
		}
		base := d.localResultVar(id)
		if base == nil {
			continue
		}
		lit, ok := unparen(as.Rhs[i]).(*ast.CompositeLit)
		if !ok {
			continue
		}
		for _, elt := range lit.Elts {
			kv, ok := elt.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			key, ok := kv.Key.(*ast.Ident)
			if !ok {
				continue
			}
			if f, ok := d.info.Uses[key].(*types.Var); ok && d.resultFields[f] {
				keys = append(keys, aggKey{base, f})
			}
		}
	}
	return keys
}

// keyOfLhs resolves `res.Field` (for a local res of type Result) to its
// slot.
func (d *aggDomain) keyOfLhs(lhs ast.Expr) (aggKey, bool) {
	sel := baseSelector(lhs)
	if sel == nil {
		return aggKey{}, false
	}
	s := d.info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return aggKey{}, false
	}
	f, ok := s.Obj().(*types.Var)
	if !ok || !d.resultFields[f] {
		return aggKey{}, false
	}
	id, ok := unparen(sel.X).(*ast.Ident)
	if !ok {
		return aggKey{}, false
	}
	base := d.localResultVar(id)
	if base == nil {
		return aggKey{}, false
	}
	return aggKey{base, f}, true
}

// localResultVar resolves id to a local variable of type Result or
// *Result.
func (d *aggDomain) localResultVar(id *ast.Ident) *types.Var {
	var v *types.Var
	if def, ok := d.info.Defs[id].(*types.Var); ok {
		v = def
	} else if use, ok := d.info.Uses[id].(*types.Var); ok {
		v = use
	}
	if v == nil || v.IsField() {
		return nil
	}
	t := v.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if t != d.resNamed.Obj().Type() {
		return nil
	}
	return v
}

func (d *aggDomain) Transfer(n ast.Node, in dataflow.Fact) dataflow.Fact {
	keys := d.keysOf(n)
	if len(keys) == 0 {
		return in
	}
	f := in.(aggFact).clone()
	for _, k := range keys {
		if _, ok := f[k]; !ok {
			f[k] = n.Pos()
		}
	}
	return f
}

func (d *aggDomain) Join(a, b dataflow.Fact) dataflow.Fact {
	fa, fb := a.(aggFact), b.(aggFact)
	out := fa.clone()
	for k, p := range fb {
		if old, ok := out[k]; !ok || p < old {
			out[k] = p
		}
	}
	return out
}

func (d *aggDomain) Equal(a, b dataflow.Fact) bool {
	fa, fb := a.(aggFact), b.(aggFact)
	if len(fa) != len(fb) {
		return false
	}
	for k, p := range fa {
		if op, ok := fb[k]; !ok || op != p {
			return false
		}
	}
	return true
}

// checkOverwrites flags plain reassignments of a Result field that an
// earlier aggregation already reached: the earlier value is silently
// lost (double-aggregation/overwrite bug). Compound assignments (+=)
// accumulate and are exempt.
func (c *checker) checkOverwrites(info *types.Info, fd *ast.FuncDecl, resNamed *types.Named, resultFields map[*types.Var]bool) {
	g := dataflow.Build(fd, fd.Body)
	dom := &aggDomain{info: info, resNamed: resNamed, resultFields: resultFields}
	sol := dataflow.Solve(g, dom)
	if sol == nil {
		return
	}
	for n, fact := range sol.Before {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.ASSIGN {
			continue
		}
		f := fact.(aggFact)
		for _, lhs := range as.Lhs {
			k, ok := dom.keyOfLhs(lhs)
			if !ok {
				continue
			}
			if prev, ok := f[k]; ok {
				c.pass.Reportf(lhs.Pos(), "Result field %s is reassigned, overwriting the value aggregated at %s",
					k.field.Name(), c.pass.Fset.Position(prev))
			}
		}
	}
}
