// Package exhaustive defines the enum-exhaustiveness vrlint pass. The
// simulator leans on iota enums (isa.Op, isa.FUClass, cpu.StallCause,
// mem.Level, mem.PrefetchSource, ...) with a trailing Num*/num* sentinel;
// a switch over such an enum that silently ignores a member, or an array
// meant to be indexed by one that is sized by hand, is how new opcodes
// and stall causes rot. The pass enforces:
//
//   - a switch over a module-defined enum type either covers every
//     non-sentinel constant of that type or carries an explicit default;
//   - an array indexed by an enum that has a Num* sentinel is sized by
//     that sentinel (length equality is checked, so a hand-written size
//     that drifts from the enum is flagged);
//   - a keyed array literal sized by such a sentinel, whose keys are that
//     enum's constants, has an element for every member: it is a
//     per-member table (isa's opcode table is one), and a missing row
//     would read as the element type's zero value.
//
// Only enum types declared inside this module (import path vrsim/...) are
// checked: switches over go/token.Token and friends are none of our
// business. Switches with non-constant case expressions, tagless
// switches, and type switches are skipped.
package exhaustive

import (
	"go/ast"
	"go/constant"
	"go/types"
	"sort"
	"strings"

	"vrsim/internal/analysis"
)

// Analyzer is the exhaustive pass.
var Analyzer = &analysis.Analyzer{
	Name: "exhaustive",
	Doc: "check that switches over simulator enums cover every member " +
		"(or default), enum-indexed arrays are sized by the Num* sentinel, " +
		"and keyed tables over an enum have a row for every member",
	Run: run,
}

// minMembers is the smallest constant set treated as an enum: a named
// type with a single constant is a named value, not an enumeration.
const minMembers = 2

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SwitchStmt:
				checkSwitch(pass, n)
			case *ast.IndexExpr:
				checkIndex(pass, n)
			case *ast.CompositeLit:
				checkTable(pass, n)
			}
			return true
		})
	}
	return nil
}

// A member is one declared constant of an enum type.
type member struct {
	name string
	val  string // exact constant value, the coverage key
}

// An enum describes one module-defined enumeration type.
type enum struct {
	named    *types.Named
	members  []member // non-sentinel, declaration-scope order
	sentinel *types.Const
}

// enumOf resolves t to a module-defined enum, or nil. When the type is
// declared in another package only its exported constants are reachable,
// so only those are required.
func enumOf(pass *analysis.Pass, t types.Type) *enum {
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	tn := named.Obj()
	if tn.Pkg() == nil || !strings.HasPrefix(tn.Pkg().Path(), "vrsim") {
		return nil
	}
	basic, ok := named.Underlying().(*types.Basic)
	if !ok || basic.Info()&(types.IsInteger|types.IsString) == 0 {
		return nil
	}
	e := &enum{named: named}
	foreign := tn.Pkg() != pass.Pkg
	scope := tn.Pkg().Scope()
	seen := map[string]bool{}
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !types.Identical(c.Type(), named) {
			continue
		}
		if foreign && !c.Exported() {
			continue
		}
		if strings.HasPrefix(name, "Num") || strings.HasPrefix(name, "num") {
			e.sentinel = c
			continue
		}
		key := c.Val().ExactString()
		if seen[key] {
			continue // alias constant: covering the value covers both names
		}
		seen[key] = true
		e.members = append(e.members, member{name: name, val: key})
	}
	if len(e.members) < minMembers {
		return nil
	}
	return e
}

// checkSwitch flags a switch over an enum that neither covers every
// member nor declares a default.
func checkSwitch(pass *analysis.Pass, sw *ast.SwitchStmt) {
	if sw.Tag == nil {
		return
	}
	tv, ok := pass.Info.Types[sw.Tag]
	if !ok {
		return
	}
	e := enumOf(pass, tv.Type)
	if e == nil {
		return
	}
	covered := map[string]bool{}
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			return // explicit default: author opted out of exhaustiveness
		}
		for _, expr := range cc.List {
			cv, ok := pass.Info.Types[expr]
			if !ok || cv.Value == nil {
				return // non-constant case: coverage is not decidable
			}
			covered[cv.Value.ExactString()] = true
		}
	}
	var missing []string
	for _, m := range e.members {
		if !covered[m.val] {
			missing = append(missing, m.name)
		}
	}
	if len(missing) == 0 {
		return
	}
	sort.Strings(missing)
	pass.Reportf(sw.Pos(), "switch over %s is not exhaustive: missing %s (add the cases or an explicit default)",
		typeName(e.named), strings.Join(missing, ", "))
}

// checkIndex flags indexing a hand-sized array with an enum that has a
// Num* sentinel of a different value.
func checkIndex(pass *analysis.Pass, ix *ast.IndexExpr) {
	xtv, ok := pass.Info.Types[ix.X]
	if !ok {
		return
	}
	xt := xtv.Type
	if p, ok := xt.Underlying().(*types.Pointer); ok {
		xt = p.Elem()
	}
	arr, ok := xt.Underlying().(*types.Array)
	if !ok {
		return
	}
	itv, ok := pass.Info.Types[ix.Index]
	if !ok {
		return
	}
	e := enumOf(pass, itv.Type)
	if e == nil || e.sentinel == nil {
		return
	}
	want, ok := sentinelValue(e.sentinel)
	if !ok {
		return
	}
	if arr.Len() != want {
		pass.Reportf(ix.Pos(), "array of length %d indexed by %s should be sized by %s (%d)",
			arr.Len(), typeName(e.named), e.sentinel.Name(), want)
	}
}

// checkTable flags a keyed array literal over an enum, sized by the
// enum's sentinel, that leaves a member without an element. Literals with
// a positional element or a non-constant key are not tables and are
// skipped.
func checkTable(pass *analysis.Pass, lit *ast.CompositeLit) {
	tv, ok := pass.Info.Types[lit]
	if !ok || len(lit.Elts) == 0 {
		return
	}
	arr, ok := tv.Type.Underlying().(*types.Array)
	if !ok {
		return
	}
	var e *enum
	covered := map[string]bool{}
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			return
		}
		ktv, ok := pass.Info.Types[kv.Key]
		if !ok || ktv.Value == nil {
			return
		}
		if e == nil {
			if e = enumOf(pass, ktv.Type); e == nil || e.sentinel == nil {
				return
			}
		} else if !types.Identical(ktv.Type, e.named) {
			return
		}
		covered[ktv.Value.ExactString()] = true
	}
	if want, ok := sentinelValue(e.sentinel); !ok || arr.Len() != want {
		return
	}
	var missing []string
	for _, m := range e.members {
		if !covered[m.val] {
			missing = append(missing, m.name)
		}
	}
	if len(missing) == 0 {
		return
	}
	sort.Strings(missing)
	pass.Reportf(lit.Pos(), "table over %s has no element for %s (add the rows)",
		typeName(e.named), strings.Join(missing, ", "))
}

func sentinelValue(c *types.Const) (int64, bool) {
	return constant.Int64Val(constant.ToInt(c.Val()))
}

func typeName(named *types.Named) string {
	tn := named.Obj()
	if tn.Pkg() != nil {
		return tn.Pkg().Name() + "." + tn.Name()
	}
	return tn.Name()
}
