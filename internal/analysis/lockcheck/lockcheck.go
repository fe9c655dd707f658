// Package lockcheck implements the annotation-driven lock-discipline
// pass for the parallel harness. A struct field annotated
//
//	done map[string]Record // vrlint:guardedby mu
//
// may only be read or written on paths where the matching mutex field of
// the same object is held: the pass runs the PR 3 dataflow engine with a
// per-object lock-state lattice ({unlocked, locked, maybe}, keyed by the
// rendered access path of the mutex, e.g. "j.mu") over every function in
// the module, and flags
//
//   - guarded-field accesses whose incoming lock state is not
//     definitely-locked, and
//   - Lock() calls whose incoming state is already definitely-locked
//     (double lock, a guaranteed deadlock for sync.Mutex).
//
// `defer mu.Unlock()` keeps the state locked to function exit, matching
// the lock-at-entry idiom the harness uses throughout. A freshly
// constructed object (composite literal or new() in the same function)
// is exempt until it can have escaped: constructors initialize fields
// without the lock by design.
package lockcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"

	"vrsim/internal/analysis"
	"vrsim/internal/analysis/dataflow"
)

var Analyzer = &analysis.ModuleAnalyzer{
	Name: "lockcheck",
	Doc:  "verify vrlint:guardedby-annotated fields are only accessed under their mutex",
	Run:  run,
}

// guardRx matches the annotation inside a field's doc or line comment.
// Both "// vrlint:guardedby mu" and "//vrlint:guardedby mu" are accepted.
var guardRx = regexp.MustCompile(`vrlint:guardedby\s+([A-Za-z_]\w*)`)

// lock states. The zero value (absent from the fact map) is unlocked.
const (
	unlocked = 0
	locked   = 1
	maybe    = 2 // locked on some paths only
)

type checker struct {
	pass *analysis.ModulePass
	// guards maps "pkg/path.Struct" -> field name -> mutex field name.
	guards map[string]map[string]string
}

func run(pass *analysis.ModulePass) error {
	c := &checker{pass: pass, guards: map[string]map[string]string{}}
	for _, pkg := range pass.Pkgs {
		c.collectGuards(pkg)
	}
	if len(c.guards) == 0 {
		return nil
	}
	for _, pkg := range pass.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				c.checkFunc(pkg, fd, fd.Body)
				// Nested literals get their own graphs; their entry state is
				// conservatively empty (not inheriting the creator's locks).
				ast.Inspect(fd.Body, func(m ast.Node) bool {
					if lit, ok := m.(*ast.FuncLit); ok {
						c.checkFunc(pkg, lit, lit.Body)
					}
					return true
				})
			}
		}
	}
	return nil
}

// collectGuards indexes the vrlint:guardedby annotations of one package
// and validates that each names a mutex field of the same struct.
func (c *checker) collectGuards(pkg *analysis.Package) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				typeKey := pkg.PkgPath + "." + ts.Name.Name
				for _, field := range st.Fields.List {
					mu := guardAnnotation(field)
					if mu == "" {
						continue
					}
					if !hasMutexField(pkg, st, mu) {
						c.pass.Reportf(field.Pos(),
							"vrlint:guardedby names %q, which is not a sync.Mutex/RWMutex field of %s",
							mu, ts.Name.Name)
						continue
					}
					for _, name := range field.Names {
						if c.guards[typeKey] == nil {
							c.guards[typeKey] = map[string]string{}
						}
						c.guards[typeKey][name.Name] = mu
					}
				}
			}
		}
	}
}

// guardAnnotation extracts the guardedby mutex name from a field's doc or
// trailing comment.
func guardAnnotation(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, cm := range cg.List {
			if m := guardRx.FindStringSubmatch(cm.Text); m != nil {
				return m[1]
			}
		}
	}
	return ""
}

// hasMutexField reports whether the struct declares a field named mu of
// type sync.Mutex or sync.RWMutex.
func hasMutexField(pkg *analysis.Package, st *ast.StructType, mu string) bool {
	for _, field := range st.Fields.List {
		for _, name := range field.Names {
			if name.Name != mu {
				continue
			}
			t := pkg.Info.Types[field.Type].Type
			return isMutexType(t)
		}
	}
	return false
}

func isMutexType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == "sync" &&
		(n.Obj().Name() == "Mutex" || n.Obj().Name() == "RWMutex")
}

// lockFact is the dataflow fact: mutex access path -> lock state.
type lockFact map[string]int8

func (f lockFact) clone() lockFact {
	out := make(lockFact, len(f))
	for k, v := range f {
		out[k] = v
	}
	return out
}

// domain implements dataflow.Domain over lockFact.
type domain struct {
	c   *checker
	pkg *analysis.Package
}

func (d domain) Entry() dataflow.Fact { return lockFact{} }

func (d domain) Transfer(n ast.Node, in dataflow.Fact) dataflow.Fact {
	fact := in.(lockFact)
	var out lockFact
	d.c.walkLockOps(d.pkg, n, func(key string, lock bool, pos token.Pos) {
		if out == nil {
			out = fact.clone()
		}
		if lock {
			out[key] = locked
		} else {
			delete(out, key)
		}
	})
	if out == nil {
		return fact
	}
	return out
}

func (d domain) Join(a, b dataflow.Fact) dataflow.Fact {
	fa, fb := a.(lockFact), b.(lockFact)
	out := lockFact{}
	for k, va := range fa {
		if vb, ok := fb[k]; ok && vb == va {
			out[k] = va
		} else {
			out[k] = maybe
		}
	}
	for k := range fb {
		if _, ok := fa[k]; !ok {
			out[k] = maybe
		}
	}
	return out
}

func (d domain) Equal(a, b dataflow.Fact) bool {
	fa, fb := a.(lockFact), b.(lockFact)
	if len(fa) != len(fb) {
		return false
	}
	for k, v := range fa {
		if fb[k] != v {
			return false
		}
	}
	return true
}

// checkFunc solves the lock-state dataflow for one function and reports
// unguarded accesses and double locks.
func (c *checker) checkFunc(pkg *analysis.Package, fn ast.Node, body *ast.BlockStmt) {
	if body == nil || !c.mentionsGuarded(pkg, body) {
		return
	}
	g := dataflow.Build(fn, body)
	sol := dataflow.Solve(g, domain{c: c, pkg: pkg})
	if sol == nil {
		return // goto or budget blow-out: cannot reason, stay silent
	}
	fresh := freshLocals(pkg, body)
	for _, blk := range g.Blocks {
		if _, reachable := sol.In[blk]; !reachable {
			continue
		}
		for _, n := range blk.Nodes {
			before, ok := sol.Before[n]
			if !ok {
				continue
			}
			fact := before.(lockFact).clone()
			c.checkNode(pkg, n, fact, fresh)
		}
	}
}

// mentionsGuarded cheaply pre-filters functions that touch no guarded
// field and no mutex.
func (c *checker) mentionsGuarded(pkg *analysis.Package, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(m ast.Node) bool {
		if found {
			return false
		}
		sel, ok := m.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if s, ok := pkg.Info.Selections[sel]; ok && s.Kind() == types.FieldVal {
			tk := analysis.TypeKey(s.Recv())
			if c.guards[tk] != nil {
				found = true
			}
		}
		return true
	})
	return found
}

// scope narrows a CFG node to the parts evaluated at that program point:
// a RangeStmt node stands only for its ranged-operand binding (the body
// statements are separate nodes), and everything else stands for itself.
func scope(n ast.Node) ast.Node {
	if rs, ok := n.(*ast.RangeStmt); ok {
		return rs.X
	}
	return n
}

// checkNode replays one straight-line node, updating the local fact on
// lock operations and checking guarded accesses against it.
func (c *checker) checkNode(pkg *analysis.Package, n ast.Node, fact lockFact, fresh map[types.Object]bool) {
	n = scope(n)
	deferred := deferredCalls(n)
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false // literal bodies are checked as their own functions
		case *ast.CallExpr:
			if key, lock, ok := lockOp(pkg, m); ok && !deferred[m] {
				if lock {
					if fact[key] == locked {
						c.pass.Reportf(m.Pos(), "double lock of %s", key)
					}
					fact[key] = locked
				} else {
					delete(fact, key)
				}
			}
		case *ast.SelectorExpr:
			c.checkAccess(pkg, m, fact, fresh)
		}
		return true
	})
}

// checkAccess reports a guarded-field access whose mutex is not
// definitely held.
func (c *checker) checkAccess(pkg *analysis.Package, sel *ast.SelectorExpr, fact lockFact, fresh map[types.Object]bool) {
	s, ok := pkg.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return
	}
	tk := analysis.TypeKey(s.Recv())
	mu, guarded := c.guards[tk][sel.Sel.Name]
	if !guarded {
		return
	}
	base := renderPath(sel.X)
	if base == "" {
		return // an access path the renderer cannot name; cannot reason
	}
	if root := analysis.RootIdent(sel.X); root != nil {
		if obj := pkg.Info.Uses[root]; obj != nil && fresh[obj] {
			return // freshly constructed, not yet escaped
		}
	}
	key := base + "." + mu
	if fact[key] != locked {
		c.pass.Reportf(sel.Pos(), "%s.%s is guarded by %q but accessed without holding %s",
			base, sel.Sel.Name, mu, key)
	}
}

// lockOp recognizes <path>.Lock/Unlock/RLock/RUnlock() on a sync mutex
// and returns the mutex access-path key and whether it acquires.
func lockOp(pkg *analysis.Package, call *ast.CallExpr) (key string, lock bool, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel || len(call.Args) != 0 {
		return "", false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		lock = true
	case "Unlock", "RUnlock":
		lock = false
	default:
		return "", false, false
	}
	if tv, has := pkg.Info.Types[sel.X]; !has || !isMutexType(tv.Type) {
		return "", false, false
	}
	key = renderPath(sel.X)
	if key == "" {
		return "", false, false
	}
	return key, lock, true
}

// walkLockOps invokes f for every non-deferred lock operation in n.
func (c *checker) walkLockOps(pkg *analysis.Package, n ast.Node, f func(key string, lock bool, pos token.Pos)) {
	n = scope(n)
	deferred := deferredCalls(n)
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false // a literal's lock ops apply when it runs, not here
		}
		if call, ok := m.(*ast.CallExpr); ok && !deferred[call] {
			if key, lock, ok := lockOp(pkg, call); ok {
				f(key, lock, call.Pos())
			}
		}
		return true
	})
}

// deferredCalls collects the call expressions of defer and go statements
// under n: their lock effects do not apply at this program point.
func deferredCalls(n ast.Node) map[*ast.CallExpr]bool {
	out := map[*ast.CallExpr]bool{}
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.DeferStmt:
			out[m.Call] = true
		case *ast.GoStmt:
			out[m.Call] = true
		}
		return true
	})
	return out
}

// freshLocals collects objects bound to freshly constructed values
// (composite literals, &T{...}, new(T)) anywhere in the function; field
// initialization on them before publication needs no lock.
func freshLocals(pkg *analysis.Package, body *ast.BlockStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	record := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			return
		}
		if !isFreshExpr(pkg, rhs) {
			return
		}
		if obj := pkg.Info.Defs[id]; obj != nil {
			out[obj] = true
		}
	}
	ast.Inspect(body, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.AssignStmt:
			if m.Tok != token.DEFINE {
				return true
			}
			for i := range m.Lhs {
				if i < len(m.Rhs) {
					record(m.Lhs[i], m.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			for i := range m.Names {
				if i < len(m.Values) {
					record(m.Names[i], m.Values[i])
				}
			}
		}
		return true
	})
	return out
}

// isFreshExpr reports whether e constructs a brand-new value.
func isFreshExpr(pkg *analysis.Package, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			_, ok := ast.Unparen(e.X).(*ast.CompositeLit)
			return ok
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && id.Name == "new" {
			_, isBuiltin := pkg.Info.Uses[id].(*types.Builtin)
			return isBuiltin
		}
	}
	return false
}

// renderPath renders a stable textual access path for an expression made
// of identifiers, field selections, derefs and parens — "" for anything
// else (indexing, calls), which the pass then declines to reason about.
func renderPath(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := renderPath(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	case *ast.ParenExpr:
		return renderPath(e.X)
	case *ast.StarExpr:
		return renderPath(e.X)
	}
	return ""
}
