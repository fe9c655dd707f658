// Module-wide call graph for the observe pass.
//
// Because each loaded package is type-checked in its own universe (the
// loader resolves imports from export data, so a type seen from two
// packages is two distinct types.Object trees), the graph is keyed by
// strings — "pkg/path.Func", "(pkg/path.Type).Method" and a synthetic
// "pkg/path.func@file:line" for function literals — never by types.Object
// identity.
//
// The graph is an over-approximation tuned for reachability questions:
//
//   - static calls resolve through types.Info to their declared callee;
//   - calls through an interface method resolve to every module method of
//     that name whose receiver type structurally implements the interface
//     (method-name-set inclusion — nominal identity is unavailable across
//     universes);
//   - calls through a func-typed struct field (c.CommitObserver(ev))
//     resolve to every function value the module ever assigns to a field
//     of that struct type and name;
//   - calls through a func-typed parameter resolve to every function value
//     passed in that argument position at any static call site of the
//     enclosing function (this is how RunChecked's periodic check closure
//     becomes reachable);
//   - a function literal is additionally reachable from the function that
//     syntactically contains it (creating a closure in a hot path is
//     itself interesting, and the closure usually runs).
package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// A FuncNode is one function or method (or function literal) of the
// module, addressable by its string key.
type FuncNode struct {
	Key string
	// Pkg is the package the function is declared in.
	Pkg *Package
	// Decl is the declaration, nil for literals.
	Decl *ast.FuncDecl
	// Lit is the literal, nil for declarations.
	Lit *ast.FuncLit
	// Body is the function body (nil for bodyless declarations).
	Body *ast.BlockStmt
}

// Name returns a human-readable name for diagnostics: the key without the
// package path prefix.
func (n *FuncNode) Name() string {
	key := n.Key
	if i := strings.LastIndex(key, "/"); i >= 0 {
		prefix := ""
		if strings.HasPrefix(key, "(") {
			prefix = "(" // keep the method-key shape: (pkg.Type).Method
		}
		key = prefix + key[i+1:]
	}
	return key
}

// A CallGraph is the module-wide over-approximate call graph.
type CallGraph struct {
	// Funcs maps every function key to its node.
	Funcs map[string]*FuncNode
	// Edges maps caller keys to callee keys (module functions only).
	Edges map[string][]string

	// fieldAssigns maps "pkg/path.Struct.Field" (a func-typed field) to
	// the keys of every function value assigned to it anywhere.
	fieldAssigns map[string][]string
	// methodsByType maps "pkg/path.Type" to its declared method names.
	methodsByType map[string]map[string]string // type key -> method name -> func key
}

// funcKeyOf renders the stable string key of a declared function or
// method, or "" when f is nil or packageless (builtins, error.Error).
func funcKeyOf(f *types.Func) string {
	if f == nil || f.Pkg() == nil {
		return ""
	}
	sig, ok := f.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			return fmt.Sprintf("(%s.%s).%s", f.Pkg().Path(), n.Obj().Name(), f.Name())
		}
		// Interface receiver (the abstract method): key it like a method
		// so name-set resolution can still find it, but it never owns a
		// body.
		if n, ok := t.(*types.Interface); ok {
			_ = n
			return fmt.Sprintf("(%s.iface).%s", f.Pkg().Path(), f.Name())
		}
	}
	return f.Pkg().Path() + "." + f.Name()
}

// TypeKey renders "pkg/path.Name" for a (possibly pointer-wrapped)
// named type, or "".
func TypeKey(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return ""
	}
	return n.Obj().Pkg().Path() + "." + n.Obj().Name()
}

// BuildCallGraph constructs the module call graph over the loaded
// packages.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{
		Funcs:         map[string]*FuncNode{},
		Edges:         map[string][]string{},
		fieldAssigns:  map[string][]string{},
		methodsByType: map[string]map[string]string{},
	}
	// Pass 1: index every declared function and literal.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				key := funcKeyOf(obj)
				if key == "" {
					continue
				}
				g.Funcs[key] = &FuncNode{Key: key, Pkg: pkg, Decl: fd, Body: fd.Body}
				if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
					tk := TypeKey(sig.Recv().Type())
					if tk != "" {
						if g.methodsByType[tk] == nil {
							g.methodsByType[tk] = map[string]string{}
						}
						g.methodsByType[tk][fd.Name.Name] = key
					}
				}
				// Literals nested in this declaration.
				g.indexLiterals(pkg, key, fd.Body)
			}
		}
	}
	// Pass 2: edges.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				key := funcKeyOf(obj)
				if key == "" {
					continue
				}
				g.edgesIn(pkg, key, fd.Body, fd.Type)
			}
		}
	}
	return g
}

// litKey renders the synthetic key of a function literal.
func (g *CallGraph) litKey(pkg *Package, lit *ast.FuncLit) string {
	pos := pkg.Fset.Position(lit.Pos())
	file := pos.Filename
	if i := strings.LastIndexByte(file, '/'); i >= 0 {
		file = file[i+1:]
	}
	return fmt.Sprintf("%s.func@%s:%d", pkg.PkgPath, file, pos.Line)
}

// indexLiterals registers every function literal under root and links it
// from its syntactic container.
func (g *CallGraph) indexLiterals(pkg *Package, container string, root ast.Node) {
	if root == nil {
		return
	}
	// Track the innermost containing function key as we descend.
	var walk func(n ast.Node, owner string)
	walk = func(n ast.Node, owner string) {
		ast.Inspect(n, func(m ast.Node) bool {
			lit, ok := m.(*ast.FuncLit)
			if !ok || m == n {
				return true
			}
			key := g.litKey(pkg, lit)
			if g.Funcs[key] == nil {
				g.Funcs[key] = &FuncNode{Key: key, Pkg: pkg, Lit: lit, Body: lit.Body}
			}
			g.addEdge(owner, key)
			walk(lit, key)
			return false // walk recurses into the literal itself
		})
	}
	walk(root, container)
}

func (g *CallGraph) addEdge(from, to string) {
	if from == "" || to == "" {
		return
	}
	for _, e := range g.Edges[from] {
		if e == to {
			return
		}
	}
	g.Edges[from] = append(g.Edges[from], to)
}

// edgesIn adds the call edges found inside body, attributing calls inside
// nested literals to the literal's own key.
func (g *CallGraph) edgesIn(pkg *Package, owner string, body *ast.BlockStmt, ftype *ast.FuncType) {
	if body == nil {
		return
	}
	binds := g.collectLocalBinds(pkg, body)
	var walk func(n ast.Node, owner string, ftype *ast.FuncType)
	walk = func(n ast.Node, owner string, ftype *ast.FuncType) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				if m == n {
					return true
				}
				walk(m, g.litKey(pkg, m), m.Type)
				return false
			case *ast.CallExpr:
				g.callEdges(pkg, owner, ftype, binds, m)
			case *ast.AssignStmt:
				g.recordFieldAssigns(pkg, m)
			case *ast.CompositeLit:
				g.recordCompositeAssigns(pkg, m)
			}
			return true
		})
	}
	walk(body, owner, ftype)
}

// collectLocalBinds indexes the func values bound to local variables
// anywhere under body — `f := core.step`, `var f = helper`, later
// re-assignments — keyed by the variable object so closures referring to
// an outer binding resolve too. Bound-method values (core.step) key the
// method itself; the receiver binding is flow-insensitive, like the
// func-valued-field tracking this mirrors.
func (g *CallGraph) collectLocalBinds(pkg *Package, body *ast.BlockStmt) map[*types.Var][]string {
	binds := map[*types.Var][]string{}
	record := func(id *ast.Ident, rhs ast.Expr) {
		v, ok := pkg.Info.Defs[id].(*types.Var)
		if !ok {
			v, ok = pkg.Info.Uses[id].(*types.Var) // plain re-assignment
		}
		if !ok || v == nil {
			return
		}
		if _, ok := v.Type().Underlying().(*types.Signature); !ok {
			return
		}
		if to := g.funcValueKey(pkg, rhs); to != "" {
			binds[v] = append(binds[v], to)
		}
	}
	ast.Inspect(body, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.AssignStmt:
			for i, lhs := range m.Lhs {
				if i >= len(m.Rhs) {
					break // multi-value RHS carries no direct func values
				}
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					record(id, m.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			for i, name := range m.Names {
				if i < len(m.Values) {
					record(name, m.Values[i])
				}
			}
		}
		return true
	})
	return binds
}

// callEdges resolves one call expression to edges from owner.
func (g *CallGraph) callEdges(pkg *Package, owner string, ftype *ast.FuncType, binds map[*types.Var][]string, call *ast.CallExpr) {
	// Static callee.
	if f := FuncObj(pkg.Info, call); f != nil {
		callee := funcKeyOf(f)
		if g.Funcs[callee] != nil {
			g.addEdge(owner, callee)
			// Func-valued arguments: the callee may invoke them.
			g.bindArgEdges(pkg, callee, f, call)
		}
		// Interface dispatch: resolve to implementations too.
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if s, ok := pkg.Info.Selections[sel]; ok && s.Kind() == types.MethodVal {
				if types.IsInterface(s.Recv()) {
					for _, impl := range g.implementations(s.Recv(), f.Name()) {
						g.addEdge(owner, impl)
					}
				}
			}
		}
		return
	}
	// Call through a func-typed struct field: x.Field(...).
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := pkg.Info.Selections[sel]; ok && s.Kind() == types.FieldVal {
			fk := TypeKey(s.Recv())
			if fk != "" {
				for _, to := range g.fieldAssigns[fk+"."+sel.Sel.Name] {
					g.addEdge(owner, to)
				}
			}
		}
		return
	}
	// Call through an identifier: local func value or parameter.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if v, ok := pkg.Info.Uses[id].(*types.Var); ok {
			// A parameter: resolved lazily via paramBindings in Resolve;
			// encode as a pseudo-edge "owner -> param:<owner>#<i>".
			if i := paramIndex(pkg, ftype, v); i >= 0 {
				g.addEdge(owner, fmt.Sprintf("param:%s#%d", owner, i))
			}
			// A local binding: f := core.step; f() — every func value
			// bound to v anywhere in the enclosing declaration.
			for _, to := range binds[v] {
				g.addEdge(owner, to)
			}
		}
	}
}

// paramIndex returns the position of v in ftype's parameter list, or -1.
func paramIndex(pkg *Package, ftype *ast.FuncType, v *types.Var) int {
	if ftype == nil || ftype.Params == nil {
		return -1
	}
	i := 0
	for _, field := range ftype.Params.List {
		for _, name := range field.Names {
			if pkg.Info.Defs[name] == v {
				return i
			}
			i++
		}
		if len(field.Names) == 0 {
			i++
		}
	}
	return -1
}

// bindArgEdges records, for each func-valued argument of a static call,
// an edge from the callee's parameter pseudo-node to the argument's
// function — which Resolve collapses into callee -> argument.
func (g *CallGraph) bindArgEdges(pkg *Package, calleeKey string, callee *types.Func, call *ast.CallExpr) {
	sig, ok := callee.Type().(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		pi := i
		if pi >= sig.Params().Len() {
			if sig.Variadic() {
				pi = sig.Params().Len() - 1
			} else {
				continue
			}
		}
		if _, ok := sig.Params().At(pi).Type().Underlying().(*types.Signature); !ok {
			continue
		}
		if to := g.funcValueKey(pkg, arg); to != "" {
			g.addEdge(fmt.Sprintf("param:%s#%d", calleeKey, pi), to)
		}
	}
}

// funcValueKey resolves an expression that denotes a function value to a
// key: a func literal, a declared function, or a method value.
func (g *CallGraph) funcValueKey(pkg *Package, e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.FuncLit:
		return g.litKey(pkg, e)
	case *ast.Ident:
		if f, ok := pkg.Info.Uses[e].(*types.Func); ok {
			return funcKeyOf(f)
		}
	case *ast.SelectorExpr:
		if f, ok := pkg.Info.Uses[e.Sel].(*types.Func); ok {
			return funcKeyOf(f)
		}
	}
	return ""
}

// recordFieldAssigns indexes x.Field = fn assignments for func-typed
// struct fields.
func (g *CallGraph) recordFieldAssigns(pkg *Package, as *ast.AssignStmt) {
	for i, lhs := range as.Lhs {
		if i >= len(as.Rhs) {
			break // multi-value RHS: no func values to track
		}
		sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
		if !ok {
			continue
		}
		s, ok := pkg.Info.Selections[sel]
		if !ok || s.Kind() != types.FieldVal {
			continue
		}
		if _, ok := s.Obj().Type().Underlying().(*types.Signature); !ok {
			continue
		}
		tk := TypeKey(s.Recv())
		if tk == "" {
			continue
		}
		if to := g.funcValueKey(pkg, as.Rhs[i]); to != "" {
			key := tk + "." + sel.Sel.Name
			g.fieldAssigns[key] = append(g.fieldAssigns[key], to)
		}
	}
}

// recordCompositeAssigns indexes T{Field: fn} composite literals for
// func-typed struct fields.
func (g *CallGraph) recordCompositeAssigns(pkg *Package, cl *ast.CompositeLit) {
	tv, ok := pkg.Info.Types[cl]
	if !ok {
		return
	}
	tk := TypeKey(tv.Type)
	if tk == "" {
		return
	}
	for _, el := range cl.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		id, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		if to := g.funcValueKey(pkg, kv.Value); to != "" {
			key := tk + "." + id.Name
			g.fieldAssigns[key] = append(g.fieldAssigns[key], to)
		}
	}
}

// implementations returns the keys of every module method named name
// whose receiver type structurally implements iface (method-name-set
// inclusion; nominal identity does not survive the per-package type
// universes).
func (g *CallGraph) implementations(iface types.Type, name string) []string {
	it, ok := iface.Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var need []string
	for i := 0; i < it.NumMethods(); i++ {
		need = append(need, it.Method(i).Name())
	}
	var out []string
	for _, methods := range g.methodsByType {
		ok := true
		for _, n := range need {
			if _, has := methods[n]; !has {
				ok = false
				break
			}
		}
		if ok {
			if key, has := methods[name]; has {
				out = append(out, key)
			}
		}
	}
	sort.Strings(out)
	return out
}

// CalleeKeys resolves one call expression to the keys of its possible
// module callees: the static callee for direct calls, plus every
// structural implementation when the call dispatches through an
// interface. Calls with no module-resident callee resolve to nil.
func (g *CallGraph) CalleeKeys(pkg *Package, call *ast.CallExpr) []string {
	f := FuncObj(pkg.Info, call)
	if f == nil {
		return nil
	}
	var out []string
	add := func(k string) {
		if k == "" || g.Funcs[k] == nil {
			return
		}
		for _, e := range out {
			if e == k {
				return
			}
		}
		out = append(out, k)
	}
	add(funcKeyOf(f))
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := pkg.Info.Selections[sel]; ok && s.Kind() == types.MethodVal && types.IsInterface(s.Recv()) {
			for _, impl := range g.implementations(s.Recv(), f.Name()) {
				add(impl)
			}
		}
	}
	return out
}

// FieldAssignees returns the keys of every function value assigned to a
// struct field with the given name anywhere in the module, across all
// struct types.
func (g *CallGraph) FieldAssignees(fieldName string) []string {
	var out []string
	for key, tos := range g.fieldAssigns {
		if strings.HasSuffix(key, "."+fieldName) {
			out = append(out, tos...)
		}
	}
	sort.Strings(out)
	return out
}

// Reachable computes the transitive closure from the root keys,
// collapsing parameter pseudo-nodes (param:F#i) so that functions passed
// as arguments to a reachable function become reachable.
func (g *CallGraph) Reachable(roots []string) map[string]bool {
	seen := map[string]bool{}
	var queue []string
	push := func(k string) {
		if k != "" && !seen[k] {
			seen[k] = true
			queue = append(queue, k)
		}
	}
	for _, r := range roots {
		push(r)
	}
	for len(queue) > 0 {
		k := queue[0]
		queue = queue[1:]
		for _, to := range g.Edges[k] {
			if strings.HasPrefix(to, "param:") {
				// Calls through a parameter: whatever was ever bound there.
				for _, bound := range g.Edges[to] {
					push(bound)
				}
				continue
			}
			push(to)
		}
	}
	// Drop pseudo-nodes from the result.
	for k := range seen {
		if strings.HasPrefix(k, "param:") {
			delete(seen, k)
		}
	}
	return seen
}

// SortedKeys returns the graph's function keys in deterministic order.
func (g *CallGraph) SortedKeys() []string {
	keys := make([]string, 0, len(g.Funcs))
	for k := range g.Funcs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
