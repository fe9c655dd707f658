package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// A Def is one definition of a local variable: an assignment, short
// declaration, var spec, inc/dec, parameter/receiver binding, or range
// binding.
type Def struct {
	Var *types.Var
	// Node is the defining statement (or *ast.Field for parameters,
	// *ast.RangeStmt for range bindings).
	Node ast.Node
	// Rhs is the defining value when syntactically evident: the matching
	// right-hand side of an assignment or var spec. Nil for parameters,
	// range bindings, inc/dec and tuple-call assignments.
	Rhs ast.Expr
}

// Chains holds the def-use structure of one function: every definition of
// every local, and for every use of a local the set of definitions that
// reach it.
type Chains struct {
	// Defs lists each local's definitions in source order.
	Defs map[*types.Var][]*Def
	// Reach maps each use identifier to the definitions reaching it,
	// in source order.
	Reach map[*ast.Ident][]*Def
}

// defsFact is the reaching-definitions fact: per var, the set of defs
// that may reach this point.
type defsFact map[*types.Var]map[*Def]bool

func (f defsFact) clone() defsFact {
	out := make(defsFact, len(f))
	for v, ds := range f {
		nds := make(map[*Def]bool, len(ds))
		for d := range ds {
			nds[d] = true
		}
		out[v] = nds
	}
	return out
}

// defsDomain implements Domain for reaching definitions.
type defsDomain struct {
	info  *types.Info
	entry []*Def // parameter/receiver/result bindings
	// defAt indexes the Defs created during a pre-pass, so Transfer can
	// look up the Def for a (node, var) pair without allocating per visit.
	defAt map[ast.Node]map[*types.Var]*Def
}

func (d *defsDomain) Entry() Fact {
	f := defsFact{}
	for _, def := range d.entry {
		f[def.Var] = map[*Def]bool{def: true}
	}
	return f
}

func (d *defsDomain) Transfer(n ast.Node, in Fact) Fact {
	defs := d.defAt[n]
	if len(defs) == 0 {
		return in
	}
	f := in.(defsFact).clone()
	for v, def := range defs {
		f[v] = map[*Def]bool{def: true}
	}
	return f
}

func (d *defsDomain) Join(a, b Fact) Fact {
	fa, fb := a.(defsFact), b.(defsFact)
	out := fa.clone()
	for v, ds := range fb {
		if out[v] == nil {
			out[v] = map[*Def]bool{}
		}
		for def := range ds {
			out[v][def] = true
		}
	}
	return out
}

func (d *defsDomain) Equal(a, b Fact) bool {
	fa, fb := a.(defsFact), b.(defsFact)
	if len(fa) != len(fb) {
		return false
	}
	for v, ds := range fa {
		ods := fb[v]
		if len(ds) != len(ods) {
			return false
		}
		for def := range ds {
			if !ods[def] {
				return false
			}
		}
	}
	return true
}

// BuildChains computes def-use chains for fn (a *ast.FuncDecl or
// *ast.FuncLit with the given body), restricted to variables declared
// within it (parameters, receivers, named results and body locals).
// Returns nil when the body contains unsupported control flow.
func BuildChains(fn ast.Node, body *ast.BlockStmt, info *types.Info) *Chains {
	g := Build(fn, body)
	if g.Unsupported {
		return nil
	}

	dom := &defsDomain{info: info, defAt: map[ast.Node]map[*types.Var]*Def{}}
	all := map[*types.Var][]*Def{}
	record := func(n ast.Node, v *types.Var, rhs ast.Expr) *Def {
		def := &Def{Var: v, Node: n, Rhs: rhs}
		all[v] = append(all[v], def)
		if n != nil {
			if dom.defAt[n] == nil {
				dom.defAt[n] = map[*types.Var]*Def{}
			}
			dom.defAt[n][v] = def
		}
		return def
	}

	// Entry bindings: receiver, parameters, named results.
	var ft *ast.FuncType
	switch fn := fn.(type) {
	case *ast.FuncDecl:
		ft = fn.Type
		if fn.Recv != nil {
			for _, fld := range fn.Recv.List {
				for _, name := range fld.Names {
					if v, ok := info.Defs[name].(*types.Var); ok {
						dom.entry = append(dom.entry, record(fld, v, nil))
					}
				}
			}
		}
	case *ast.FuncLit:
		ft = fn.Type
	default:
		return nil
	}
	for _, list := range []*ast.FieldList{ft.Params, ft.Results} {
		if list == nil {
			continue
		}
		for _, fld := range list.List {
			for _, name := range fld.Names {
				if v, ok := info.Defs[name].(*types.Var); ok {
					dom.entry = append(dom.entry, record(fld, v, nil))
				}
			}
		}
	}

	// Pre-pass: index every definition site in the body. Nested function
	// literals are opaque: their bodies neither define nor use the outer
	// function's facts in this intra-procedural model.
	localVar := func(e ast.Expr) *types.Var {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name == "_" {
			return nil
		}
		if v, ok := info.Defs[id].(*types.Var); ok {
			return v
		}
		if v, ok := info.Uses[id].(*types.Var); ok && !v.IsField() && v.Pkg() != nil && v.Parent() != v.Pkg().Scope() {
			return v
		}
		return nil
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				v := localVar(lhs)
				if v == nil {
					continue
				}
				var rhs ast.Expr
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				}
				record(n, v, rhs)
			}
		case *ast.IncDecStmt:
			if v := localVar(n.X); v != nil {
				record(n, v, nil)
			}
		case *ast.DeclStmt:
			gd, ok := n.Decl.(*ast.GenDecl)
			if !ok {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					v, ok := info.Defs[name].(*types.Var)
					if !ok {
						continue
					}
					var rhs ast.Expr
					if len(vs.Values) == len(vs.Names) {
						rhs = vs.Values[i]
					}
					record(n, v, rhs)
				}
			}
		case *ast.RangeStmt:
			for _, e := range []ast.Expr{n.Key, n.Value} {
				if e == nil {
					continue
				}
				if v := localVar(e); v != nil {
					record(n, v, nil)
				}
			}
		}
		return true
	})

	sol := Solve(g, dom)
	if sol == nil {
		return nil
	}

	ch := &Chains{Defs: all, Reach: map[*ast.Ident][]*Def{}}
	for n, fact := range sol.Before {
		f := fact.(defsFact)
		ast.Inspect(n, func(sub ast.Node) bool {
			if _, ok := sub.(*ast.FuncLit); ok {
				return false
			}
			id, ok := sub.(*ast.Ident)
			if !ok {
				return true
			}
			v, ok := info.Uses[id].(*types.Var)
			if !ok || all[v] == nil {
				return true
			}
			var reach []*Def
			for def := range f[v] {
				reach = append(reach, def)
			}
			sort.Slice(reach, func(i, j int) bool {
				pi, pj := defPos(reach[i]), defPos(reach[j])
				return pi < pj
			})
			ch.Reach[id] = reach
			return true
		})
	}
	return ch
}

func defPos(d *Def) token.Pos {
	if d.Node != nil {
		return d.Node.Pos()
	}
	return token.NoPos
}
