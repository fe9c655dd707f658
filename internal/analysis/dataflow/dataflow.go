// Package dataflow is an SSA-lite intra-procedural dataflow engine for the
// vrlint passes: a control-flow-graph builder over the parsed AST, a
// worklist solver parameterized by a small transfer-function interface
// (Domain), and reaching-definitions/def-use chains built on top of it.
//
// The engine is deliberately "SSA-lite": it does not rename values or
// build phi nodes. Facts are keyed on types.Var objects (and, in client
// domains, on field paths), joins happen at block boundaries, and edges
// carry no condition: both sides of a branch see the same fact. That is
// exactly enough power for the dataflow passes vrlint ships — statsflow's
// aggregation tracing and lockcheck's held-lock sets — while staying
// dependency-free like the rest of internal/analysis (no
// golang.org/x/tools).
//
// The lattice/transfer contract the solver assumes is documented in
// DESIGN.md §7 ("Static invariants").
package dataflow

import (
	"go/ast"
	"go/token"
)

// A CFG is the control-flow graph of one function body. Blocks hold
// straight-line statement (and expression) nodes in execution order.
type CFG struct {
	// Fn is the *ast.FuncDecl or *ast.FuncLit the graph was built from.
	Fn ast.Node
	// Blocks lists every block, entry first.
	Blocks []*Block
	// Entry is the function entry block; Exit collects every return,
	// panic and fallen-off-the-end path.
	Entry, Exit *Block
	// Unsupported is set when the body contains a construct the builder
	// does not model (goto). Clients must not trust the graph then.
	Unsupported bool
}

// A Block is a straight-line sequence of nodes with its successors.
type Block struct {
	Index int
	// Nodes are simple statements (assignments, declarations, calls,
	// returns) plus a few expression nodes (switch tags) in order.
	Nodes []ast.Node
	Succs []*Block
}

// Build constructs the CFG of a function body. fn is the enclosing
// *ast.FuncDecl or *ast.FuncLit (recorded for clients; the builder only
// walks body).
func Build(fn ast.Node, body *ast.BlockStmt) *CFG {
	b := &builder{cfg: &CFG{Fn: fn}}
	b.cfg.Entry = b.newBlock()
	b.cfg.Exit = b.newBlock()
	b.cur = b.cfg.Entry
	b.stmt(body)
	if b.cur != nil {
		b.jump(b.cur, b.cfg.Exit)
	}
	return b.cfg
}

// target is one enclosing breakable/continuable construct.
type target struct {
	label      string
	breakTo    *Block
	continueTo *Block // nil for switch/select
}

type builder struct {
	cfg          *CFG
	cur          *Block // nil while the current point is unreachable
	targets      []target
	pendingLabel string
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *builder) jump(from, to *Block) {
	from.Succs = append(from.Succs, to)
}

// add appends a simple node to the current block, materializing an
// unreachable block when control cannot reach it (dead code still gets
// facts joined from nowhere, i.e. none).
func (b *builder) add(n ast.Node) {
	if n == nil {
		return
	}
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

// takeLabel consumes the label a LabeledStmt put on the next loop/switch.
func (b *builder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *builder) findTarget(label string, needContinue bool) *target {
	for i := len(b.targets) - 1; i >= 0; i-- {
		t := &b.targets[i]
		if label != "" && t.label != label {
			continue
		}
		if needContinue && t.continueTo == nil {
			continue
		}
		return t
	}
	return nil
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, st := range s.List {
			b.stmt(st)
		}

	case *ast.IfStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		if b.cur == nil {
			b.cur = b.newBlock()
		}
		head := b.cur
		then := b.newBlock()
		after := b.newBlock()
		b.jump(head, then)
		b.cur = then
		b.stmt(s.Body)
		if b.cur != nil {
			b.jump(b.cur, after)
		}
		if s.Else != nil {
			elseB := b.newBlock()
			b.jump(head, elseB)
			b.cur = elseB
			b.stmt(s.Else)
			if b.cur != nil {
				b.jump(b.cur, after)
			}
		} else {
			b.jump(head, after)
		}
		b.cur = after

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		if b.cur == nil {
			b.cur = b.newBlock()
		}
		head := b.newBlock()
		b.jump(b.cur, head)
		body := b.newBlock()
		after := b.newBlock()
		b.jump(head, body)
		if s.Cond != nil {
			b.jump(head, after)
		}
		backTo := head
		if s.Post != nil {
			post := b.newBlock()
			post.Nodes = append(post.Nodes, s.Post)
			b.jump(post, head)
			backTo = post
		}
		b.targets = append(b.targets, target{label: label, breakTo: after, continueTo: backTo})
		b.cur = body
		b.stmt(s.Body)
		if b.cur != nil {
			b.jump(b.cur, backTo)
		}
		b.targets = b.targets[:len(b.targets)-1]
		b.cur = after

	case *ast.RangeStmt:
		label := b.takeLabel()
		if b.cur == nil {
			b.cur = b.newBlock()
		}
		head := b.newBlock()
		b.jump(b.cur, head)
		body := b.newBlock()
		after := b.newBlock()
		b.jump(head, body)
		b.jump(head, after)
		// The per-iteration key/value binding lives at the top of the body.
		body.Nodes = append(body.Nodes, s)
		b.targets = append(b.targets, target{label: label, breakTo: after, continueTo: head})
		b.cur = body
		b.stmt(s.Body)
		if b.cur != nil {
			b.jump(b.cur, head)
		}
		b.targets = b.targets[:len(b.targets)-1]
		b.cur = after

	case *ast.SwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		if b.cur == nil {
			b.cur = b.newBlock()
		}
		head := b.cur
		after := b.newBlock()
		b.targets = append(b.targets, target{label: label, breakTo: after})
		var caseBlocks []*Block
		hasDefault := false
		for _, cc := range s.Body.List {
			cb := b.newBlock()
			caseBlocks = append(caseBlocks, cb)
			b.jump(head, cb)
			if cc.(*ast.CaseClause).List == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			b.jump(head, after)
		}
		for i, cc := range s.Body.List {
			clause := cc.(*ast.CaseClause)
			b.cur = caseBlocks[i]
			for _, st := range clause.Body {
				b.stmt(st)
			}
			// fallthrough transfers into the next case body.
			if lastFallthrough(clause.Body) && i+1 < len(caseBlocks) {
				if b.cur != nil {
					b.jump(b.cur, caseBlocks[i+1])
					b.cur = nil
				}
				continue
			}
			if b.cur != nil {
				b.jump(b.cur, after)
			}
		}
		b.targets = b.targets[:len(b.targets)-1]
		b.cur = after

	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Assign)
		if b.cur == nil {
			b.cur = b.newBlock()
		}
		head := b.cur
		after := b.newBlock()
		b.targets = append(b.targets, target{label: label, breakTo: after})
		hasDefault := false
		for _, cc := range s.Body.List {
			clause := cc.(*ast.CaseClause)
			if clause.List == nil {
				hasDefault = true
			}
			cb := b.newBlock()
			b.jump(head, cb)
			b.cur = cb
			for _, st := range clause.Body {
				b.stmt(st)
			}
			if b.cur != nil {
				b.jump(b.cur, after)
			}
		}
		if !hasDefault {
			b.jump(head, after)
		}
		b.targets = b.targets[:len(b.targets)-1]
		b.cur = after

	case *ast.SelectStmt:
		label := b.takeLabel()
		if b.cur == nil {
			b.cur = b.newBlock()
		}
		head := b.cur
		after := b.newBlock()
		b.targets = append(b.targets, target{label: label, breakTo: after})
		for _, cc := range s.Body.List {
			clause := cc.(*ast.CommClause)
			cb := b.newBlock()
			b.jump(head, cb)
			b.cur = cb
			if clause.Comm != nil {
				b.add(clause.Comm)
			}
			for _, st := range clause.Body {
				b.stmt(st)
			}
			if b.cur != nil {
				b.jump(b.cur, after)
			}
		}
		if len(s.Body.List) == 0 {
			b.jump(head, after)
		}
		b.targets = b.targets[:len(b.targets)-1]
		b.cur = after

	case *ast.LabeledStmt:
		switch s.Stmt.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			b.pendingLabel = s.Label.Name
			b.stmt(s.Stmt)
		default:
			// A label on a plain statement only matters as a goto target,
			// which the builder does not model.
			b.stmt(s.Stmt)
		}

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK, token.CONTINUE:
			label := ""
			if s.Label != nil {
				label = s.Label.Name
			}
			t := b.findTarget(label, s.Tok == token.CONTINUE)
			if t != nil && b.cur != nil {
				to := t.breakTo
				if s.Tok == token.CONTINUE {
					to = t.continueTo
				}
				b.jump(b.cur, to)
			}
			b.cur = nil
		case token.GOTO:
			b.cfg.Unsupported = true
			b.cur = nil
		case token.FALLTHROUGH:
			// Handled structurally by the switch builder.
		}

	case *ast.ReturnStmt:
		b.add(s)
		if b.cur != nil {
			b.jump(b.cur, b.cfg.Exit)
		}
		b.cur = nil

	case *ast.ExprStmt:
		b.add(s)
		if isTerminatingCall(s.X) {
			if b.cur != nil {
				b.jump(b.cur, b.cfg.Exit)
			}
			b.cur = nil
		}

	case nil:
		// nothing

	default:
		// Assignments, declarations, defer/go, sends, inc/dec, empty.
		b.add(s)
	}
}

// lastFallthrough reports whether the clause body ends in a fallthrough.
func lastFallthrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	bs, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && bs.Tok == token.FALLTHROUGH
}

// isTerminatingCall recognizes calls that never return: panic and
// os.Exit/log.Fatal*, so that no fact flows past them.
func isTerminatingCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		if pkg, ok := fun.X.(*ast.Ident); ok {
			if pkg.Name == "os" && fun.Sel.Name == "Exit" {
				return true
			}
			if pkg.Name == "log" && (fun.Sel.Name == "Fatal" || fun.Sel.Name == "Fatalf" || fun.Sel.Name == "Fatalln") {
				return true
			}
		}
	}
	return false
}
