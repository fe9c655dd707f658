package dataflow

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// load parses and type-checks one source string and returns its first
// function declaration plus the type info.
func load(t *testing.T, src string) (*token.FileSet, *ast.File, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: importer.Default()}
	if _, err := conf.Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatal(err)
	}
	return fset, f, info
}

func fn(t *testing.T, f *ast.File, name string) *ast.FuncDecl {
	t.Helper()
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
			return fd
		}
	}
	t.Fatalf("no function %s", name)
	return nil
}

func TestBuildShapes(t *testing.T) {
	_, f, _ := load(t, `package p
func g(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		if i == 3 {
			continue
		}
		if i == 7 {
			break
		}
		s += i
	}
	switch s {
	case 0:
		s = 1
	case 1:
		s = 2
		fallthrough
	case 2:
		s = 3
	default:
		s = 4
	}
	for s > 0 {
		s--
	}
	return s
}`)
	fd := fn(t, f, "g")
	g := Build(fd, fd.Body)
	if g.Unsupported {
		t.Fatal("unexpectedly unsupported")
	}
	if len(g.Blocks) < 8 {
		t.Fatalf("blocks = %d, want a real graph", len(g.Blocks))
	}
	// Exit must be reachable.
	seen := map[*Block]bool{}
	var walk func(*Block)
	walk = func(b *Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, to := range b.Succs {
			walk(to)
		}
	}
	walk(g.Entry)
	if !seen[g.Exit] {
		t.Fatal("exit unreachable from entry")
	}
}

func TestBuildGotoUnsupported(t *testing.T) {
	_, f, _ := load(t, `package p
func g() {
loop:
	goto loop
}`)
	fd := fn(t, f, "g")
	if g := Build(fd, fd.Body); !g.Unsupported {
		t.Fatal("goto should mark the CFG unsupported")
	}
}

func TestChainsStraightLine(t *testing.T) {
	_, f, info := load(t, `package p
func g() int {
	x := 1
	y := x
	x = 2
	return x + y
}`)
	fd := fn(t, f, "g")
	ch := BuildChains(fd, fd.Body, info)
	if ch == nil {
		t.Fatal("nil chains")
	}
	var xv *types.Var
	for v := range ch.Defs {
		if v.Name() == "x" {
			xv = v
		}
	}
	if xv == nil || len(ch.Defs[xv]) != 2 {
		t.Fatalf("x defs = %v", ch.Defs[xv])
	}
	// Each use of x must see exactly one reaching def (no merges here).
	for id, defs := range ch.Reach {
		if id.Name != "x" {
			continue
		}
		if len(defs) != 1 {
			t.Errorf("use of x at %v: %d reaching defs, want 1", id.Pos(), len(defs))
		}
	}
}

func TestChainsBranchMerge(t *testing.T) {
	_, f, info := load(t, `package p
func g(c bool) int {
	x := 1
	if c {
		x = 2
	}
	return x
}`)
	fd := fn(t, f, "g")
	ch := BuildChains(fd, fd.Body, info)
	if ch == nil {
		t.Fatal("nil chains")
	}
	// The use of x in the return must see both definitions.
	found := false
	for id, defs := range ch.Reach {
		if id.Name == "x" && len(defs) == 2 {
			found = true
		}
	}
	if !found {
		t.Fatal("no use of x with 2 reaching defs (if-merge)")
	}
}

func TestChainsLoop(t *testing.T) {
	_, f, info := load(t, `package p
func g(xs []int) int {
	s := 0
	for _, v := range xs {
		s += v
	}
	return s
}`)
	fd := fn(t, f, "g")
	ch := BuildChains(fd, fd.Body, info)
	if ch == nil {
		t.Fatal("nil chains")
	}
	// The use of s inside the loop body must see both the init def and
	// the loop's own compound-assign def.
	got := 0
	for id, defs := range ch.Reach {
		if id.Name == "s" {
			if len(defs) == 2 {
				got++
			}
		}
	}
	if got == 0 {
		t.Fatal("no use of s seeing both init and back-edge defs")
	}
}

// countDomain counts Transfer applications: a smoke test of the generic
// solver over a diamond CFG.
type countDomain struct{}

func (countDomain) Entry() Fact                       { return 0 }
func (countDomain) Transfer(n ast.Node, in Fact) Fact { return in.(int) + 1 }
func (countDomain) Join(a, b Fact) Fact               { return maxInt(a.(int), b.(int)) }
func (countDomain) Equal(a, b Fact) bool              { return a.(int) == b.(int) }

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestSolveDiamond(t *testing.T) {
	_, f, _ := load(t, `package p
func g(c bool) int {
	x := 0
	if c {
		x = 1
	} else {
		x = 2
	}
	return x
}`)
	fd := fn(t, f, "g")
	g := Build(fd, fd.Body)
	sol := Solve(g, countDomain{})
	if sol == nil {
		t.Fatal("nil solution")
	}
	if got, ok := sol.In[g.Exit]; !ok || got.(int) != 3 {
		t.Fatalf("exit fact = %v, want 3 (x:=0, one branch, return)", got)
	}
}
