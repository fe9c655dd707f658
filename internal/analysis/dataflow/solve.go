package dataflow

import "go/ast"

// A Fact is one domain's abstract state at a program point. Domains choose
// the representation; the solver only moves Facts around.
type Fact any

// A Domain supplies the lattice and transfer functions for one analysis.
// The solver calls Transfer for every node in a block in order, and Join
// and Equal to reach a fixpoint. The lattice must have finite height, so
// that repeated joins into a block stop changing it; the solver does not
// widen.
//
// Facts must be treated as immutable by the solver's clients: Transfer and
// Join return fresh (or shared, unmodified) values and never mutate their
// inputs in place.
type Domain interface {
	// Entry returns the fact holding at function entry.
	Entry() Fact
	// Transfer applies one straight-line node to the incoming fact.
	Transfer(n ast.Node, in Fact) Fact
	// Join merges facts at a control-flow merge point.
	Join(a, b Fact) Fact
	// Equal reports whether two facts are equivalent (fixpoint test).
	Equal(a, b Fact) bool
}

// maxSteps bounds total solver work per function; a function complex
// enough to exceed it gets a nil Solution (clients skip it) rather than a
// hung lint run.
const maxSteps = 200_000

// A Solution holds the fixpoint facts of one Solve run.
type Solution struct {
	// In maps each reachable block to the fact at its start.
	In map[*Block]Fact
	// Before maps each node of each reachable block to the fact holding
	// immediately before it.
	Before map[ast.Node]Fact
}

// Solve runs the worklist algorithm over g with domain d and returns the
// fixpoint, or nil when g is unsupported or the step budget is exceeded.
func Solve(g *CFG, d Domain) *Solution {
	if g == nil || g.Unsupported {
		return nil
	}
	in := map[*Block]Fact{g.Entry: d.Entry()}

	work := []*Block{g.Entry}
	queued := map[*Block]bool{g.Entry: true}
	steps := 0
	for len(work) > 0 {
		if steps++; steps > maxSteps {
			return nil
		}
		b := work[0]
		work = work[1:]
		queued[b] = false

		fact := in[b]
		for _, n := range b.Nodes {
			fact = d.Transfer(n, fact)
		}
		for _, to := range b.Succs {
			next := fact
			if old, seen := in[to]; seen {
				next = d.Join(old, fact)
				if d.Equal(old, next) {
					continue
				}
			}
			in[to] = next
			if !queued[to] {
				queued[to] = true
				work = append(work, to)
			}
		}
	}

	// One more deterministic pass to record per-node facts.
	sol := &Solution{In: in, Before: map[ast.Node]Fact{}}
	for _, b := range g.Blocks {
		fact, ok := in[b]
		if !ok {
			continue // unreachable
		}
		for _, n := range b.Nodes {
			sol.Before[n] = fact
			fact = d.Transfer(n, fact)
		}
	}
	return sol
}
