package graph

import (
	"context"
	"sort"
)

// ctxCheckInterval is the number of Bron–Kerbosch recursion nodes
// between context polls: frequent enough that a cancelled enumeration
// stops within microseconds, rare enough that the poll is invisible in
// profiles.
const ctxCheckInterval = 64

// cliqueEnum carries one walk's state: the graph and the cooperative
// cancellation bookkeeping.
type cliqueEnum struct {
	g     *Undirected
	ctx   context.Context
	steps int
	err   error // the context's error once observed
}

// cancelled polls the context every ctxCheckInterval recursion nodes
// and latches its error.
func (e *cliqueEnum) cancelled() bool {
	if e.err != nil {
		return true
	}
	if e.steps++; e.steps%ctxCheckInterval == 0 {
		e.err = e.ctx.Err()
	}
	return e.err != nil
}

// MaximalCliques enumerates every maximal clique of the graph, calling
// yield with the members of each (ascending order). yield returning
// false stops the enumeration early. The implementation is
// Bron–Kerbosch (Algorithm 457) with the pivoting rule of Tomita,
// Tanaka, and Takahashi: at each recursion step a pivot u maximizing
// |P ∩ N(u)| is chosen from P ∪ X, and only vertices of P \ N(u) are
// expanded, which bounds the tree at O(3^(n/3)) — the number of maximal
// cliques in the worst case.
//
// The paper's NaiveDCSat and OptDCSat both iterate "for each maximal
// clique in G^fd_T"; this is that iterator, as a leaf-only adapter over
// MaximalCliquesVisit.
func MaximalCliques(g *Undirected, yield func(clique []int) bool) {
	_ = MaximalCliquesVisit(context.Background(), g, sortedLeaves(yield))
}

// sortedLeaves adapts a yield callback to the visitor contract: tree
// edges are ignored, and each leaf is copied and sorted before yield
// sees it.
type sortedLeaves func(clique []int) bool

func (sortedLeaves) Descend(int) bool { return true }
func (sortedLeaves) Ascend()          {}
func (y sortedLeaves) Leaf(r []int) bool {
	c := append([]int(nil), r...)
	sort.Ints(c)
	return y(c)
}

// choosePivot returns the vertex of P ∪ X with the most neighbors in P.
func choosePivot(g *Undirected, p, x Bitset) int {
	best, bestScore := -1, -1
	consider := func(v int) {
		if score := p.IntersectCount(g.Neighbors(v)); score > bestScore {
			best, bestScore = v, score
		}
	}
	p.ForEach(consider)
	x.ForEach(consider)
	return best
}

// CliqueBranch is one independent subtree of the pivoted Bron–Kerbosch
// recursion: partial clique R with candidate set P and exclusion set X.
// The subtrees rooted at the branches returned by CliqueBranches
// partition the graph's maximal cliques — enumerating each branch once
// (in any order, on any goroutine) yields every maximal clique exactly
// once.
type CliqueBranch struct {
	r    []int
	p, x Bitset
}

// RootBranch returns the whole Bron–Kerbosch tree as one branch: empty
// R, every vertex in P, empty X.
func RootBranch(g *Undirected) CliqueBranch {
	n := g.Len()
	p := NewBitset(n)
	for i := 0; i < n; i++ {
		p.Set(i)
	}
	return CliqueBranch{p: p, x: NewBitset(n)}
}

// expandBranch splits one recursion node into its pivot branches. A
// node with empty P is terminal: it is itself a maximal clique when X
// is also empty (leaf=true), or a dead subtree otherwise. A node whose
// candidate set is empty while P is not (some excluded vertex dominates
// P) contains no maximal clique and returns no children.
func expandBranch(g *Undirected, b CliqueBranch) (children []CliqueBranch, leaf bool) {
	if b.p.Empty() {
		return nil, b.x.Empty()
	}
	pivot := choosePivot(g, b.p, b.x)
	p, x := b.p.Clone(), b.x.Clone()
	candidates := p.AndNot(g.Neighbors(pivot))
	candidates.ForEach(func(v int) {
		nv := g.Neighbors(v)
		r := make([]int, len(b.r), len(b.r)+1)
		copy(r, b.r)
		children = append(children, CliqueBranch{
			r: append(r, v),
			p: p.And(nv),
			x: x.And(nv),
		})
		p.Clear(v)
		x.Set(v)
	})
	return children, false
}

// CliqueBranches splits the Bron–Kerbosch tree of the graph into at
// least min independent branches when the tree is that wide: starting
// from the root, the widest branch (largest P) is repeatedly replaced
// by its pivot children. Dense graphs with few conflicts have narrow
// roots — a complete graph's tree is a single chain — so the split
// descends as far as needed; if the tree never widens (few maximal
// cliques, nothing to parallelize) fewer branches come back. The
// result is deterministic for a given graph, and its order is the
// order a walk of the whole tree reaches the branches in.
func CliqueBranches(g *Undirected, min int) []CliqueBranch {
	n := g.Len()
	branches := []CliqueBranch{RootBranch(g)}
	// Each expansion replaces an interior node with its children; the
	// cap bounds pathological chains (complete graphs) where expansion
	// never widens the frontier.
	for expansions := 0; len(branches) < min && expansions < 8*min+n; expansions++ {
		widest, size := -1, 1
		for i, b := range branches {
			if s := b.p.Count(); s > size {
				widest, size = i, s
			}
		}
		if widest < 0 {
			break // every branch is a leaf or trivially small
		}
		b := branches[widest]
		children, leaf := expandBranch(g, b)
		if leaf {
			break // unreachable: leaves have empty P
		}
		// Children take their parent's place, keeping walk order.
		branches = append(branches[:widest], append(children, branches[widest+1:]...)...)
		if len(branches) == 0 {
			break // lone dead subtree: no maximal cliques at all
		}
	}
	return branches
}

// MaximalCliquesNoPivot is Bron–Kerbosch without pivoting. It exists
// for the ablation benchmark that quantifies what pivoting buys; use
// MaximalCliques everywhere else.
func MaximalCliquesNoPivot(g *Undirected, yield func(clique []int) bool) {
	n := g.Len()
	p := NewBitset(n)
	for i := 0; i < n; i++ {
		p.Set(i)
	}
	x := NewBitset(n)
	var rec func(r []int, p, x Bitset) bool
	rec = func(r []int, p, x Bitset) bool {
		if p.Empty() && x.Empty() {
			// Covers the empty graph too: its one maximal clique is the
			// empty set, and yield's stop signal is honored like on
			// every other clique.
			c := append([]int(nil), r...)
			sort.Ints(c)
			return yield(c)
		}
		cont := true
		p.Clone().ForEach(func(v int) {
			if !cont {
				return
			}
			nv := g.Neighbors(v)
			if !rec(append(r, v), p.And(nv), x.And(nv)) {
				cont = false
				return
			}
			p.Clear(v)
			x.Set(v)
		})
		return cont
	}
	rec(nil, p, x)
}

// AllMaximalCliques collects the maximal cliques into a slice — a
// convenience for tests and small graphs; prefer the streaming form for
// large inputs.
func AllMaximalCliques(g *Undirected) [][]int {
	var out [][]int
	MaximalCliques(g, func(c []int) bool {
		out = append(out, c)
		return true
	})
	return out
}
