package graph

import "context"

// MaximalCliquesVisitor observes the pivoted Bron–Kerbosch recursion
// itself rather than just its leaves. The walk narrates the tree in
// depth-first order:
//
//   - Descend(v) fires when the recursion extends the partial clique R
//     with vertex v — exactly once per tree edge, in pivot order.
//   - Leaf(r) fires at each maximal clique, with r holding the partial
//     clique in *tree order* (the order of the Descends that built it,
//     not sorted). r is only valid during the call; copy to retain.
//   - Ascend() fires when the subtree under the most recent un-popped
//     Descend has been fully enumerated, undoing that Descend.
//
// Descend or Leaf returning false stops the walk immediately: no
// further callbacks are invoked, including the Ascends that would have
// unwound the current path — a stopped visitor's stack is intentionally
// left as-is so the caller can read the violating path. On a walk that
// runs to completion every Descend that returned true has been matched
// by exactly one Ascend.
//
// This is the package's only Bron–Kerbosch contract; MaximalCliques
// adapts it to a leaf callback. The incremental world evaluation in
// internal/core builds on it: Descend pushes one transaction into the
// maximal-world fixpoint, Ascend pops it, and Leaf marks a maximal
// world whose evaluation has already been paid for edge by edge.
type MaximalCliquesVisitor interface {
	Descend(v int) bool
	Leaf(r []int) bool
	Ascend()
}

// walk is Bron–Kerbosch with Tomita pivoting under the visitor
// contract — the package's one recursion. It reports false when the
// walk was stopped, either by the visitor or by cancellation. The base
// case also covers the empty graph (P and X both empty at the root),
// whose single maximal clique is the empty set. p and x are consumed.
func (e *cliqueEnum) walk(vis MaximalCliquesVisitor, r []int, p, x Bitset) bool {
	if e.cancelled() {
		return false
	}
	if p.Empty() && x.Empty() {
		return vis.Leaf(r)
	}
	pivot := choosePivot(e.g, p, x)
	candidates := p.AndNot(e.g.Neighbors(pivot))
	cont := true
	candidates.ForEach(func(v int) {
		if !cont {
			return
		}
		if !vis.Descend(v) {
			cont = false
			return
		}
		nv := e.g.Neighbors(v)
		if !e.walk(vis, append(r, v), p.And(nv), x.And(nv)) {
			cont = false
			return
		}
		vis.Ascend()
		p.Clear(v)
		x.Set(v)
	})
	return cont
}

// MaximalCliquesVisit walks the pivoted Bron–Kerbosch tree of the
// graph under the visitor contract, with cooperative cancellation: the
// context is polled every few recursion nodes, and a cancelled walk
// stops (without unwinding) and returns the context's error. A
// complete walk, or one stopped by the visitor, returns nil.
func MaximalCliquesVisit(ctx context.Context, g *Undirected, vis MaximalCliquesVisitor) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	root := RootBranch(g)
	e := &cliqueEnum{g: g, ctx: ctx}
	e.walk(vis, nil, root.p, root.x)
	return e.err
}

// MaximalCliquesBranchVisit walks one CliqueBranches subtree under the
// visitor contract. The branch's partial clique is replayed first — one
// Descend per vertex of R, in branch order — so a visitor that
// maintains state along tree edges (the incremental world) sees the
// same path-from-the-root it would see in a full MaximalCliquesVisit;
// on a walk that runs to completion the replayed prefix is unwound with
// matching Ascends. The branch is not consumed; walking it again
// repeats the same subtree.
func MaximalCliquesBranchVisit(ctx context.Context, g *Undirected, b CliqueBranch, vis MaximalCliquesVisitor) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, v := range b.r {
		if !vis.Descend(v) {
			return nil
		}
	}
	e := &cliqueEnum{g: g, ctx: ctx}
	if e.walk(vis, b.r, b.p.Clone(), b.x.Clone()) {
		for range b.r {
			vis.Ascend()
		}
	}
	return e.err
}
