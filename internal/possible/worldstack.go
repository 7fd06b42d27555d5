package possible

import "blockchaindb/internal/relation"

// WorldStack maintains the getMaximal fixpoint incrementally along a
// path of the Bron–Kerbosch recursion: Rebase establishes the world of
// a component's universal members, Push extends it with one more
// transaction (running only the marginal fixpoint rounds), and Pop
// restores the previous world exactly via the overlay's undo log — at
// a cost proportional to the tuples the matching Push added, never to
// the world's size.
//
// Precondition: the base and every push are live (fd-consistent
// internally and with R) and pairwise fd-compatible — the universal
// members of an fd-graph component plus a clique prefix of G^fd_T,
// which is what the clique search pushes. Under it no append can break
// a functional dependency: R ⊨ I, the live filter rules out a clash
// with R or inside a transaction, and clique edges and universal
// membership rule out a clash between two pushed transactions. So the
// stack's fixpoint tests only the inclusion dependencies
// (constraint.Set.CanAppendIND), and the FD half of CanAppend, whose
// outcome the fd graph has already decided, is never probed.
//
// The incremental discipline is sound for the same reason: with the
// FDs out of play, appendability is governed by inclusion-dependency
// references that only grow with the world, so the step function is
// monotone. The greedy closure of a monotone step function has a
// unique fixpoint, so pushing the members one at a time lands on the
// same included set and world tuples as GetMaximalScratch — which runs
// the full CanAppend — over the whole subset at once: the property the
// walk oracle in internal/core (TestIncrementalWalkAgainstScratch)
// pins at every tree node. (The *inclusion order* may legitimately
// differ from the one-shot fixpoint's: a transaction deferred by the
// one-shot rounds can be absorbed immediately when pushed later.) For
// push sets outside the precondition the stack still tracks exactly
// what a from-scratch replay of the same push sequence would produce,
// but its world need not satisfy the FDs.
//
// A WorldStack must not be shared between concurrent searches; each
// branch-parallel worker owns one.
type WorldStack struct {
	d         *DB
	world     *relation.Overlay
	included  []int
	remaining []int

	// Per-frame undo state, packed into shared backing arrays so a
	// Push/Pop pair allocates nothing after warm-up: the overlay mark
	// (MarkLen ints per frame) and a snapshot of the pre-push remaining
	// list (whose membership shrinks non-monotonically under the
	// fixpoint, so truncation alone cannot restore it).
	frames   []wsFrame
	marks    []int
	savedRem []int
}

type wsFrame struct {
	markOff     int
	includedLen int
	remOff      int
	remLen      int
}

// Rebase resets the stack onto the database with a fresh root frame:
// the fixpoint world over the given transaction subset (the clique
// search's universal members, which must meet the WorldStack
// precondition). The overlay is reset, not rebuilt, when
// the database is unchanged. It returns the root world and the
// included indexes; both alias the stack and are valid until the next
// stack operation.
func (ws *WorldStack) Rebase(d *DB, base []int) (*relation.Overlay, []int) {
	if ws.world == nil || ws.d == nil || ws.world.Base() != d.State {
		ws.world = relation.NewOverlay(d.State)
	} else {
		ws.world.Reset()
	}
	ws.d = d
	ws.frames = ws.frames[:0]
	ws.marks = ws.marks[:0]
	ws.savedRem = ws.savedRem[:0]
	ws.included = ws.included[:0]
	ws.remaining = append(ws.remaining[:0], base...)
	ws.remaining, ws.included = d.appendFixpoint(ws.world, ws.remaining, ws.included, d.Constraints.CanAppendIND)
	return ws.world, ws.included
}

// Root is a frozen root world: the getMaximal fixpoint over a base
// subset and the transactions it included. It is built once and never
// modified, so any number of concurrent searches may evaluate on its
// world (the world's indexes build lazily under their relations'
// locks). A search that walks below it rebases its own WorldStack on
// the same base, whose fixpoint runs the same rounds and so puts every
// tuple at the same position.
type Root struct {
	world    *relation.Overlay
	included []int
}

// NewRoot runs the fixpoint over base — the same rounds, with the same
// IND-only test, that Rebase runs — and freezes the result. base must
// meet the WorldStack precondition: live and pairwise fd-compatible,
// as the universal members of the live set's fd graph are.
func NewRoot(d *DB, base []int) *Root {
	r := &Root{world: relation.NewOverlay(d.State)}
	_, r.included = d.appendFixpoint(r.world, append([]int(nil), base...), nil, d.Constraints.CanAppendIND)
	return r
}

// World returns the root's world. Callers must not modify it.
func (r *Root) World() *relation.Overlay { return r.world }

// Included returns the included transaction indexes in inclusion
// order. Callers must not modify it.
func (r *Root) Included() []int { return r.included }

// Push extends the world with the transaction at index ti, running the
// fixpoint until no further transaction (ti or a previously deferred
// one it unblocks) can be appended. ti must be live and fd-compatible
// with the base and every transaction already pushed. It returns the new world and
// included set, aliasing the stack. Every Push must eventually be
// matched by a Pop (or discarded wholesale by Rebase).
func (ws *WorldStack) Push(ti int) (*relation.Overlay, []int) {
	ws.frames = append(ws.frames, wsFrame{
		markOff:     len(ws.marks),
		includedLen: len(ws.included),
		remOff:      len(ws.savedRem),
		remLen:      len(ws.remaining),
	})
	ws.marks = ws.world.AppendMark(ws.marks)
	ws.savedRem = append(ws.savedRem, ws.remaining...)
	ws.remaining = append(ws.remaining, ti)
	ws.remaining, ws.included = ws.d.appendFixpoint(ws.world, ws.remaining, ws.included, ws.d.Constraints.CanAppendIND)
	return ws.world, ws.included
}

// Pop undoes the most recent Push exactly: world tuples truncated to
// the frame's overlay mark, included and remaining restored. Popping
// an empty stack (only the Rebase frame left) panics — it is a caller
// bug, mirroring an unbalanced Ascend.
func (ws *WorldStack) Pop() {
	n := len(ws.frames) - 1
	f := ws.frames[n]
	ws.frames = ws.frames[:n]
	ws.world.PopToMark(ws.marks[f.markOff:])
	ws.marks = ws.marks[:f.markOff]
	ws.included = ws.included[:f.includedLen]
	ws.remaining = append(ws.remaining[:0], ws.savedRem[f.remOff:f.remOff+f.remLen]...)
	ws.savedRem = ws.savedRem[:f.remOff]
}

// Depth returns the number of Pushes currently on the stack (the
// Rebase frame not counted) — the clique search's reuse depth.
func (ws *WorldStack) Depth() int { return len(ws.frames) }

// World returns the current world view, aliasing the stack.
func (ws *WorldStack) World() *relation.Overlay { return ws.world }

// Included returns the currently included transaction indexes in
// inclusion order, aliasing the stack.
func (ws *WorldStack) Included() []int { return ws.included }

// Remaining returns the pushed-but-not-yet-appendable indexes,
// aliasing the stack.
func (ws *WorldStack) Remaining() []int { return ws.remaining }
