// Package possible implements the paper's formal model of a blockchain
// database: the triple D = (R, I, T) of a current state, integrity
// constraints, and pending insert transactions; the can-append relation
// R →(T,I) R'; and the possible worlds Poss(D) it generates. It
// provides the PTIME possible-world recognition of Proposition 1, the
// getMaximal fixpoint of Section 6, and an exponential enumerator of
// all possible worlds used as ground truth in tests.
package possible

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"blockchaindb/internal/constraint"
	"blockchaindb/internal/relation"
	"blockchaindb/internal/value"
)

// DB is a blockchain database D = (R, I, T). Construct with New, which
// validates R |= I and normalizes the pending transactions against the
// state's schemas.
//
// A DB may be edited in place between checks: the fields may be
// reassigned, Pending appended to or rewritten, and the state grown
// through its methods. Two things must not change once in a DB: a
// pending transaction's tuples (build a new Transaction instead), and
// the state's relations behind its back (go through State's methods,
// which bump relation.State.Version). Under that contract the DB's
// prepared value (Prepared) always matches its contents. A DB must not
// be copied after first use.
type DB struct {
	// State is the current state R: tuples already committed to the
	// chain.
	State *relation.State
	// Constraints is the integrity constraint set I.
	Constraints *constraint.Set
	// Pending is the transaction set T, in issue order.
	Pending []*relation.Transaction

	prepMu sync.Mutex
	prep   atomic.Pointer[prepared]
}

// prepared is the DB's one memo slot: a value built from a snapshot of
// the DB, with the version of the DB it was built from.
type prepared struct {
	version uint64 // snap.State.Version() at build time
	snap    *DB    // State and Constraints as they were, Pending copied
	val     any
}

// current reports whether d still holds what p was built from: the same
// state at the same version, the same constraints, and the same pending
// transactions in the same slots. The pending comparison is one pointer
// compare per slot.
func (p *prepared) current(d *DB) bool {
	return p.snap.State == d.State && p.version == d.State.Version() &&
		p.snap.Constraints == d.Constraints && slices.Equal(p.snap.Pending, d.Pending)
}

// Prepared returns the value build made for the DB's current version,
// calling build only when the DB has changed since the last call (see
// the DB contract). build receives a snapshot of the DB: its State and
// Constraints and a copy of Pending, so what it (or a lazily filled
// part of its value) reads stays as it was, even if the caller later
// edits Pending in place. Concurrent callers on an unchanged DB share
// one build. The value lives as long as the DB, or until the next
// version replaces it.
func (d *DB) Prepared(build func(snap *DB) any) any {
	if p := d.prep.Load(); p != nil && p.current(d) {
		return p.val
	}
	d.prepMu.Lock()
	defer d.prepMu.Unlock()
	if p := d.prep.Load(); p != nil && p.current(d) {
		return p.val
	}
	snap := &DB{State: d.State, Constraints: d.Constraints, Pending: slices.Clone(d.Pending)}
	p := &prepared{version: d.State.Version(), snap: snap, val: build(snap)}
	d.prep.Store(p)
	return p.val
}

// New assembles a blockchain database. It fails if the current state
// does not satisfy the constraints (the model requires R |= I) or if a
// pending transaction does not fit the schemas.
func New(state *relation.State, cons *constraint.Set, pending []*relation.Transaction) (*DB, error) {
	if err := cons.Check(state); err != nil {
		return nil, fmt.Errorf("possible: current state violates constraints: %w", err)
	}
	norm := make([]*relation.Transaction, len(pending))
	for i, tx := range pending {
		nt, err := state.NormalizeTransaction(tx)
		if err != nil {
			return nil, err
		}
		norm[i] = nt
	}
	return &DB{State: state, Constraints: cons, Pending: norm}, nil
}

// MustNew is New but panics on error.
func MustNew(state *relation.State, cons *constraint.Set, pending []*relation.Transaction) *DB {
	d, err := New(state, cons, pending)
	if err != nil {
		panic(err)
	}
	return d
}

// CanAppend reports whether world ∪ tx satisfies the constraints,
// i.e. whether world →(T,I) world ∪ tx. world must already satisfy
// them.
func (d *DB) CanAppend(world relation.View, tx *relation.Transaction) bool {
	return d.Constraints.CanAppend(world, tx)
}

// appendFixpoint is the one getMaximal fixpoint in the package:
// repeatedly append any remaining transaction that canAppend admits to
// the world, until a round makes no progress or nothing remains. It
// mutates world in place, compacts remaining, appends to included, and
// returns both updated slices. GetMaximal, GetMaximalScratch,
// IsReachable and IsPossibleWorld pass the full test, CanAppend;
// WorldStack and NewRoot pass its IND half, CanAppendIND, which their
// callers' fd-compatible subsets make equivalent (see WorldStack).
func (d *DB) appendFixpoint(world *relation.Overlay, remaining, included []int, canAppend func(relation.View, *relation.Transaction) bool) ([]int, []int) {
	for {
		progressed := false
		next := remaining[:0]
		for _, ti := range remaining {
			tx := d.Pending[ti]
			if canAppend(world, tx) {
				world.Add(tx)
				included = append(included, ti)
				progressed = true
			} else {
				next = append(next, ti)
			}
		}
		remaining = next
		if !progressed || len(remaining) == 0 {
			return remaining, included
		}
	}
}

// GetMaximal computes the unique maximal possible world over the
// transaction subset given by indexes into Pending — the paper's
// getMaximal: repeatedly append any transaction whose addition
// preserves the constraints, until a fixpoint. It returns the world as
// an overlay over the state and the indexes actually included, in
// inclusion order. It is a thin allocating wrapper over
// GetMaximalScratch; hot loops should hold a scratch instead.
//
// For subsets that are pairwise fd-consistent (cliques of G^fd_T) the
// result is the maximal possible world of (R, I, T'); for arbitrary
// subsets it is still a valid possible world, just not necessarily one
// containing every member of the subset.
func (d *DB) GetMaximal(subset []int) (*relation.Overlay, []int) {
	var ms MaximalScratch
	world, included := d.GetMaximalScratch(&ms, subset)
	return world, append([]int(nil), included...)
}

// MaximalScratch holds the reusable allocations of GetMaximalScratch:
// the overlay (reset, not rebuilt, between worlds over the same state)
// and the fixpoint work lists. A scratch must not be shared between
// concurrent searches.
type MaximalScratch struct {
	world     *relation.Overlay
	remaining []int
	included  []int
}

// GetMaximalScratch is GetMaximal with caller-owned scratch space: the
// clique-search hot loop calls it thousands of times per check, and
// reusing the overlay and slices removes the per-world allocations.
// The returned overlay and slice alias the scratch — they are valid
// only until the next call with the same scratch; callers must copy
// the included indexes to retain them.
func (d *DB) GetMaximalScratch(ms *MaximalScratch, subset []int) (*relation.Overlay, []int) {
	if ms.world == nil || ms.world.Base() != d.State {
		ms.world = relation.NewOverlay(d.State)
	} else {
		ms.world.Reset()
	}
	world := ms.world
	remaining := append(ms.remaining[:0], subset...)
	included := ms.included[:0]
	ms.remaining, ms.included = d.appendFixpoint(world, remaining, included, d.Constraints.CanAppend)
	return world, ms.included
}

// IsReachable implements Proposition 1 for a chosen transaction subset:
// it decides in PTIME whether R ∪ (exactly the transactions at the
// given indexes) is a possible world of D, i.e. whether some ordering
// of all of them appends successfully.
func (d *DB) IsReachable(subset []int) bool {
	world := relation.NewOverlay(d.State)
	remaining, _ := d.appendFixpoint(world, append([]int(nil), subset...), nil, d.Constraints.CanAppend)
	return len(remaining) == 0
}

// IsPossibleWorld decides in PTIME whether an arbitrary set of
// relations R' is a possible world of D (Proposition 1). R' must use
// the same schema names as the state.
//
// The algorithm: R' must contain R and satisfy I; collect the pending
// transactions fully contained in R'; greedily append any appendable
// one (monotone — the greedy closure is order-insensitive because a
// transaction appendable to a world inside R' stays appendable as the
// world grows within R'); accept iff the closure reproduces R' exactly.
func (d *DB) IsPossibleWorld(target *relation.State) bool {
	// R ⊆ R'.
	for _, name := range d.State.Names() {
		contained := d.State.Scan(name, func(t value.Tuple) bool {
			return target.Contains(name, t)
		})
		if !contained {
			return false
		}
	}
	// R' |= I.
	if d.Constraints.Check(target) != nil {
		return false
	}
	// Greedy closure over the contained transactions.
	world := relation.NewOverlay(d.State)
	var candidates []int
	for i, tx := range d.Pending {
		if tx.SubsetOf(target) {
			candidates = append(candidates, i)
		}
	}
	d.appendFixpoint(world, candidates, nil, d.Constraints.CanAppend)
	// The closure must cover R' exactly; ⊆ holds by construction.
	for _, name := range target.Names() {
		covered := target.Scan(name, func(t value.Tuple) bool {
			return world.Contains(name, t)
		})
		if !covered {
			return false
		}
	}
	return true
}

// EnumerateWorlds enumerates every reachable transaction subset (each a
// possible world), calling yield with the included indexes (sorted) and
// the world view. Exponential in |Pending|; intended for tests, small
// interactive demos, and as the ground truth the DCSat algorithms are
// validated against. yield returning false stops the enumeration. The
// empty subset — the current state itself — is always yielded first.
func (d *DB) EnumerateWorlds(yield func(included []int, world *relation.Overlay) bool) {
	_ = d.EnumerateWorldsCtx(context.Background(), yield)
}

// EnumerateWorldsCtx is EnumerateWorlds with cooperative cancellation:
// the context is polled once per dequeued world, so even the
// exponential enumeration stops within one expansion step of a
// deadline or cancel. A cancelled enumeration returns the context's
// error; a complete one (or one stopped by yield) returns nil.
func (d *DB) EnumerateWorldsCtx(ctx context.Context, yield func(included []int, world *relation.Overlay) bool) error {
	type node struct {
		included []int
		world    *relation.Overlay
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	seen := map[string]bool{"": true}
	queue := []node{{nil, relation.NewOverlay(d.State)}}
	if !yield(nil, queue[0].world) {
		return nil
	}
	for len(queue) > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		cur := queue[0]
		queue = queue[1:]
		for ti := range d.Pending {
			if containsInt(cur.included, ti) {
				continue
			}
			if !d.Constraints.CanAppend(cur.world, d.Pending[ti]) {
				continue
			}
			next := insertSorted(cur.included, ti)
			key := subsetKey(next)
			if seen[key] {
				continue
			}
			seen[key] = true
			w := relation.NewOverlay(d.State)
			for _, i := range next {
				w.Add(d.Pending[i])
			}
			if !yield(next, w) {
				return nil
			}
			queue = append(queue, node{next, w})
		}
	}
	return nil
}

// CountWorlds returns the number of reachable transaction subsets.
func (d *DB) CountWorlds() int {
	n := 0
	d.EnumerateWorlds(func([]int, *relation.Overlay) bool {
		n++
		return true
	})
	return n
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func insertSorted(xs []int, x int) []int {
	out := make([]int, 0, len(xs)+1)
	placed := false
	for _, v := range xs {
		if !placed && x < v {
			out = append(out, x)
			placed = true
		}
		out = append(out, v)
	}
	if !placed {
		out = append(out, x)
	}
	return out
}

func subsetKey(xs []int) string {
	b := make([]byte, 0, len(xs)*3)
	for _, v := range xs {
		b = append(b, byte(v>>16), byte(v>>8), byte(v), ',')
	}
	return string(b)
}
