package possible_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"blockchaindb/internal/fixture"
	"blockchaindb/internal/possible"
	"blockchaindb/internal/relation"
	"blockchaindb/internal/value"
)

// getMaximalRef is the original allocating getMaximal fixpoint, kept
// verbatim as the oracle for the unified scratch path: fresh overlay,
// fresh slices, round-robin append until fixpoint.
func getMaximalRef(d *possible.DB, subset []int) (*relation.Overlay, []int) {
	world := relation.NewOverlay(d.State)
	remaining := append([]int(nil), subset...)
	var included []int
	for {
		progressed := false
		next := remaining[:0]
		for _, ti := range remaining {
			tx := d.Pending[ti]
			if d.Constraints.CanAppend(world, tx) {
				world.Add(tx)
				included = append(included, ti)
				progressed = true
			} else {
				next = append(next, ti)
			}
		}
		remaining = next
		if !progressed || len(remaining) == 0 {
			return world, included
		}
	}
}

// randomChainDB builds a small random Bitcoin-shaped database with
// double-spends (fd conflicts) and spend chains (ind dependencies), the
// same regime the clique search runs in.
func randomChainDB(r *rand.Rand) *possible.DB {
	s := fixture.BitcoinSchema()
	cons := fixture.BitcoinConstraints(s)
	nOuts := 2 + r.Intn(3)
	for i := 0; i < nOuts; i++ {
		s.MustInsert("TxOut", fixture.TxOut(1, int64(i+1), fmt.Sprintf("U%dPk", i%3), 1))
	}
	var pending []*relation.Transaction
	nextTx := int64(2)
	for i, n := 0, 2+r.Intn(7); i < n; i++ {
		tx := relation.NewTransaction(fmt.Sprintf("T%d", i+1))
		var ser int64
		var srcTx int64 = 1
		if r.Intn(2) == 0 && nextTx > 2 {
			srcTx = 2 + int64(r.Intn(int(nextTx-2))) // spend a pending output: ind chain
			ser = 1
		} else {
			ser = int64(r.Intn(nOuts) + 1) // spend a committed output: possible double spend
		}
		owner := fmt.Sprintf("U%dPk", (ser-1)%3)
		tx.Add("TxIn", fixture.TxIn(srcTx, ser, owner, 1, nextTx, owner+"Sig"))
		tx.Add("TxOut", fixture.TxOut(nextTx, 1, fmt.Sprintf("U%dPk", r.Intn(4)), 1))
		nextTx++
		pending = append(pending, tx)
	}
	return possible.MustNew(s, cons, pending)
}

// snapshot captures everything observable about a world stack: the
// world's tuples per relation, the included list (with order), and the
// remaining list.
func snapshot(world *relation.Overlay, included, remaining []int) string {
	var b []string
	for _, name := range world.Names() {
		var rows []string
		world.Scan(name, func(t value.Tuple) bool {
			rows = append(rows, fmt.Sprint(t))
			return true
		})
		sort.Strings(rows)
		b = append(b, fmt.Sprintf("%s:%v", name, rows))
	}
	return fmt.Sprintf("world=%v included=%v remaining=%v", b, included, remaining)
}

// TestGetMaximalAgainstReference: the unified GetMaximal /
// GetMaximalScratch path reproduces the original allocating fixpoint
// exactly — world tuples, included order — on random subsets of random
// databases, including non-clique subsets.
func TestGetMaximalAgainstReference(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		d := randomChainDB(r)
		var ms possible.MaximalScratch
		for trial := 0; trial < 4; trial++ {
			var subset []int
			for i := range d.Pending {
				if r.Intn(2) == 0 {
					subset = append(subset, i)
				}
			}
			refW, refInc := getMaximalRef(d, subset)
			w1, inc1 := d.GetMaximal(subset)
			w2, inc2 := d.GetMaximalScratch(&ms, subset)
			want := snapshot(refW, refInc, nil)
			if got := snapshot(w1, inc1, nil); got != want {
				t.Fatalf("seed %d: GetMaximal diverged\n got %s\nwant %s", seed, got, want)
			}
			if got := snapshot(w2, inc2, nil); got != want {
				t.Fatalf("seed %d: GetMaximalScratch diverged\n got %s\nwant %s", seed, got, want)
			}
		}
	}
}

// TestWorldStackReplayExact: a WorldStack driven through a random
// push/pop walk is indistinguishable — world tuples, included order,
// remaining set — from a fresh stack replaying the surviving pushes
// from scratch. This pins the undo log: Pop must restore *exactly* the
// pre-Push state, including index bookkeeping, or later probes read
// ghosts.
func TestWorldStackReplayExact(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		r := rand.New(rand.NewSource(seed))
		d := randomChainDB(r)
		base := []int{}
		if len(d.Pending) > 2 && r.Intn(2) == 0 {
			base = append(base, r.Intn(len(d.Pending)))
		}
		var ws possible.WorldStack
		ws.Rebase(d, base)
		var pushed []int // the logical stack mirrored outside
		for step := 0; step < 30; step++ {
			if ws.Depth() > 0 && r.Intn(3) == 0 {
				ws.Pop()
				pushed = pushed[:len(pushed)-1]
			} else {
				ti := r.Intn(len(d.Pending))
				ws.Push(ti)
				pushed = append(pushed, ti)
			}
			var ref possible.WorldStack
			ref.Rebase(d, base)
			for _, ti := range pushed {
				ref.Push(ti)
			}
			got := snapshot(ws.World(), ws.Included(), ws.Remaining())
			want := snapshot(ref.World(), ref.Included(), ref.Remaining())
			if got != want {
				t.Fatalf("seed %d step %d (pushed %v):\n got %s\nwant %s", seed, step, pushed, got, want)
			}
		}
	}
}

// TestWorldStackRebaseReuse: Rebase onto the same database reuses the
// overlay and fully clears prior state; onto a different database it
// rebuilds.
func TestWorldStackRebaseReuse(t *testing.T) {
	d := fixture.PaperDB()
	var ws possible.WorldStack
	w1, _ := ws.Rebase(d, nil)
	ws.Push(0)
	ws.Push(1)
	w2, inc := ws.Rebase(d, nil)
	if w1 != w2 {
		t.Error("Rebase onto the same database rebuilt the overlay")
	}
	if ws.Depth() != 0 || len(inc) != 0 || w2.ExtraSize() != 0 {
		t.Fatalf("Rebase left residue: depth=%d included=%v extra=%d", ws.Depth(), inc, w2.ExtraSize())
	}
	d2 := fixture.PaperDB()
	w3, _ := ws.Rebase(d2, nil)
	if w3 == w2 {
		t.Error("Rebase onto a different database reused the old overlay")
	}
}

// TestNewRootMatchesRebase: a frozen Root holds exactly the world a
// WorldStack rebased on the same base holds — every tuple at the same
// scan position, the same included order — so a search may evaluate
// on the root and later rebase its own stack, and the window floors
// it reads off the stack describe the world it evaluated.
func TestNewRootMatchesRebase(t *testing.T) {
	ordered := func(world *relation.Overlay, included []int) string {
		var b []string
		for _, name := range world.Names() {
			var rows []string
			world.Scan(name, func(t value.Tuple) bool {
				rows = append(rows, fmt.Sprint(t))
				return true
			})
			b = append(b, fmt.Sprintf("%s:%v", name, rows))
		}
		return fmt.Sprintf("world=%v included=%v", b, included)
	}
	var ws possible.WorldStack
	for seed := int64(0); seed < 120; seed++ {
		r := rand.New(rand.NewSource(seed))
		d := randomChainDB(r)
		var base []int
		for i := range d.Pending {
			if r.Intn(2) == 0 {
				base = append(base, i)
			}
		}
		root := possible.NewRoot(d, base)
		w, inc := ws.Rebase(d, base)
		if got, want := ordered(root.World(), root.Included()), ordered(w, inc); got != want {
			t.Fatalf("seed %d: NewRoot\n got %s\nwant %s", seed, got, want)
		}
	}
}
