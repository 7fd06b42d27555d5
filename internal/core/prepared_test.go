package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"blockchaindb/internal/constraint"
	"blockchaindb/internal/fixture"
	"blockchaindb/internal/possible"
	"blockchaindb/internal/query"
	"blockchaindb/internal/relation"
	"blockchaindb/internal/value"
)

// buildFDGraph is the from-scratch fd graph of the pending transactions
// at the given (global) indexes: the test oracle for the graphs checks
// build from a prepared view's conflict adjacency.
func buildFDGraph(d *possible.DB, subset []int) *fdCompGraph {
	return newFDCompGraph(subset, fdConflictPairs(d, subset))
}

// preparedQueries exercise every part of a prepared view: the precheck
// reads the union, the violated ones go on to the live slots, the
// seeds and the conflicts, and AlgoFDOnly reads the live slots.
var preparedQueries = []struct {
	src  string
	opts Options
}{
	{"q() :- TxOut(t, s, 'U0Pk', a)", Options{Algorithm: AlgoOpt}},
	{"q() :- TxOut(t, s, 'U2Pk', a)", Options{Algorithm: AlgoNaive}},
	{"q() :- TxIn(pt, ps, 'U1Pk', a, nt, sig), TxOut(nt, s2, pk2, a2)", Options{Algorithm: AlgoOpt}},
	{"q() :- TxIn(pt, ps, 'U1Pk', a, nt, sig), TxOut(nt, s2, pk2, a2)", Options{Algorithm: AlgoOpt, DisablePrecheck: true, Workers: 2}},
	{"q(sum(a)) > 2 :- TxIn(pt, ps, pk, a, nt, sig)", Options{Algorithm: AlgoNaive}},
	{"q() :- TxOut(t, s, 'U3Pk', a)", Options{Algorithm: AlgoFDOnly}},
}

// checkSame runs the queries on d and on a freshly built database with
// the same contents, and reports the first disagreement.
func checkSame(t *testing.T, d *possible.DB, step string) {
	t.Helper()
	fresh := &possible.DB{State: d.State, Constraints: d.Constraints,
		Pending: append([]*relation.Transaction(nil), d.Pending...)}
	for _, pq := range preparedQueries {
		q := query.MustParse(pq.src)
		opts := pq.opts
		if opts.Algorithm == AlgoFDOnly && d.Constraints.HasINDs() {
			continue
		}
		got, err := Check(context.Background(), d, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Check(context.Background(), fresh, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got.Satisfied != want.Satisfied || fmt.Sprint(got.Witness) != fmt.Sprint(want.Witness) ||
			got.Stats.LivePending != want.Stats.LivePending || got.Stats.Components != want.Stats.Components {
			t.Fatalf("%s: %s %v on the reused database: satisfied=%v witness=%v live=%d components=%d; "+
				"fresh: satisfied=%v witness=%v live=%d components=%d", step, pq.src, opts.Algorithm,
				got.Satisfied, got.Witness, got.Stats.LivePending, got.Stats.Components,
				want.Satisfied, want.Witness, want.Stats.LivePending, want.Stats.Components)
		}
	}
}

// TestPreparedViewFollowsInPlaceEdits reuses one database across the
// in-place edits callers make between checks — appending to Pending (as
// examples/exchange and cmd/bcnode do after possible.New), replacing a
// slot, a swap-remove followed by an append that leaves the length
// unchanged, and growing the state — and requires every check to
// answer as a check on a freshly built database does.
func TestPreparedViewFollowsInPlaceEdits(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		d := bitcoinLikeDB(r)
		// An IND-free twin runs the AlgoFDOnly query too.
		s := d.State.Clone()
		noIND := possible.MustNew(s, constraint.MustNewSet(s, d.Constraints.FDs, nil), d.Pending)
		nextTx := int64(100)
		newTx := func(db *possible.DB) *relation.Transaction {
			owner := fmt.Sprintf("U%dPk", r.Intn(3))
			tx := relation.NewTransaction(fmt.Sprintf("E%d", nextTx)).
				Add("TxIn", fixture.TxIn(1, int64(r.Intn(3)+1), owner, 1, nextTx, owner+"Sig")).
				Add("TxOut", fixture.TxOut(nextTx, 1, fmt.Sprintf("U%dPk", r.Intn(4)), 1))
			nextTx++
			norm, err := db.State.NormalizeTransaction(tx)
			if err != nil {
				t.Fatal(err)
			}
			return norm
		}
		for _, db := range []*possible.DB{d, noIND} {
			checkSame(t, db, fmt.Sprintf("seed %d initial", seed))
			db.Pending = append(db.Pending, newTx(db), newTx(db))
			checkSame(t, db, fmt.Sprintf("seed %d append", seed))
			db.Pending[r.Intn(len(db.Pending))] = newTx(db)
			checkSame(t, db, fmt.Sprintf("seed %d replace", seed))
			i, last := r.Intn(len(db.Pending)), len(db.Pending)-1
			db.Pending[i] = db.Pending[last]
			db.Pending = append(db.Pending[:last], newTx(db))
			checkSame(t, db, fmt.Sprintf("seed %d swap-remove and append", seed))
			// Commit an output under the key of a pending transaction's
			// output, to another payee: the pending transaction dies.
			out := db.Pending[r.Intn(len(db.Pending))].Tuples("TxOut")[0]
			if err := db.State.InsertTransaction(relation.NewTransaction("B").
				Add("TxOut", value.NewTuple(out[0], out[1], value.Str("ZPk"), out[3]))); err != nil {
				t.Fatal(err)
			}
			checkSame(t, db, fmt.Sprintf("seed %d state insert", seed))
		}
	}
}

// TestPreparedViewConcurrentFirstCheck: eight goroutines run the first
// checks on one fresh database at once. They must share one prepared
// view and agree with a serial run.
func TestPreparedViewConcurrentFirstCheck(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	d := bitcoinLikeDB(r)
	d.Pending = append(d.Pending, relation.NewTransaction("W").
		Add("TxOut", fixture.TxOut(70, 1, "U1Pk", 1)))
	serial := &possible.DB{State: d.State, Constraints: d.Constraints, Pending: d.Pending}
	q := query.MustParse("q() :- TxIn(pt, ps, pk, a, nt, sig), TxOut(nt, s2, 'U1Pk', a2)")
	want, err := Check(context.Background(), serial, q, Options{Algorithm: AlgoOpt})
	if err != nil {
		t.Fatal(err)
	}
	views := make([]*dbView, 8)
	var wg sync.WaitGroup
	for g := range views {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			res, err := Check(context.Background(), d, q, Options{Algorithm: AlgoOpt, Workers: 1 + g%2})
			if err != nil {
				t.Error(err)
				return
			}
			if res.Satisfied != want.Satisfied || fmt.Sprint(res.Witness) != fmt.Sprint(want.Witness) {
				t.Errorf("goroutine %d: satisfied=%v witness=%v, serial: %v %v",
					g, res.Satisfied, res.Witness, want.Satisfied, want.Witness)
			}
			views[g] = prepare(d)
		}(g)
	}
	wg.Wait()
	for g, v := range views {
		if v != views[0] {
			t.Fatalf("goroutine %d got prepared view %p, goroutine 0 %p", g, v, views[0])
		}
	}
}

// TestMonitorConcurrentUnionRebuild: after each DropPending the
// Monitor's union is gone, and concurrent checks race to rebuild it.
// They must build one union between them and agree with a stateless
// check on a snapshot.
func TestMonitorConcurrentUnionRebuild(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	m := NewMonitor(bitcoinLikeDB(r))
	for i := int64(0); i < 6; i++ {
		if _, err := m.AddPending(relation.NewTransaction(fmt.Sprintf("R%d", i)).
			Add("TxOut", fixture.TxOut(300+i, 1, fmt.Sprintf("U%dPk", i%3), 1))); err != nil {
			t.Fatal(err)
		}
	}
	queries := []*query.Query{
		query.MustParse("q() :- TxOut(t, s, 'U1Pk', a)"),
		query.MustParse("q() :- TxIn(pt, ps, pk, a, nt, sig), TxOut(nt, s2, 'U2Pk', a2)"),
	}
	for round := 0; m.PendingCount() > 0; round++ {
		if err := m.DropPending(m.PendingIDs()[0]); err != nil {
			t.Fatal(err)
		}
		m.mu.RLock()
		snap := &possible.DB{State: m.db.State, Constraints: m.db.Constraints,
			Pending: append([]*relation.Transaction(nil), m.db.Pending...)}
		m.mu.RUnlock()
		unions := make([]*relation.Overlay, 4)
		var wg sync.WaitGroup
		for g := range unions {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				q := queries[g%len(queries)]
				res, err := m.Check(context.Background(), q, Options{Workers: 1 + g%2})
				if err != nil {
					t.Error(err)
					return
				}
				want, err := Check(context.Background(), snap, q, Options{Algorithm: AlgoExhaustive})
				if err != nil {
					t.Error(err)
					return
				}
				if res.Satisfied != want.Satisfied {
					t.Errorf("round %d: %s satisfied=%v on the Monitor, %v on a snapshot", round, q, res.Satisfied, want.Satisfied)
				}
				m.mu.RLock()
				unions[g] = m.union.Load()
				m.mu.RUnlock()
			}(g)
		}
		wg.Wait()
		for g, u := range unions {
			if u == nil || u != unions[0] {
				t.Fatalf("round %d: goroutine %d saw union %p, goroutine 0 %p", round, g, u, unions[0])
			}
		}
	}
}
