package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"blockchaindb/internal/fixture"
	"blockchaindb/internal/possible"
	"blockchaindb/internal/query"
	"blockchaindb/internal/relation"
)

// TestMonitorEquivalentToFreshDatabase drives a Monitor through random
// add/commit/drop sequences and, after every step, cross-validates its
// incrementally maintained state against a freshly constructed
// database: same conflict-pair count, same appendability statuses, and
// the same verdicts for a battery of denial constraints, for every
// storeVariants Monitor.
func TestMonitorEquivalentToFreshDatabase(t *testing.T) {
	queries := []string{
		"q() :- TxOut(t, s, 'U0Pk', a)",
		"q() :- TxOut(t, s, 'U2Pk', a)",
		"q() :- TxIn(pt, ps, 'U1Pk', a, nt, sig), TxOut(nt, s2, pk2, a2)",
		"q(sum(a)) > 2 :- TxIn(pt, ps, pk, a, nt, sig)",
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		// Start from a bitcoin-like database; the monitor ingests its
		// pending set.
		base := bitcoinLikeDB(r)
		variants := storeVariants(base)
		mon := variants[0].mon
		// Mirror state: the transactions currently pending, and a clone
		// of the committed state.
		mirror := base.State.Clone()
		type slot struct {
			id int
			tx *relation.Transaction
		}
		var pend []slot
		for i, tx := range base.Pending {
			pend = append(pend, slot{id: i, tx: tx})
		}
		nextID := len(base.Pending)
		nextTxNum := int64(100)

		freshDB := func() *possible.DB {
			txs := make([]*relation.Transaction, len(pend))
			for i, s := range pend {
				txs[i] = s.tx
			}
			return possible.MustNew(mirror.Clone(), base.Constraints, txs)
		}
		agree := func(step string) bool {
			fresh := freshDB()
			// Conflict pairs.
			conflicts := 0
			for i := 0; i < len(fresh.Pending); i++ {
				for j := i + 1; j < len(fresh.Pending); j++ {
					if !fresh.Constraints.FDCompatible(fresh.Pending[i], fresh.Pending[j]) {
						conflicts++
					}
				}
			}
			if mon.ConflictCount() != conflicts {
				t.Logf("seed %d %s: monitor conflicts %d, fresh %d", seed, step, mon.ConflictCount(), conflicts)
				return false
			}
			// Appendability statuses.
			for i, s := range pend {
				want := fresh.Constraints.CanAppend(fresh.State, fresh.Pending[i])
				if got := mon.Appendable(s.id); got != want {
					t.Logf("seed %d %s: appendable(%d) monitor %v, fresh %v", seed, step, s.id, got, want)
					return false
				}
			}
			// Verdicts.
			for _, src := range queries {
				q := query.MustParse(src)
				fres, err := Check(context.Background(), fresh, q, Options{Algorithm: AlgoExhaustive})
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range variants {
					mres, err := v.mon.Check(context.Background(), q, v.opts)
					if err != nil {
						t.Fatal(err)
					}
					if mres.Satisfied != fres.Satisfied {
						t.Logf("seed %d %s %s: %s monitor %v, fresh %v", seed, v.name, step, src, mres.Satisfied, fres.Satisfied)
						return false
					}
				}
			}
			return true
		}

		if !agree("initial") {
			return false
		}
		for step := 0; step < 6; step++ {
			switch r.Intn(3) {
			case 0: // add a new pending transaction
				owner := fmt.Sprintf("U%dPk", r.Intn(3))
				tx := relation.NewTransaction(fmt.Sprintf("N%d", nextID)).
					Add("TxIn", fixture.TxIn(1, int64(r.Intn(4)+1), owner, 1, nextTxNum, owner+"Sig")).
					Add("TxOut", fixture.TxOut(nextTxNum, 1, fmt.Sprintf("U%dPk", r.Intn(4)), 1))
				nextTxNum++
				norm, err := mirror.NormalizeTransaction(tx)
				if err != nil {
					t.Fatal(err)
				}
				id := nextID
				for _, v := range variants {
					if got, err := v.mon.AddPending(tx); err != nil || got != id {
						t.Fatalf("%s: AddPending = %d, %v; want id %d", v.name, got, err, id)
					}
				}
				pend = append(pend, slot{id: id, tx: norm})
				nextID++
			case 1: // drop a random pending transaction
				if len(pend) == 0 {
					continue
				}
				i := r.Intn(len(pend))
				for _, v := range variants {
					if err := v.mon.DropPending(pend[i].id); err != nil {
						t.Fatal(err)
					}
				}
				pend = append(pend[:i], pend[i+1:]...)
			case 2: // commit a random appendable transaction
				if len(pend) == 0 {
					continue
				}
				i := r.Intn(len(pend))
				if !mon.Appendable(pend[i].id) {
					continue
				}
				for _, v := range variants {
					if err := v.mon.Commit(pend[i].id); err != nil {
						t.Fatal(err)
					}
				}
				if err := mirror.InsertTransaction(pend[i].tx); err != nil {
					t.Fatal(err)
				}
				pend = append(pend[:i], pend[i+1:]...)
			}
			if !agree(fmt.Sprintf("step %d", step)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
