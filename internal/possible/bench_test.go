package possible_test

import (
	"fmt"
	"math/rand"
	"testing"

	"blockchaindb/internal/fixture"
	"blockchaindb/internal/possible"
	"blockchaindb/internal/relation"
)

// raceDB builds a contention-shaped database: a committed background
// economy; one pending transaction H that funds every spender, so all
// worlds share it; races committed outputs, each spent by spenders
// pending transactions that conflict with one another; and a collector
// W that spends one seeded winner of every race, so it waits on them.
// It returns the database, the clique search's universal members (H
// and W) and each race's spenders.
func raceDB(rng *rand.Rand, races, spenders int) (*possible.DB, []int, [][]int) {
	s := fixture.BitcoinSchema()
	next := int64(1)
	newID := func() int64 { id := next; next++; return id }
	for i := 0; i < 30; i++ {
		cb := newID()
		pk := fmt.Sprintf("U%dPk", rng.Intn(200))
		s.MustInsert("TxOut", fixture.TxOut(cb, 1, pk, 100))
		if i%2 == 0 {
			sp := newID()
			s.MustInsert("TxIn", fixture.TxIn(cb, 1, pk, 100, sp, pk+"Sig"))
			s.MustInsert("TxOut", fixture.TxOut(sp, 1, fmt.Sprintf("U%dPk", rng.Intn(200)), 100))
		}
	}
	src, hid := newID(), newID()
	s.MustInsert("TxOut", fixture.TxOut(src, 1, "SrcPk", 1000))
	h := relation.NewTransaction("H").Add("TxIn", fixture.TxIn(src, 1, "SrcPk", 1000, hid, "SrcPkSig"))
	for k := 0; k < races*spenders; k++ {
		h.Add("TxOut", fixture.TxOut(hid, int64(k+1), "PrefixPk", 1))
	}
	pending := []*relation.Transaction{h}
	wid := newID()
	w := relation.NewTransaction("W")
	bySlot := make([][]int, races)
	for g := 0; g < races; g++ {
		race := newID()
		racePk := fmt.Sprintf("Race%dPk", g)
		s.MustInsert("TxOut", fixture.TxOut(race, 1, racePk, 50))
		win := rng.Intn(spenders)
		for k := 0; k < spenders; k++ {
			id := newID()
			payee := fmt.Sprintf("R%d_%dPk", g, k)
			tx := relation.NewTransaction(fmt.Sprintf("P%d_%d", g, k)).
				Add("TxIn", fixture.TxIn(race, 1, racePk, 50, id, racePk+"Sig")).
				Add("TxIn", fixture.TxIn(hid, int64(g*spenders+k+1), "PrefixPk", 1, id, "PrefixPkSig")).
				Add("TxOut", fixture.TxOut(id, 1, payee, 40)).
				Add("TxOut", fixture.TxOut(id, 2, "RecvPk", float64(1+rng.Intn(10))))
			if k == win {
				w.Add("TxIn", fixture.TxIn(id, 1, payee, 40, wid, payee+"Sig"))
			}
			bySlot[g] = append(bySlot[g], len(pending))
			pending = append(pending, tx)
		}
	}
	w.Add("TxOut", fixture.TxOut(wid, 1, "CollectorPk", float64(40*races)))
	pending = append(pending, w)
	d := possible.MustNew(s, fixture.BitcoinConstraints(s), pending)
	return d, []int{0, len(pending) - 1}, bySlot
}

// BenchmarkWorldStackPushPop walks the clique tree of a
// contention-shaped database the way the clique search does: rebase on
// the universal members, then push one spender per race and pop back,
// depth first, through all spenders^races cliques. One op is one whole
// walk; pushes/op is its Push/Pop pairs.
func BenchmarkWorldStackPushPop(b *testing.B) {
	d, base, races := raceDB(rand.New(rand.NewSource(1)), 4, 3)
	var ws possible.WorldStack
	pushes, collected := 0, 0
	var walk func(g int)
	walk = func(g int) {
		if g == len(races) {
			if len(ws.Included()) == len(races)+2 {
				collected++ // H, one spender per race, and W
			}
			return
		}
		for _, ti := range races[g] {
			ws.Push(ti)
			pushes++
			walk(g + 1)
			ws.Pop()
		}
	}
	ws.Rebase(d, base)
	walk(0) // builds the overlay's indexes and grows the stack's buffers
	if got := len(ws.Included()); got != 1 || collected != 1 {
		b.Fatalf("root world includes %d transactions, %d cliques include W; want 1 (H) and 1 (the winners')", got, collected)
	}
	b.ReportAllocs()
	b.ResetTimer()
	pushes = 0
	for i := 0; i < b.N; i++ {
		walk(0)
	}
	b.ReportMetric(float64(pushes)/float64(b.N), "pushes/op")
}
