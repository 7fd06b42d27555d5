package main

import (
	"fmt"
	"math/rand"

	"blockchaindb/internal/core"
	"blockchaindb/internal/possible"
	"blockchaindb/internal/query"
	"blockchaindb/internal/relation"
	"blockchaindb/internal/value"
	"blockchaindb/internal/workload"
)

// The contention workload: double-spend races in which the precheck is
// inconclusive and the clique walk is exhaustive or long.
//
// One instance is a Bitcoin-shaped database (workload.Schema and
// workload.Constraints, so keys and inclusion dependencies) with:
//
//   - a committed background economy (coinbases and their spends);
//   - a shared prefix: one pending, unconflicted transaction H whose
//     outputs fund every race spender, so the races form one ind
//     component whose worlds all share H;
//   - G committed race outputs, each spent by S pending spenders that
//     pay a distinct party and an amount to RecvPk, so the fd graph has
//     S^G maximal cliques;
//   - a collector transaction W spending the first output of one
//     seeded winner per race: W is in a world only when every race was
//     won by its winner.
//
// Every constraint's verdict is fixed by that construction.
type raceShape struct {
	races, spenders, background int
}

// A run checks 23 instances of raceFull (81 cliques, a few ms per
// check) and one of raceHeavy (729 cliques, tens of ms). The heavy
// instance's exhaustive checks are ~3% of all checks, so they form the
// p99: were every check a few ms long, the p99 would measure the host's
// scheduling hiccups rather than the clique search.
var (
	raceFull  = raceShape{races: 4, spenders: 3, background: 30}
	raceHeavy = raceShape{races: 6, spenders: 3, background: 30}
	raceTiny  = raceShape{races: 3, spenders: 2, background: 20}
)

type raceInstance struct {
	db      *possible.DB
	queries []raceQuery
}

type raceQuery struct {
	label string
	q     *query.Query
	want  bool
}

// buildRace generates one instance from rng.
func buildRace(rng *rand.Rand, shape raceShape) (*raceInstance, error) {
	state := workload.Schema()
	next := int64(1)
	newTx := func() int64 { id := next; next++; return id }
	out := func(tx *relation.Transaction, id, ser int64, pk string, amt int64) {
		row := value.NewTuple(value.Int(id), value.Int(ser), value.Str(pk), value.Int(amt))
		if tx == nil {
			state.MustInsert("TxOut", row)
			return
		}
		tx.Add("TxOut", row)
	}
	in := func(tx *relation.Transaction, prev, ser int64, pk string, amt, id int64) {
		row := value.NewTuple(value.Int(prev), value.Int(ser), value.Str(pk), value.Int(amt), value.Int(id), value.Str(pk+"Sig"))
		if tx == nil {
			state.MustInsert("TxIn", row)
			return
		}
		tx.Add("TxIn", row)
	}
	// Background: coinbases, half of them spent on to fresh owners.
	for i := 0; i < shape.background; i++ {
		cb := newTx()
		pk := fmt.Sprintf("U%dPk", rng.Intn(200))
		amt := int64(100 + rng.Intn(900))
		out(nil, cb, 1, pk, amt)
		if i%2 == 0 {
			sp := newTx()
			in(nil, cb, 1, pk, amt, sp)
			out(nil, sp, 1, fmt.Sprintf("U%dPk", rng.Intn(200)), amt)
		}
	}
	// The shared prefix H spends one committed coinbase and creates one
	// funding output per spender.
	src := newTx()
	out(nil, src, 1, "PrefixSrcPk", 1_000_000)
	hid := newTx()
	h := relation.NewTransaction(fmt.Sprintf("H%d", hid))
	in(h, src, 1, "PrefixSrcPk", 1_000_000, hid)
	nFund := shape.races * shape.spenders
	for k := 0; k < nFund; k++ {
		out(h, hid, int64(k+1), "PrefixPk", 1)
	}
	pending := []*relation.Transaction{h}
	// Races.
	type spender struct {
		id     int64
		payee  string
		amount int64
	}
	winners := make([]spender, shape.races)
	var best, union int64
	for g := 0; g < shape.races; g++ {
		race := newTx()
		racePk := fmt.Sprintf("Race%dPk", g)
		out(nil, race, 1, racePk, 5000)
		win := rng.Intn(shape.spenders)
		var top int64
		for s := 0; s < shape.spenders; s++ {
			id := newTx()
			tx := relation.NewTransaction(fmt.Sprintf("P%d_%d", g, s))
			in(tx, race, 1, racePk, 5000, id)
			in(tx, hid, int64(g*shape.spenders+s+1), "PrefixPk", 1, id)
			payee := fmt.Sprintf("R%d_%dPk", g, s)
			amt := int64(1 + rng.Intn(1000))
			out(tx, id, 1, payee, 4000)
			out(tx, id, 2, "RecvPk", amt)
			pending = append(pending, tx)
			union += amt
			if amt > top {
				top = amt
			}
			if s == win {
				winners[g] = spender{id: id, payee: payee, amount: 4000}
			}
		}
		best += top
	}
	// The collector needs every race's winner.
	wid := newTx()
	w := relation.NewTransaction(fmt.Sprintf("W%d", wid))
	for _, sp := range winners {
		in(w, sp.id, 1, sp.payee, sp.amount, wid)
	}
	out(w, wid, 1, "CollectorPk", int64(4000*shape.races))
	pending = append(pending, w)
	rng.Shuffle(len(pending), func(i, j int) { pending[i], pending[j] = pending[j], pending[i] })

	db, err := possible.New(state, workload.Constraints(state), pending)
	if err != nil {
		return nil, fmt.Errorf("contention instance: %w", err)
	}
	// The aggregate's threshold lies between the best world's total
	// (the largest payment of every race) and the union's total: true
	// over R ∪ ∪T, false in every world.
	n := best + rng.Int63n(union-best)
	first := winners[rng.Intn(len(winners))]
	return &raceInstance{db: db, queries: []raceQuery{
		{"two-parties", query.MustParse("q() :- TxIn(t, s, pk, a, n1, g1), TxOut(n1, o1, p1, b1), " +
			"TxIn(t, s, pk, a, n2, g2), TxOut(n2, o2, p2, b2), n1 != n2, p1 != p2"), true},
		{"winners-path", query.MustParse(fmt.Sprintf("q() :- TxOut(n1, s1, '%s', a1), "+
			"TxIn(n1, s1, '%s', a1, w, g1), TxOut(w, s2, 'CollectorPk', a2)", first.payee, first.payee)), false},
		{"sum-between", query.MustParse(fmt.Sprintf("q(sum(a)) > %d :- TxOut(t, s, 'RecvPk', a)", n)), true},
	}}, nil
}

// buildContention generates the instances and the seeded rotation of
// (instance, constraint, workers) cells.
func buildContention(seed int64, tiny bool) ([]checkCell, error) {
	rng := rand.New(rand.NewSource(seed))
	shapes := make([]raceShape, 24)
	for i := range shapes {
		shapes[i] = raceFull
	}
	shapes[0] = raceHeavy
	if tiny {
		shapes = []raceShape{raceTiny, raceTiny}
	}
	var cells []checkCell
	for _, shape := range shapes {
		inst, err := buildRace(rng, shape)
		if err != nil {
			return nil, err
		}
		for _, rq := range inst.queries {
			for _, workers := range []int{1, 2} {
				cells = append(cells, checkCell{
					label: fmt.Sprintf("%s/w%d", rq.label, workers), db: inst.db,
					q: rq.q, opts: core.Options{Workers: workers}, want: rq.want,
				})
			}
		}
	}
	rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	return cells, nil
}

func runContention(cfg runConfig) (*report, error) {
	return runRotation(cfg, "contention", func() ([]checkCell, error) { return buildContention(cfg.seed, cfg.tiny) })
}
