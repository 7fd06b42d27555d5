package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"blockchaindb/internal/constraint"
	"blockchaindb/internal/fixture"
	"blockchaindb/internal/graph"
	"blockchaindb/internal/possible"
	"blockchaindb/internal/query"
	"blockchaindb/internal/relation"
	"blockchaindb/internal/value"
)

// TestPaperExample6And8 reproduces the paper's Examples 6 and 8: the
// denial constraint qs() ← TxOut(t, s, 'U8Pk', a) is NOT satisfied by
// the running-example database, because the maximal world over the
// clique {T1,T2,T3,T4} includes T4's output to U8Pk. Both NaiveDCSat
// and OptDCSat must return false (violated).
func TestPaperExample6And8(t *testing.T) {
	d := fixture.PaperDB()
	qs := query.MustParse("qs() :- TxOut(t, s, 'U8Pk', a)")
	for _, algo := range []Algorithm{AlgoNaive, AlgoOpt, AlgoExhaustive} {
		res, err := Check(context.Background(), d, qs, Options{Algorithm: algo})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if res.Satisfied {
			t.Errorf("%v: qs should NOT be satisfied (Example 6)", algo)
		}
	}
	// The witness must be a world containing T4 (index 3).
	res, err := Check(context.Background(), d, qs, Options{Algorithm: AlgoOpt})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, i := range res.Witness {
		if i == 3 {
			found = true
		}
	}
	if !found {
		t.Errorf("witness %v should include T4", res.Witness)
	}
}

// TestPaperExample6CliqueCount: the running example's fd-transaction
// graph has exactly two maximal cliques, {T2,T3,T4,T5} and
// {T1,T2,T3,T4} (Example 6).
func TestPaperExample6CliqueCount(t *testing.T) {
	d := fixture.PaperDB()
	g := buildFDGraph(d, []int{0, 1, 2, 3, 4}).dense()
	cliques := graph.AllMaximalCliques(g)
	if len(cliques) != 2 {
		t.Fatalf("got %d maximal cliques: %v, want 2", len(cliques), cliques)
	}
	want := map[string]bool{"[1 2 3 4]": true, "[0 1 2 3]": true}
	for _, c := range cliques {
		if !want[fmt.Sprintf("%v", c)] {
			t.Errorf("unexpected clique %v", c)
		}
	}
}

// TestSatisfiedConstraint: a constant absent from state and pending
// makes the denial constraint satisfied; the pre-check should decide it.
func TestSatisfiedConstraint(t *testing.T) {
	d := fixture.PaperDB()
	q := query.MustParse("q() :- TxOut(t, s, 'NoSuchKey', a)")
	res, err := Check(context.Background(), d, q, Options{Algorithm: AlgoOpt})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Satisfied {
		t.Error("constraint with unseen constant must be satisfied")
	}
	if !res.Stats.Prechecked {
		t.Error("pre-check should have decided this instance")
	}
	// Without the pre-check it must still be satisfied.
	res2, err := Check(context.Background(), d, q, Options{Algorithm: AlgoOpt, DisablePrecheck: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Satisfied || res2.Stats.Prechecked {
		t.Error("disabled pre-check changed the verdict")
	}
}

// TestPendingOnlyInUnionNotInAnyWorld: the pre-check's union R ∪ ∪T is
// not a possible world; a query true there but false in every world
// must come back satisfied. Here: T1 and T5 double-spend, so no world
// has both outputs 4 and 8.
func TestPendingOnlyInUnionNotInAnyWorld(t *testing.T) {
	d := fixture.PaperDB()
	q := query.MustParse("q() :- TxOut(4, s1, pk1, a1), TxOut(8, s2, pk2, a2)")
	for _, algo := range []Algorithm{AlgoNaive, AlgoOpt, AlgoExhaustive} {
		res, err := Check(context.Background(), d, q, Options{Algorithm: algo})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if !res.Satisfied {
			t.Errorf("%v: conflicting outputs can never coexist; constraint must be satisfied", algo)
		}
	}
}

// TestStateOnlyViolation: a query already true on R alone must be
// reported violated with an empty witness.
func TestStateOnlyViolation(t *testing.T) {
	d := fixture.PaperDB()
	q := query.MustParse("q() :- TxOut(t, s, 'U3Pk', a)") // in R
	for _, algo := range []Algorithm{AlgoNaive, AlgoOpt, AlgoExhaustive} {
		res, err := Check(context.Background(), d, q, Options{Algorithm: algo})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if res.Satisfied {
			t.Errorf("%v: R itself violates the constraint", algo)
		}
		if len(res.Witness) != 0 {
			t.Errorf("%v: witness should be empty, got %v", algo, res.Witness)
		}
	}
}

// TestPaperQ1AliceBob reproduces Example 4: after Alice issues a second
// payment to Bob that does NOT conflict with the first, the denial
// constraint q1 (two distinct payments) is violated; when the second
// payment deliberately double-spends the first's input, q1 is
// satisfied.
func TestPaperQ1AliceBob(t *testing.T) {
	build := func(conflicting bool) *possible.DB {
		s := fixture.BitcoinSchema()
		cons := fixture.BitcoinConstraints(s)
		// Alice owns two outputs worth 1 each.
		s.MustInsert("TxOut", fixture.TxOut(1, 1, "AlicePK", 1))
		s.MustInsert("TxOut", fixture.TxOut(1, 2, "AlicePK", 1))
		// First (pending) payment to Bob spends output (1,1).
		pay1 := relation.NewTransaction("pay1").
			Add("TxIn", fixture.TxIn(1, 1, "AlicePK", 1, 2, "AliceSig")).
			Add("TxOut", fixture.TxOut(2, 1, "BobPK", 1))
		// Second payment: either reuses the same input (conflicting,
		// safe) or spends the other output (both may land).
		var pay2 *relation.Transaction
		if conflicting {
			pay2 = relation.NewTransaction("pay2").
				Add("TxIn", fixture.TxIn(1, 1, "AlicePK", 1, 3, "AliceSig")).
				Add("TxOut", fixture.TxOut(3, 1, "BobPK", 1))
		} else {
			pay2 = relation.NewTransaction("pay2").
				Add("TxIn", fixture.TxIn(1, 2, "AlicePK", 1, 3, "AliceSig")).
				Add("TxOut", fixture.TxOut(3, 1, "BobPK", 1))
		}
		return possible.MustNew(s, cons, []*relation.Transaction{pay1, pay2})
	}
	q1 := query.MustParse(`q1() :- TxIn(pt1, ps1, 'AlicePK', 1, ntx1, 'AliceSig'),
		TxOut(ntx1, ns1, 'BobPK', 1),
		TxIn(pt2, ps2, 'AlicePK', 1, ntx2, 'AliceSig'),
		TxOut(ntx2, ns2, 'BobPK', 1), ntx1 != ntx2`)
	for _, algo := range []Algorithm{AlgoNaive, AlgoOpt, AlgoExhaustive} {
		unsafe, err := Check(context.Background(), build(false), q1, Options{Algorithm: algo})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if unsafe.Satisfied {
			t.Errorf("%v: independent reissue must violate q1 (Bob can be paid twice)", algo)
		}
		safe, err := Check(context.Background(), build(true), q1, Options{Algorithm: algo})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if !safe.Satisfied {
			t.Errorf("%v: conflicting reissue must satisfy q1 (double payment impossible)", algo)
		}
	}
}

// TestAggregateConstraint reproduces Example 5's q3: Alice spends at
// most five bitcoins in total.
func TestAggregateConstraint(t *testing.T) {
	d := fixture.PaperDB()
	// U2Pk spends 4 in T1 or in T5 (conflicting), never both, plus 3
	// more in T2 (which spends T1's change): the spend total is capped
	// at 7 in every world.
	capFine := query.MustParse("q(sum(a)) > 7 :- TxIn(pt, ps, 'U2Pk', a, nt, sig)")
	res, err := Check(context.Background(), d, capFine, Options{Algorithm: AlgoNaive})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Satisfied {
		t.Error("U2Pk can never spend more than 7")
	}
	capLow := query.MustParse("q(sum(a)) > 6 :- TxIn(pt, ps, 'U2Pk', a, nt, sig)")
	res2, err := Check(context.Background(), d, capLow, Options{Algorithm: AlgoNaive})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Satisfied {
		t.Error("the world with T1 and T2 has U2Pk spending 7 > 6")
	}
	// Auto must route aggregates (unconnected) through Naive.
	res3, err := Check(context.Background(), d, capLow, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res3.Stats.Algorithm != AlgoNaive || res3.Satisfied {
		t.Errorf("auto routed to %v, satisfied=%v", res3.Stats.Algorithm, res3.Satisfied)
	}
}

// TestNonMonotonicRouting: non-monotonic constraints are rejected by
// the clique algorithms and routed to exhaustive by auto.
func TestNonMonotonicRouting(t *testing.T) {
	d := fixture.PaperDB()
	q := query.MustParse("q(count()) < 3 :- TxOut(t, s, pk, a)")
	if _, err := Check(context.Background(), d, q, Options{Algorithm: AlgoNaive}); err == nil {
		t.Error("NaiveDCSat must reject non-monotonic constraints")
	}
	if _, err := Check(context.Background(), d, q, Options{Algorithm: AlgoOpt}); err == nil {
		t.Error("OptDCSat must reject non-monotonic constraints")
	}
	res, err := Check(context.Background(), d, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Algorithm != AlgoExhaustive {
		t.Errorf("auto routed non-monotonic query to %v", res.Stats.Algorithm)
	}
	// count < 3 is true on R? R has 6 TxOut tuples, so false on every
	// (larger) world: satisfied.
	if !res.Satisfied {
		t.Error("count < 3 impossible with 6 outputs already committed")
	}
}

// TestCheckValidation: schema mismatches and invalid queries error.
func TestCheckValidation(t *testing.T) {
	d := fixture.PaperDB()
	if _, err := Check(context.Background(), d, query.MustParse("q() :- Missing(x)"), Options{}); err == nil {
		t.Error("unknown relation accepted")
	}
	bad := &query.Query{} // no positive atoms
	if _, err := Check(context.Background(), d, bad, Options{}); err == nil {
		t.Error("invalid query accepted")
	}
	if _, err := Check(context.Background(), d, query.MustParse("q() :- TxOut(t, s, pk, a)"), Options{Algorithm: Algorithm(99)}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	// FD-only solver rejects databases with INDs.
	if _, err := Check(context.Background(), d, query.MustParse("q() :- TxOut(t, s, pk, a)"), Options{Algorithm: AlgoFDOnly}); err == nil {
		t.Error("AlgoFDOnly must reject IND databases")
	}
}

// fdOnlyDB builds a random database without inclusion dependencies:
// R(k:int, v:int) with key {k}, Trusted(v:int) unconstrained.
// Sometimes one pending transaction is dead: it fd-conflicts with R.
func fdOnlyDB(r *rand.Rand) *possible.DB {
	s := relation.NewState()
	s.MustAddSchema(relation.NewSchema("R", "k:int", "v:int"))
	s.MustAddSchema(relation.NewSchema("Trusted", "v:int"))
	cons := constraint.MustNewSet(s, []*constraint.FD{constraint.NewKey(s.Schema("R"), "k")}, nil)
	for k := 0; k < 2; k++ {
		if r.Intn(2) == 0 {
			s.MustInsert("R", value.NewTuple(value.Int(int64(k)), value.Int(int64(r.Intn(3)))))
		}
	}
	if r.Intn(2) == 0 {
		s.MustInsert("Trusted", value.NewTuple(value.Int(int64(r.Intn(3)))))
	}
	var pending []*relation.Transaction
	for i, n := 0, r.Intn(5); i < n; i++ {
		pending = append(pending, randomFDOnlyTx(r, fmt.Sprintf("T%d", i+1)))
	}
	return possible.MustNew(s, cons, withDeadTx(r, s, pending, 3))
}

// randomFDOnlyTx is one random pending transaction of fdOnlyDB.
func randomFDOnlyTx(r *rand.Rand, name string) *relation.Transaction {
	tx := relation.NewTransaction(name)
	for j, m := 0, 1+r.Intn(2); j < m; j++ {
		if r.Intn(4) == 0 {
			tx.Add("Trusted", value.NewTuple(value.Int(int64(r.Intn(3)))))
		} else {
			tx.Add("R", value.NewTuple(value.Int(int64(r.Intn(4))), value.Int(int64(r.Intn(3)))))
		}
	}
	return tx
}

// withDeadTx sometimes inserts, at a random position of pending, a
// transaction that fd-conflicts with a committed R(k, v) under the key
// {k}. Besides the conflicting tuple it carries an R tuple with a
// key in [0, maxKey), which may duplicate a live transaction's tuple,
// so the all-pending union differs from the union of the live ones.
func withDeadTx(r *rand.Rand, s *relation.State, pending []*relation.Transaction, maxKey int) []*relation.Transaction {
	var committed []value.Tuple
	s.Scan("R", func(t value.Tuple) bool {
		committed = append(committed, t)
		return true
	})
	if len(committed) == 0 || r.Intn(3) != 0 {
		return pending
	}
	c := committed[r.Intn(len(committed))]
	dead := relation.NewTransaction("Dead").
		Add("R", value.NewTuple(c[0], value.Int(c[1].AsInt()+1))).
		Add("R", value.NewTuple(value.Int(int64(r.Intn(maxKey))), value.Int(int64(r.Intn(3)))))
	at := r.Intn(len(pending) + 1)
	return append(pending[:at], append([]*relation.Transaction{dead}, pending[at:]...)...)
}

// agreesWithExhaustive checks the fd-only verdict res on d against
// exhaustive enumeration and revalidates a violation's witness: it is
// reachable, and q holds on R ∪ witness.
func agreesWithExhaustive(t *testing.T, d *possible.DB, q *query.Query, res *Result, what string) bool {
	t.Helper()
	want, err := Check(context.Background(), d, q, Options{Algorithm: AlgoExhaustive})
	if err != nil {
		t.Fatalf("%s: exhaustive: %v on %s", what, err, q)
	}
	if res.Satisfied != want.Satisfied {
		t.Logf("%s query %s: fdonly=%v exhaustive=%v (witness %v)",
			what, q, res.Satisfied, want.Satisfied, want.Witness)
		return false
	}
	if res.Satisfied {
		return true
	}
	if !d.IsReachable(res.Witness) {
		t.Logf("%s query %s: witness %v is not reachable", what, q, res.Witness)
		return false
	}
	world := relation.NewOverlay(d.State)
	for _, ti := range res.Witness {
		world.Add(d.Pending[ti])
	}
	if hit, err := query.Eval(q, world); err != nil || !hit {
		t.Logf("%s query %s: q does not hold on R ∪ witness %v (%v)", what, q, res.Witness, err)
		return false
	}
	return true
}

// randomFDOnlyQuery builds small conjunctive queries over R / Trusted,
// sometimes with negation (legal for AlgoFDOnly and AlgoExhaustive).
func randomFDOnlyQuery(r *rand.Rand, allowNegation bool) *query.Query {
	q := &query.Query{Name: "q"}
	term := func() query.Term {
		if r.Intn(3) == 0 {
			return query.C(value.Int(int64(r.Intn(3))))
		}
		return query.V([]string{"x", "y", "z"}[r.Intn(3)])
	}
	for i, n := 0, 1+r.Intn(2); i < n; i++ {
		q.Atoms = append(q.Atoms, query.Atom{Rel: "R", Args: []query.Term{term(), term()}})
	}
	vars := q.Vars()
	if len(vars) == 0 {
		q.Atoms[0].Args[0] = query.V("x")
		vars = []string{"x"}
	}
	if allowNegation && r.Intn(2) == 0 {
		q.Atoms = append(q.Atoms, query.Atom{
			Rel: "Trusted", Args: []query.Term{query.V(vars[r.Intn(len(vars))])}, Negated: true})
	}
	if r.Intn(3) == 0 {
		q.Comparisons = append(q.Comparisons, query.Comparison{
			Left:  query.V(vars[r.Intn(len(vars))]),
			Op:    []query.CmpOp{query.OpNe, query.OpLt, query.OpGt}[r.Intn(3)],
			Right: query.C(value.Int(int64(r.Intn(3)))),
		})
	}
	return q
}

// TestFDOnlyAgainstExhaustive is the property test for the Theorem 1.1
// PTIME solver: it must agree with exhaustive world enumeration on
// random IND-free databases, including queries with negation, and every
// witness it reports must be a reachable world where q holds.
func TestFDOnlyAgainstExhaustive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := fdOnlyDB(r)
		q := randomFDOnlyQuery(r, true)
		if q.Validate() != nil {
			return true
		}
		got, err := Check(context.Background(), d, q, Options{Algorithm: AlgoFDOnly})
		if err != nil {
			t.Fatalf("fdonly: %v on %s", err, q)
		}
		return agreesWithExhaustive(t, d, q, got, fmt.Sprintf("seed %d", seed))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestFDOnlyMonitorAgainstExhaustive runs queries with negation through
// a warm Monitor.Check, which routes them to the fd-only solver over
// the Monitor's prepared view, after random AddPending and DropPending
// steps, and checks every verdict and witness against exhaustive
// enumeration of the Monitor's current database.
func TestFDOnlyMonitorAgainstExhaustive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := fdOnlyDB(r)
		mon := NewMonitor(d)
		ids := mon.PendingIDs()
		for step := 0; step < 6; step++ {
			q := randomFDOnlyQuery(r, true)
			if len(q.Negatives()) == 0 || q.Validate() != nil {
				continue
			}
			got, err := mon.Check(context.Background(), q, Options{})
			if err != nil {
				t.Fatalf("monitor: %v on %s", err, q)
			}
			if got.Stats.Algorithm != AlgoFDOnly {
				t.Fatalf("monitor routed %s to %v", q, got.Stats.Algorithm)
			}
			snap := possible.MustNew(mon.db.State, mon.db.Constraints, mon.db.Pending)
			if !agreesWithExhaustive(t, snap, q, got, fmt.Sprintf("seed %d step %d", seed, step)) {
				return false
			}
			if len(ids) > 0 && r.Intn(2) == 0 {
				i := r.Intn(len(ids))
				if err := mon.DropPending(ids[i]); err != nil {
					t.Fatal(err)
				}
				ids = append(ids[:i], ids[i+1:]...)
			} else {
				id, err := mon.AddPending(randomFDOnlyTx(r, fmt.Sprintf("A%d", step)))
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, id)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// bitcoinLikeDB generates small random databases with both keys and
// INDs (the CoNP-complete regime) for cross-validating the clique
// algorithms against exhaustive enumeration.
func bitcoinLikeDB(r *rand.Rand) *possible.DB {
	s := fixture.BitcoinSchema()
	cons := fixture.BitcoinConstraints(s)
	nOuts := 2 + r.Intn(3)
	for i := 0; i < nOuts; i++ {
		s.MustInsert("TxOut", fixture.TxOut(1, int64(i+1), fmt.Sprintf("U%dPk", i%3), 1))
	}
	var pending []*relation.Transaction
	nextTx := int64(2)
	for i, n := 0, r.Intn(5); i < n; i++ {
		tx := relation.NewTransaction(fmt.Sprintf("T%d", i+1))
		// Spend a random committed output (possibly double-spending a
		// previous pending transaction) or a pending output.
		ser := int64(r.Intn(nOuts) + 1)
		owner := fmt.Sprintf("U%dPk", (ser-1)%3)
		tx.Add("TxIn", fixture.TxIn(1, ser, owner, 1, nextTx, owner+"Sig"))
		tx.Add("TxOut", fixture.TxOut(nextTx, 1, fmt.Sprintf("U%dPk", r.Intn(4)), 1))
		nextTx++
		pending = append(pending, tx)
	}
	return possible.MustNew(s, cons, pending)
}

// oracleDB draws a database for the clique-vs-exhaustive oracles: half
// the time from bitcoinLikeDB, otherwise from walkDB, whose dead
// transactions and pending-to-pending spends exercise the live filter
// and inclusion-dependency chains.
func oracleDB(r *rand.Rand) *possible.DB {
	if r.Intn(2) == 0 {
		return bitcoinLikeDB(r)
	}
	return walkDB(r)
}

// TestCliqueAlgorithmsAgainstExhaustive: NaiveDCSat, OptDCSat (serial
// and parallel), and exhaustive enumeration agree on random
// Bitcoin-like databases (see oracleDB) for monotone connected queries.
func TestCliqueAlgorithmsAgainstExhaustive(t *testing.T) {
	queries := []string{
		"q() :- TxOut(t, s, 'U0Pk', a)",
		"q() :- TxOut(t, s, 'U3Pk', a)",
		"q() :- TxIn(pt, ps, 'U1Pk', a, nt, sig), TxOut(nt, s2, pk2, a2)",
		"q() :- TxOut(t1, s1, 'U2Pk', a1), TxIn(t1, s1, 'U2Pk', a1, t2, sg), TxOut(t2, s2, pk, a2)",
		"q(count()) > 1 :- TxIn(pt, ps, pk, a, nt, sig)",
		"q(sum(a)) > 2 :- TxIn(pt, ps, pk, a, nt, sig)",
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := oracleDB(r)
		q := query.MustParse(queries[r.Intn(len(queries))])
		want, err := Check(context.Background(), d, q, Options{Algorithm: AlgoExhaustive})
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range []Options{
			{Algorithm: AlgoNaive},
			{Algorithm: AlgoNaive, DisablePrecheck: true},
			{Algorithm: AlgoOpt},
			{Algorithm: AlgoOpt, DisablePrecheck: true},
			{Algorithm: AlgoOpt, DisableCoverFilter: true},
			{Algorithm: AlgoOpt, Workers: 3},
		} {
			got, err := Check(context.Background(), d, q, opts)
			if err != nil {
				// Aggregates are not connected; Opt falls back to a
				// single component, so no error is expected ever.
				t.Fatalf("opts %+v: %v", opts, err)
			}
			if got.Satisfied != want.Satisfied {
				t.Logf("seed %d query %s opts %+v: got %v want %v (witness %v)",
					seed, q, opts, got.Satisfied, want.Satisfied, want.Witness)
				return false
			}
			// A reported witness must be a real possible world that
			// satisfies the query.
			if !got.Satisfied && got.Stats.Algorithm != AlgoExhaustive {
				if !d.IsReachable(got.Witness) {
					t.Logf("witness %v not reachable", got.Witness)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

// TestWitnessWorldSatisfiesQuery: for violated constraints the witness
// world must actually satisfy the query.
func TestWitnessWorldSatisfiesQuery(t *testing.T) {
	d := fixture.PaperDB()
	q := query.MustParse("qs() :- TxOut(t, s, 'U8Pk', a)")
	res, err := Check(context.Background(), d, q, Options{Algorithm: AlgoOpt})
	if err != nil {
		t.Fatal(err)
	}
	if res.Satisfied {
		t.Fatal("expected violation")
	}
	world := relation.NewOverlay(d.State)
	for _, i := range res.Witness {
		world.Add(d.Pending[i])
	}
	hit, err := query.Eval(q, world)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Errorf("witness world %v does not satisfy the query", res.Witness)
	}
	if !d.IsReachable(res.Witness) {
		t.Errorf("witness %v is not a reachable world", res.Witness)
	}
}

// TestStatsPopulated sanity-checks the stats fields.
func TestStatsPopulated(t *testing.T) {
	d := fixture.PaperDB()
	q := query.MustParse("qs() :- TxOut(t, s, 'U8Pk', a)")
	res, err := Check(context.Background(), d, q, Options{Algorithm: AlgoOpt})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Algorithm != AlgoOpt {
		t.Errorf("Algorithm = %v", st.Algorithm)
	}
	if st.LivePending != 5 {
		t.Errorf("LivePending = %d, want 5", st.LivePending)
	}
	if st.Components == 0 || st.Cliques == 0 || st.WorldsEvaluated == 0 {
		t.Errorf("stats not populated: %+v", st)
	}
	if st.Duration <= 0 {
		t.Error("Duration not recorded")
	}
}

func TestAlgorithmString(t *testing.T) {
	cases := map[Algorithm]string{
		AlgoAuto: "auto", AlgoNaive: "naive", AlgoOpt: "opt",
		AlgoFDOnly: "fdonly", AlgoExhaustive: "exhaustive", Algorithm(42): "algorithm(42)",
	}
	for a, want := range cases {
		if a.String() != want {
			t.Errorf("%d.String() = %q", a, a.String())
		}
	}
}
