package core

import (
	"context"
	"testing"

	"blockchaindb/internal/constraint"
	"blockchaindb/internal/fixture"
	"blockchaindb/internal/possible"
	"blockchaindb/internal/query"
	"blockchaindb/internal/relation"
	"blockchaindb/internal/value"
)

// mustDB assembles a blockchain database for extension tests.
func mustDB(t *testing.T, s *relation.State, fds []*constraint.FD, inds []*constraint.IND, pending ...*relation.Transaction) *possible.DB {
	t.Helper()
	cons := constraint.MustNewSet(s, fds, inds)
	return possible.MustNew(s, cons, pending)
}

// TestContradictPaperDB: deriving a contradiction for T5 must yield a
// transaction that double-spends T5's input, restoring safety for
// constraints that T5 would violate.
func TestContradictPaperDB(t *testing.T) {
	d := fixture.PaperDB()
	t5 := d.Pending[4]
	contra, err := Contradict(d, t5, "cancel-T5")
	if err != nil {
		t.Fatal(err)
	}
	if d.Constraints.FDCompatible(t5, contra) {
		t.Fatal("derived transaction does not conflict with the target")
	}
	if !d.Constraints.FDSelfConsistent(contra) {
		t.Error("derived transaction is self-inconsistent")
	}
	if !d.Constraints.CanAppend(d.State, contra) {
		t.Error("derived transaction is not appendable to the current state")
	}
	// End to end: with the contradiction pending, no possible world can
	// contain both it and T5.
	d2 := &possible.DB{State: d.State, Constraints: d.Constraints,
		Pending: append(append([]*relation.Transaction(nil), d.Pending...), contra)}
	contraIdx := len(d2.Pending) - 1
	if d2.IsReachable([]int{4, contraIdx}) {
		t.Error("T5 and its contradiction coexist in a possible world")
	}
	if !d2.IsReachable([]int{contraIdx}) {
		t.Error("the contradiction alone should be reachable")
	}
}

// TestContradictNoFDs: a database without functional dependencies
// admits no contradictions (nothing ever conflicts).
func TestContradictNoFDs(t *testing.T) {
	s := relation.NewState()
	s.MustAddSchema(relation.NewSchema("R", "a:int"))
	d := mustDB(t, s, nil, nil, relation.NewTransaction("T").Add("R", value.NewTuple(value.Int(1))))
	if _, err := Contradict(d, d.Pending[0], "c"); err == nil {
		t.Error("contradiction derived without any FDs")
	}
}

// TestContradictKeyOnlyRelation: with a key spanning all attributes on
// a single-attribute relation, no RHS column is mutable.
func TestContradictKeyOnlyRelation(t *testing.T) {
	s := relation.NewState()
	s.MustAddSchema(relation.NewSchema("R", "a:int"))
	key := []*constraint.FD{constraint.NewKey(s.Schema("R"), "a")}
	d := mustDB(t, s, key, nil, relation.NewTransaction("T").Add("R", value.NewTuple(value.Int(1))))
	if _, err := Contradict(d, d.Pending[0], "c"); err == nil {
		t.Error("contradiction derived though key covers every attribute")
	}
}

// TestEstimateViolation: with inclusion probability 0 only R is
// sampled; with probability 1 the estimate must find violations that
// exist in (almost) every realizable order.
func TestEstimateViolation(t *testing.T) {
	d := fixture.PaperDB()
	q := query.MustParse("q() :- TxOut(t, s, 'U5Pk', a)") // output of T1
	zero, err := EstimateViolation(d, q, UniformInclusion(0), 200, 42)
	if err != nil {
		t.Fatal(err)
	}
	if zero.Probability != 0 {
		t.Errorf("p(violation | nothing included) = %v", zero.Probability)
	}
	one, err := EstimateViolation(d, q, UniformInclusion(1), 200, 42)
	if err != nil {
		t.Fatal(err)
	}
	// With everything offered, T1 lands unless T5 is appended first;
	// the probability must be strictly between 0 and 1 over random
	// orders, and the run must be deterministic per seed.
	if one.Probability <= 0 || one.Probability >= 1 {
		t.Errorf("p(violation | everything offered) = %v, want in (0,1)", one.Probability)
	}
	again, err := EstimateViolation(d, q, UniformInclusion(1), 200, 42)
	if err != nil {
		t.Fatal(err)
	}
	if again.Probability != one.Probability {
		t.Error("estimate not deterministic for a fixed seed")
	}
	if one.Samples != 200 || one.StdErr <= 0 {
		t.Errorf("estimate metadata: %+v", one)
	}
	// A constraint already violated by R alone has probability 1.
	inR := query.MustParse("q() :- TxOut(t, s, 'U3Pk', a)")
	sure, err := EstimateViolation(d, inR, UniformInclusion(0), 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sure.Probability != 1 {
		t.Errorf("p(violation | in R) = %v", sure.Probability)
	}
}

func TestEstimateViolationValidation(t *testing.T) {
	d := fixture.PaperDB()
	q := query.MustParse("q() :- TxOut(t, s, pk, a)")
	if _, err := EstimateViolation(d, q, UniformInclusion(0.5), 0, 1); err == nil {
		t.Error("zero samples accepted")
	}
	if _, err := EstimateViolation(d, query.MustParse("q() :- Missing(x)"), UniformInclusion(0.5), 10, 1); err == nil {
		t.Error("unknown relation accepted")
	}
	if UniformInclusion(-1)(0, nil) != 0 || UniformInclusion(2)(0, nil) != 1 {
		t.Error("UniformInclusion clamping wrong")
	}
}

// TestMonitorLifecycle drives the steady-state monitor through the
// paper's running example: add T1..T5, check constraints, commit T1,
// drop T5, and verify the maintained structures at each step.
func TestMonitorLifecycle(t *testing.T) {
	base := fixture.PaperDB()
	// Start from an empty pending set and add the transactions one by
	// one through the monitor.
	empty := &possible.DB{State: base.State, Constraints: base.Constraints}
	m := NewMonitor(empty)
	var ids []int
	for _, tx := range base.Pending {
		id, err := m.AddPending(tx)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if m.PendingCount() != 5 {
		t.Fatalf("PendingCount = %d", m.PendingCount())
	}
	// T1 and T5 double-spend: exactly one conflict pair.
	if m.ConflictCount() != 1 {
		t.Errorf("ConflictCount = %d, want 1", m.ConflictCount())
	}
	// Appendability statuses: T1, T3, T5 can be appended to R directly.
	wantAppendable := map[int]bool{0: true, 1: false, 2: true, 3: false, 4: true}
	for i, id := range ids {
		if got := m.Appendable(id); got != wantAppendable[i] {
			t.Errorf("Appendable(T%d) = %v, want %v", i+1, got, wantAppendable[i])
		}
	}
	// The running-example check through the monitor.
	qs := query.MustParse("qs() :- TxOut(t, s, 'U8Pk', a)")
	res, err := m.Check(context.Background(), qs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Satisfied {
		t.Error("monitor check disagrees with Example 6")
	}
	// Commit T1; T5 becomes unappendable forever (double spend against
	// the state) while T2 becomes appendable.
	if err := m.Commit(ids[0]); err != nil {
		t.Fatal(err)
	}
	if m.PendingCount() != 4 {
		t.Errorf("PendingCount after commit = %d", m.PendingCount())
	}
	if m.Appendable(ids[4]) {
		t.Error("T5 should be dead after committing T1")
	}
	if !m.Appendable(ids[1]) {
		t.Error("T2 should be appendable after committing T1")
	}
	// Committing the dead T5 must fail.
	if err := m.Commit(ids[4]); err == nil {
		t.Error("committing a conflicting transaction should fail")
	}
	// Drop T5; conflict pair disappears.
	if err := m.DropPending(ids[4]); err != nil {
		t.Fatal(err)
	}
	if m.ConflictCount() != 0 {
		t.Errorf("ConflictCount after drop = %d", m.ConflictCount())
	}
	if err := m.DropPending(999); err == nil {
		t.Error("dropping unknown id should fail")
	}
	if err := m.Commit(999); err == nil {
		t.Error("committing unknown id should fail")
	}
	// After committing everything left, U8Pk's output can still arrive:
	// commit T2, T3, T4 and re-check — now violated by R alone.
	for _, id := range []int{ids[1], ids[2], ids[3]} {
		if err := m.Commit(id); err != nil {
			t.Fatal(err)
		}
	}
	res2, err := m.Check(context.Background(), qs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Satisfied || len(res2.Witness) != 0 {
		t.Errorf("after committing T4, qs must be violated by R alone: %+v", res2)
	}
}

// TestMonitorMatchesStatelessCheck: monitor checks agree with the
// stateless Check across the running example's constraints.
func TestMonitorMatchesStatelessCheck(t *testing.T) {
	d := fixture.PaperDB()
	m := NewMonitor(d)
	queries := []string{
		"q() :- TxOut(t, s, 'U8Pk', a)",
		"q() :- TxOut(t, s, 'NoSuch', a)",
		"q() :- TxOut(t, s, 'U5Pk', a)",
		"q(sum(a)) > 6 :- TxIn(pt, ps, 'U2Pk', a, nt, sig)",
		"q(sum(a)) > 7 :- TxIn(pt, ps, 'U2Pk', a, nt, sig)",
	}
	for _, src := range queries {
		q := query.MustParse(src)
		want, err := Check(context.Background(), d, q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.Check(context.Background(), q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Satisfied != want.Satisfied {
			t.Errorf("%s: monitor %v, stateless %v", src, got.Satisfied, want.Satisfied)
		}
	}
	// Non-monotonic queries fall through to the stateless path.
	nonMono := query.MustParse("q(count()) < 100 :- TxOut(t, s, pk, a)")
	res, err := m.Check(context.Background(), nonMono, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Algorithm != AlgoExhaustive {
		t.Errorf("non-monotonic monitor check used %v", res.Stats.Algorithm)
	}
}
