package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"blockchaindb/internal/constraint"
	"blockchaindb/internal/possible"
	"blockchaindb/internal/query"
	"blockchaindb/internal/relation"
	"blockchaindb/internal/value"
)

func TestAggFDOnlyApplies(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{"q(count()) < 3 :- R(x, y)", true},
		{"q(count()) <= 3 :- R(x, y)", true},
		{"q(cntd(x)) < 3 :- R(x, y)", true},
		{"q(sum(x)) < 3 :- R(x, y)", true},
		{"q(max(x)) < 3 :- R(x, y)", true},
		{"q(min(x)) > 3 :- R(x, y)", true},
		{"q(min(x)) >= 3 :- R(x, y)", true},
		{"q(count()) > 3 :- R(x, y)", false}, // CoNP-complete side
		{"q(count()) = 3 :- R(x, y)", false},
		{"q(min(x)) < 3 :- R(x, y)", false},
		{"q(count()) < 3 :- R(x, y), !S(x)", false}, // negation excluded
		{"q() :- R(x, y)", false},                   // not an aggregate
	}
	for _, c := range cases {
		q := query.MustParse(c.src)
		if got := aggFDOnlyApplies(q); got != c.want {
			t.Errorf("aggFDOnlyApplies(%s) = %v, want %v", c.src, got, c.want)
		}
	}
}

// aggDB builds a small random fd-only database with numeric values for
// aggregation: R(k:int, v:int) with key {k}. Sometimes one pending
// transaction is dead: it fd-conflicts with R.
func aggDB(r *rand.Rand) *possible.DB {
	s := relation.NewState()
	s.MustAddSchema(relation.NewSchema("R", "k:int", "v:int"))
	cons := constraint.MustNewSet(s, []*constraint.FD{constraint.NewKey(s.Schema("R"), "k")}, nil)
	for k := 0; k < 2; k++ {
		if r.Intn(2) == 0 {
			s.MustInsert("R", value.NewTuple(value.Int(int64(k)), value.Int(int64(r.Intn(4)))))
		}
	}
	var pending []*relation.Transaction
	for i, n := 0, r.Intn(4); i < n; i++ {
		tx := relation.NewTransaction(fmt.Sprintf("T%d", i+1))
		for j, m := 0, 1+r.Intn(2); j < m; j++ {
			tx.Add("R", value.NewTuple(value.Int(int64(2+r.Intn(4))), value.Int(int64(r.Intn(4)))))
		}
		pending = append(pending, tx)
	}
	return possible.MustNew(s, cons, withDeadTx(r, s, pending, 6))
}

// TestAggFDOnlyAgainstExhaustive: the PTIME aggregate solver agrees
// with exhaustive enumeration across the fragment's heads on random
// fd-only databases, and every witness it reports is a reachable world
// where the aggregate holds.
func TestAggFDOnlyAgainstExhaustive(t *testing.T) {
	heads := []string{
		"q(count()) < %d :- R(x, y)",
		"q(count()) <= %d :- R(x, y)",
		"q(cntd(y)) < %d :- R(x, y)",
		"q(sum(y)) < %d :- R(x, y)",
		"q(sum(y)) <= %d :- R(x, y)",
		"q(max(y)) < %d :- R(x, y)",
		"q(min(y)) > %d :- R(x, y)",
		"q(min(y)) >= %d :- R(x, y)",
		// With a selective constant so supports vary.
		"q(count()) < %d :- R(x, y), R(x2, y), x != x2",
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := aggDB(r)
		src := fmt.Sprintf(heads[r.Intn(len(heads))], r.Intn(5))
		q := query.MustParse(src)
		got, err := Check(context.Background(), d, q, Options{Algorithm: AlgoFDOnly})
		if err != nil {
			t.Fatalf("fdonly: %v on %s", err, src)
		}
		return agreesWithExhaustive(t, d, q, got, fmt.Sprintf("seed %d", seed))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestAggFDOnlyWitness: reported witnesses are reachable worlds that
// actually satisfy the aggregate query.
func TestAggFDOnlyWitness(t *testing.T) {
	s := relation.NewState()
	s.MustAddSchema(relation.NewSchema("R", "k:int", "v:int"))
	cons := constraint.MustNewSet(s, []*constraint.FD{constraint.NewKey(s.Schema("R"), "k")}, nil)
	// Empty state; one pending transaction adds a single small row.
	tx := relation.NewTransaction("T1").Add("R", value.NewTuple(value.Int(1), value.Int(2)))
	big := relation.NewTransaction("T2").
		Add("R", value.NewTuple(value.Int(2), value.Int(9))).
		Add("R", value.NewTuple(value.Int(3), value.Int(9)))
	d := possible.MustNew(s, cons, []*relation.Transaction{tx, big})
	// sum < 3: only the world {T1} has a non-empty bag with sum 2.
	q := query.MustParse("q(sum(v)) < 3 :- R(k, v)")
	res, err := Check(context.Background(), d, q, Options{Algorithm: AlgoFDOnly})
	if err != nil {
		t.Fatal(err)
	}
	if res.Satisfied {
		t.Fatal("world {T1} has sum 2 < 3")
	}
	if len(res.Witness) != 1 || res.Witness[0] != 0 {
		t.Errorf("witness = %v, want [0]", res.Witness)
	}
	if !d.IsReachable(res.Witness) {
		t.Error("witness unreachable")
	}
	// Routing: auto must pick the fd-only solver for this fragment.
	auto, err := Check(context.Background(), d, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if auto.Stats.Algorithm != AlgoFDOnly {
		t.Errorf("auto routed to %v", auto.Stats.Algorithm)
	}
}

// TestAggFDOnlyEmptyBagSemantics: a world with an empty bag never
// satisfies the aggregate (the paper's chosen semantics), so "count <
// 100" over an empty database is still a satisfied denial constraint.
func TestAggFDOnlyEmptyBagSemantics(t *testing.T) {
	s := relation.NewState()
	s.MustAddSchema(relation.NewSchema("R", "k:int", "v:int"))
	cons := constraint.MustNewSet(s, []*constraint.FD{constraint.NewKey(s.Schema("R"), "k")}, nil)
	d := possible.MustNew(s, cons, nil)
	q := query.MustParse("q(count()) < 100 :- R(x, y)")
	res, err := Check(context.Background(), d, q, Options{Algorithm: AlgoFDOnly})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Satisfied {
		t.Error("empty bag must not satisfy the aggregate")
	}
}

// TestAggFDOnlyRejections: the solver rejects queries and databases
// outside its fragment.
func TestAggFDOnlyRejections(t *testing.T) {
	s := relation.NewState()
	s.MustAddSchema(relation.NewSchema("R", "k:int", "v:int"))
	s.MustAddSchema(relation.NewSchema("S", "k:int"))
	withIND := constraint.MustNewSet(s,
		[]*constraint.FD{constraint.NewKey(s.Schema("R"), "k")},
		[]*constraint.IND{constraint.NewIND("S", []string{"k"}, "R", []string{"k"})})
	dIND := possible.MustNew(s, withIND, nil)
	q := query.MustParse("q(count()) < 3 :- R(x, y)")
	if _, err := Check(context.Background(), dIND, q, Options{Algorithm: AlgoFDOnly}); err == nil {
		t.Error("IND database accepted")
	}
	s2 := relation.NewState()
	s2.MustAddSchema(relation.NewSchema("R", "k:int", "v:int"))
	fdOnly := constraint.MustNewSet(s2, []*constraint.FD{constraint.NewKey(s2.Schema("R"), "k")}, nil)
	d := possible.MustNew(s2, fdOnly, nil)
	outside := query.MustParse("q(count()) > 3 :- R(x, y)") // CoNP side
	if _, err := Check(context.Background(), d, outside, Options{Algorithm: AlgoFDOnly}); err == nil {
		t.Error("out-of-fragment aggregate accepted")
	}
	// Auto still handles it (monotone → Naive).
	res, err := Check(context.Background(), d, outside, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Algorithm != AlgoNaive {
		t.Errorf("auto routed %v", res.Stats.Algorithm)
	}
}
