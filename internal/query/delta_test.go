package query

import (
	"fmt"
	"math/rand"
	"testing"

	"blockchaindb/internal/relation"
	"blockchaindb/internal/value"
)

// randomPositiveQuery derives a delta-eligible query from the package's
// random generator: aggregates and negated atoms are stripped, which is
// exactly the SupportsDelta fragment.
func randomPositiveQuery(r *rand.Rand) *Query {
	q := randomQuery(r)
	q.Agg = nil
	atoms := q.Atoms[:0]
	for _, a := range q.Atoms {
		if !a.Negated {
			atoms = append(atoms, a)
		}
	}
	q.Atoms = atoms
	if err := q.Validate(); err != nil {
		return MustParse("q() :- R(x, y)")
	}
	return q
}

// randomTx builds one random transaction over R/S, the delta unit.
func randomTx(r *rand.Rand) *relation.Transaction {
	tx := relation.NewTransaction("T")
	for j, n := 0, 1+r.Intn(3); j < n; j++ {
		tx.Add("R", value.NewTuple(value.Int(int64(r.Intn(3))), value.Int(int64(r.Intn(3)))))
	}
	if r.Intn(2) == 0 {
		tx.Add("S", value.NewTuple(value.Int(int64(r.Intn(3)))))
	}
	return tx
}

// TestEvalDeltaAgainstFull is the delta-evaluation property test: grow
// a random overlay in stages and at each stage capture the floors, add
// the delta, and compare EvalDelta against a full Eval. Two properties
// are pinned:
//
//  1. Soundness, unconditionally: EvalDelta true implies Eval true (its
//     windows only ever see subsets of the view).
//  2. Completeness, under the documented precondition: when the
//     pre-delta view was hit-free, EvalDelta equals Eval exactly.
func TestEvalDeltaAgainstFull(t *testing.T) {
	for seed := int64(0); seed < 600; seed++ {
		r := rand.New(rand.NewSource(seed))
		s := randomState(r)
		q := randomPositiveQuery(r)
		o := relation.NewOverlay(s)
		for i, n := 0, r.Intn(2); i < n; i++ {
			o.Add(randomTx(r))
		}
		p, err := Compile(q, o)
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		if !p.SupportsDelta() {
			t.Fatalf("seed %d: positive non-aggregate query rejected by SupportsDelta: %s", seed, q)
		}
		sc := NewScratch()
		for stage := 0; stage < 3; stage++ {
			preHit, err := p.Eval(o, sc)
			if err != nil {
				t.Fatalf("seed %d: eval: %v", seed, err)
			}
			floors := make([]int, len(p.RelNames()))
			for i, rel := range p.RelNames() {
				floors[i] = o.ExtraCount(rel)
			}
			for i, n := 0, r.Intn(3); i < n; i++ {
				o.Add(randomTx(r))
			}
			got, err := p.EvalDelta(o, sc, floors, nil)
			if err != nil {
				t.Fatalf("seed %d: EvalDelta: %v", seed, err)
			}
			want, err := p.Eval(o, sc)
			if err != nil {
				t.Fatalf("seed %d: eval: %v", seed, err)
			}
			if got && !want {
				t.Fatalf("seed %d stage %d: EvalDelta=true but Eval=false on %s", seed, stage, q)
			}
			if !preHit && got != want {
				t.Fatalf("seed %d stage %d: pre-delta hit-free, EvalDelta=%v Eval=%v on %s", seed, stage, got, want, q)
			}
		}
	}
}

// TestEvalDeltaInterleavesPlainEval: a scratch alternating between
// EvalDelta and plain Eval must not leak window state into the plain
// runs (sc.dv is cleared by finish).
func TestEvalDeltaInterleavesPlainEval(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	s := randomState(r)
	q := MustParse("q() :- R(x, y), S(y)")
	o := relation.NewOverlay(s)
	p, err := Compile(q, o)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScratch()
	for i := 0; i < 20; i++ {
		floors := make([]int, len(p.RelNames()))
		for j, rel := range p.RelNames() {
			floors[j] = o.ExtraCount(rel)
		}
		o.Add(randomTx(r))
		if _, err := p.EvalDelta(o, sc, floors, nil); err != nil {
			t.Fatal(err)
		}
		got, err := p.Eval(o, sc)
		if err != nil {
			t.Fatal(err)
		}
		want, err := EvalReference(q, o)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("iteration %d: plain Eval diverged after EvalDelta: got %v want %v", i, got, want)
		}
	}
}

// TestEvalDeltaRejectsUnsupported: non-monotone queries (negation, a
// min or a < aggregate) must be refused, an aggregate plan needs an
// accumulator, and a floors slice of the wrong shape is an error.
func TestEvalDeltaRejectsUnsupported(t *testing.T) {
	s := relation.NewState()
	s.MustAddSchema(relation.NewSchema("R", "a:int", "b:int"))
	s.MustAddSchema(relation.NewSchema("S", "b:int"))
	o := relation.NewOverlay(s)
	sc := NewScratch()
	for _, src := range []string{
		"q() :- R(x, y), not S(y)",
		"q(count()) < 1 :- R(x, y)",
		"q(min(x)) > 1 :- R(x, y)",
	} {
		q := MustParse(src)
		p, err := Compile(q, o)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if p.SupportsDelta() {
			t.Errorf("%s: SupportsDelta = true", src)
		}
		if _, err := p.EvalDelta(o, sc, make([]int, len(p.RelNames())), nil); err == nil {
			t.Errorf("%s: EvalDelta accepted an unsupported plan", src)
		}
	}
	p, err := Compile(MustParse("q() :- R(x, y)"), o)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.EvalDelta(o, sc, make([]int, 5), nil); err == nil {
		t.Error("EvalDelta accepted a mis-shaped floors slice")
	}
	agg, err := Compile(MustParse("q(count()) > 1 :- R(x, y)"), o)
	if err != nil {
		t.Fatal(err)
	}
	if !agg.SupportsDelta() {
		t.Error("monotone aggregate: SupportsDelta = false")
	}
	if _, err := agg.EvalDelta(o, sc, make([]int, len(agg.RelNames())), nil); err == nil {
		t.Error("EvalDelta accepted an aggregate plan without an accumulator")
	}
}

// TestEvalDeltaProbesFollowTheDelta pins the cost claim: with a
// delta-first order per position, a one-tuple delta over a 10k-tuple
// base costs a handful of probes, where a single shared order would
// scan the whole base below the floor for the second position.
func TestEvalDeltaProbesFollowTheDelta(t *testing.T) {
	s := fixtureView(t)
	txIn := func(prev, ser int64, pk string, next int64) value.Tuple {
		return value.NewTuple(value.Int(prev), value.Int(ser), value.Str(pk),
			value.Float(1), value.Int(next), value.Str(pk+"Sig"))
	}
	for i := int64(0); i < 10000; i++ {
		s.MustInsert("TxIn", txIn(1000+i, 1, fmt.Sprintf("P%d", i), 20000+i))
	}
	q := MustParse("q() :- TxIn(t, s, pk, a, n1, g1), TxIn(t, s, pk, a, n2, g2), n1 != n2")
	for _, tc := range []struct {
		name string
		tup  value.Tuple
		want bool
	}{
		{"fresh output", txIn(99999, 1, "Q", 40000), false},
		{"double spend", txIn(1000, 1, "P0", 40001), true},
	} {
		o := relation.NewOverlay(s)
		p, err := Compile(q, o)
		if err != nil {
			t.Fatal(err)
		}
		floors := make([]int, len(p.RelNames()))
		tx := relation.NewTransaction("T")
		tx.Add("TxIn", tc.tup)
		o.Add(tx)
		sc := NewScratch()
		got, err := p.EvalDelta(o, sc, floors, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("%s: EvalDelta = %v, want %v", tc.name, got, tc.want)
		}
		if n := sc.TotalProbes(); n > 8 {
			t.Errorf("%s: EvalDelta probed %d tuples for a one-tuple delta over a 10k base", tc.name, n)
		}
	}
}

// accQueries are monotone aggregates over R/S whose bounds the small
// random worlds never reach, so every fold runs to completion and the
// accumulator's value is comparable with a from-scratch fold. cntd
// folds many duplicate values (R's columns range over 0..2).
var accQueries = []string{
	"q(count()) > 1000 :- R(x, y)",
	"q(count()) >= 1000 :- R(x, y), R(y, z)",
	"q(cntd(y)) > 1000 :- R(x, y)",
	"q(cntd(x, z)) >= 1000 :- R(x, y), R(y, z)",
	"q(sum(y)) > 1000 :- R(x, y), S(y)",
	"q(max(x)) > 1000 :- R(x, y), S(y)",
	"q(max(y)) >= 1000 :- R(x, y)",
}

// TestAccTracksScratchFold drives an accumulator through random pushes
// (EvalDelta over a grown overlay) and pops (PopToMark + Acc.Pop) and
// checks after every step that it holds exactly the fold a fresh
// EvalBase computes over the current world.
func TestAccTracksScratchFold(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		src := accQueries[r.Intn(len(accQueries))]
		q := MustParse(src)
		o := relation.NewOverlay(randomState(r))
		p, err := Compile(q, o)
		if err != nil {
			t.Fatal(err)
		}
		sc := NewScratch()
		var acc Acc
		if _, err := p.EvalBase(o, sc, &acc); err != nil {
			t.Fatal(err)
		}
		var marks [][]int
		for step := 0; step < 24; step++ {
			if len(marks) > 0 && r.Intn(3) == 0 {
				o.PopToMark(marks[len(marks)-1])
				marks = marks[:len(marks)-1]
				acc.Pop()
			} else {
				floors := make([]int, len(p.RelNames()))
				for i, rel := range p.RelNames() {
					floors[i] = o.ExtraCount(rel)
				}
				marks = append(marks, o.AppendMark(nil))
				o.Add(randomTx(r))
				if _, err := p.EvalDelta(o, sc, floors, &acc); err != nil {
					t.Fatal(err)
				}
			}
			var ref Acc
			if _, err := p.EvalBase(o, sc, &ref); err != nil {
				t.Fatal(err)
			}
			got, gotOK := acc.result()
			want, wantOK := ref.result()
			if gotOK != wantOK || (gotOK && got.Compare(want) != 0) {
				t.Fatalf("seed %d step %d %s: accumulator %v (non-empty %v), from-scratch fold %v (non-empty %v)",
					seed, step, src, got, gotOK, want, wantOK)
			}
		}
	}
}

// deltaFuzzQueries is FuzzEvalDelta's fixed query set: joins with and
// without conditions, constants, and every monotone aggregate with >
// and >=.
var deltaFuzzQueries = []string{
	"q() :- R(x, y)",
	"q() :- R(x, y), S(y)",
	"q() :- R(x, y), R(y, z), x != z",
	"q() :- R(x, 1), S(x)",
	"q() :- R(x, y), R(y, x), S(x), x < y",
	"q(count()) > 3 :- R(x, y)",
	"q(count()) >= 2 :- R(x, y), S(y)",
	"q(cntd(y)) > 1 :- R(x, y)",
	"q(cntd(x)) >= 2 :- R(x, y), R(y, z)",
	"q(sum(y)) > 4 :- R(x, y)",
	"q(sum(x)) >= 3 :- R(x, y), S(y)",
	"q(max(y)) > 1 :- R(x, y), S(x)",
	"q(max(x)) >= 2 :- R(x, y), R(y, x)",
}

// FuzzEvalDelta checks delta evaluation against full evaluation: from
// a random hit-free root world, a random walk of growth steps (a random
// transaction, then EvalDelta) and pops must give EvalDelta == Eval at
// every growth step. A step that hits is popped straight away, so the
// walk keeps EvalDelta's hit-free precondition.
func FuzzEvalDelta(f *testing.F) {
	f.Add(int64(1), uint8(0), uint64(0x9e3779b97f4a7c15))
	f.Add(int64(7), uint8(5), uint64(0xdeadbeef))
	f.Add(int64(42), uint8(8), uint64(0x0123456789abcdef))
	f.Add(int64(3), uint8(11), uint64(0xfedcba9876543210))
	f.Fuzz(func(t *testing.T, seed int64, qi uint8, walk uint64) {
		r := rand.New(rand.NewSource(seed))
		q := MustParse(deltaFuzzQueries[int(qi)%len(deltaFuzzQueries)])
		o := relation.NewOverlay(randomState(r))
		p, err := Compile(q, o)
		if err != nil {
			t.Fatal(err)
		}
		sc := NewScratch()
		var acc Acc
		if hit, err := p.EvalBase(o, sc, &acc); err != nil || hit {
			return // a hit root leaves nothing to extend
		}
		var marks [][]int
		for step := 0; step < 16; step++ {
			op := walk & 3
			walk = walk>>2 | walk<<62
			if op == 0 && len(marks) > 0 {
				o.PopToMark(marks[len(marks)-1])
				marks = marks[:len(marks)-1]
				acc.Pop()
				continue
			}
			floors := make([]int, len(p.RelNames()))
			for i, rel := range p.RelNames() {
				floors[i] = o.ExtraCount(rel)
			}
			marks = append(marks, o.AppendMark(nil))
			o.Add(randomTx(r))
			got, err := p.EvalDelta(o, sc, floors, &acc)
			if err != nil {
				t.Fatal(err)
			}
			want, err := p.Eval(o, sc)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("step %d %s: EvalDelta = %v, Eval = %v", step, q, got, want)
			}
			if got {
				o.PopToMark(marks[len(marks)-1])
				marks = marks[:len(marks)-1]
				acc.Pop()
			}
		}
	})
}
