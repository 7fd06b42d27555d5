package query

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"blockchaindb/internal/relation"
	"blockchaindb/internal/value"
)

// This file is the compiled engine's differential harness: the
// slot-based compiled evaluator (plan.go) and the brute-force reference
// (reference.go) must agree on every query and view — including
// overlays, negation, comparisons, aggregates, skip-negation mode,
// projections, and the fuzz corpus.

// randomOverlay layers 0–2 random transactions over the state,
// exercising the base-then-extra probe order the compiled engine's
// per-depth key buffers were designed around.
func randomOverlay(r *rand.Rand, s *relation.State) *relation.Overlay {
	txs := make([]*relation.Transaction, r.Intn(3))
	for i := range txs {
		tx := relation.NewTransaction("T")
		for j, n := 0, 1+r.Intn(3); j < n; j++ {
			tx.Add("R", value.NewTuple(value.Int(int64(r.Intn(3))), value.Int(int64(r.Intn(3)))))
		}
		if r.Intn(2) == 0 {
			tx.Add("S", value.NewTuple(value.Int(int64(r.Intn(3)))))
		}
		txs[i] = tx
	}
	return relation.NewOverlay(s, txs...)
}

// TestCompiledAgainstReference: on random databases, random overlays,
// and random queries, the compiled plan and the naive reference return
// the same verdict.
func TestCompiledAgainstReference(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := randomState(r)
		q := randomQuery(r)
		views := []relation.View{s, randomOverlay(r, s)}
		for _, v := range views {
			compiled, err1 := Eval(q, v)
			ref, err2 := EvalReference(q, v)
			if err1 != nil || err2 != nil {
				t.Fatalf("eval errors: %v / %v on %s", err1, err2, q)
			}
			if compiled != ref {
				t.Logf("query: %s", q)
				t.Logf("compiled=%v reference=%v", compiled, ref)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// bindingKey renders a variable assignment canonically (sorted by
// variable name) so compiled and reference assignment streams can be
// compared as multisets regardless of enumeration order.
func bindingKey(vars []string, get func(string) (value.Value, bool)) string {
	sorted := append([]string(nil), vars...)
	sort.Strings(sorted)
	var b strings.Builder
	for _, name := range sorted {
		val, _ := get(name)
		b.WriteString(name)
		b.WriteByte('=')
		b.WriteString(val.String())
		b.WriteByte(';')
	}
	return b.String()
}

// TestAssignmentsAgainstReference checks the assignment enumeration
// both with and without negation checking (the PTIME solvers rely on
// the skip-negation mode) yields the reference enumerator's binding
// multiset.
func TestAssignmentsAgainstReference(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := randomState(r)
		q := randomQuery(r)
		for _, checkNeg := range []bool{true, false} {
			var compiled, ref []string
			err := Assignments(q, s, checkNeg, func(b *Binding) bool {
				compiled = append(compiled, bindingKey(b.Vars(), b.Value))
				return true
			})
			if err != nil {
				t.Fatalf("assignment error: %v on %s", err, q)
			}
			referenceAssignments(q, s, checkNeg, func(m map[string]value.Value) bool {
				vars := make([]string, 0, len(m))
				for name := range m {
					vars = append(vars, name)
				}
				ref = append(ref, bindingKey(vars, func(name string) (value.Value, bool) {
					v, ok := m[name]
					return v, ok
				}))
				return true
			})
			sort.Strings(compiled)
			sort.Strings(ref)
			if strings.Join(compiled, "\n") != strings.Join(ref, "\n") {
				t.Logf("query: %s (checkNegation=%v)", q, checkNeg)
				t.Logf("compiled: %v", compiled)
				t.Logf("reference: %v", ref)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// referenceTuples folds the reference enumerator's assignments into the
// distinct head-variable projections: EvalTuples from first principles.
func referenceTuples(q *Query, v relation.View) []value.Tuple {
	seen := make(map[string]bool)
	var out []value.Tuple
	referenceAssignments(q, v, true, func(b map[string]value.Value) bool {
		proj := make(value.Tuple, len(q.HeadVars))
		for i, hv := range q.HeadVars {
			proj[i] = b[hv]
		}
		if key := proj.Key(); !seen[key] {
			seen[key] = true
			out = append(out, proj)
		}
		return true
	})
	return out
}

// TestEvalTuplesAgainstReference compares the projection entry point on
// fixed head-variable queries over random states.
func TestEvalTuplesAgainstReference(t *testing.T) {
	queries := []string{
		"q(x, y) :- R(x, y)",
		"q(x) :- R(x, x)",
		"q(y) :- R(x, y), S(y)",
		"q(y) :- R(x, y), !S(y)",
		"q(x) :- R(x, y), y < 2",
		"q(x, z) :- R(x, y), R(y, z), x != z",
	}
	for _, src := range queries {
		q := MustParse(src)
		for seed := int64(0); seed < 50; seed++ {
			r := rand.New(rand.NewSource(seed))
			s := randomState(r)
			compiled, err := EvalTuples(q, s)
			if err != nil {
				t.Fatalf("EvalTuples error: %v on %s", err, q)
			}
			ref := referenceTuples(q, s)
			ck := make([]string, len(compiled))
			for i, tp := range compiled {
				ck[i] = tp.Key()
			}
			rk := make([]string, len(ref))
			for i, tp := range ref {
				rk[i] = tp.Key()
			}
			sort.Strings(ck)
			sort.Strings(rk)
			if strings.Join(ck, "|") != strings.Join(rk, "|") {
				t.Errorf("%s seed %d: compiled %v vs reference %v", q, seed, compiled, ref)
			}
		}
	}
}

// fuzzState covers every relation the fuzz corpus queries mention: the
// R/S pair of the random tests and the bitcoin-shaped fixture schema.
func fuzzState() *relation.State {
	s := relation.NewState()
	s.MustAddSchema(relation.NewSchema("R", "a:int", "b:int"))
	s.MustAddSchema(relation.NewSchema("S", "b:int"))
	s.MustAddSchema(relation.NewSchema("TxOut", "txId:int", "ser:int", "pk:string", "amount:float"))
	s.MustAddSchema(relation.NewSchema("TxIn",
		"prevTxId:int", "prevSer:int", "pk:string", "amount:float", "newTxId:int", "sig:string"))
	for i := int64(0); i < 3; i++ {
		for j := int64(0); j < 2; j++ {
			s.MustInsert("R", value.NewTuple(value.Int(i), value.Int(j)))
		}
	}
	s.MustInsert("S", value.NewTuple(value.Int(1)))
	s.MustInsert("TxOut", value.NewTuple(value.Int(1), value.Int(1), value.Str("A"), value.Float(1)))
	s.MustInsert("TxOut", value.NewTuple(value.Int(2), value.Int(1), value.Str("B"), value.Float(4)))
	s.MustInsert("TxIn", value.NewTuple(
		value.Int(1), value.Int(1), value.Str("A"), value.Float(1), value.Int(2), value.Str("ASig")))
	return s
}

// FuzzEvalDifferential drives arbitrary parsed queries through the
// compiled engine and the reference: any input that parses and
// validates against the fuzz schema must evaluate identically.
func FuzzEvalDifferential(f *testing.F) {
	seeds := []string{
		"q() :- R(x, y)",
		"q() :- R(x, y), S(y)",
		"q() :- R(x, y), !S(x), x < 3.5",
		"q() :- R(x, y), R(y, z), x != z",
		"q() :- TxOut(ntx, s, 'A', a)",
		"q() :- TxIn(pt, ps, 'A', 1, n1, 'ASig'), TxOut(n1, o, 'B', 4)",
		"q(sum(a)) > 5 :- TxIn(t, s, 'A', a, nt, 'ASig')",
		"q(sum(a)) >= 5 :- TxOut(t, s, pk, a)", // float terms decide the verdict
		"q(cntd(y)) >= 2 :- R(x, y)",
		"q(count()) < 7 :- R(a, b)",
		"q(max(b)) > 0 :- R(a, b), !S(b)",
		"q(min(b)) <= 1 :- R(a, b), b != 2",
		"q() :- R(x, 9)",
		"q() :- S(x), x = 1",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	state := fuzzState()
	f.Fuzz(func(t *testing.T, input string) {
		q, err := Parse(input)
		if err != nil {
			return // clean rejection
		}
		if q.Validate() != nil || !q.IsBoolean() {
			return
		}
		if q.CheckAgainst(state) != nil {
			return // references unknown relations or wrong arities
		}
		compiled, err1 := Eval(q, state)
		ref, err2 := EvalReference(q, state)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("error divergence on %s: %v / %v", q, err1, err2)
		}
		if err1 == nil && compiled != ref {
			t.Fatalf("verdict divergence on %s: compiled=%v reference=%v", q, compiled, ref)
		}
	})
}
