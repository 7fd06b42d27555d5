package query

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"blockchaindb/internal/value"
)

func TestSimplifyConstFolding(t *testing.T) {
	q := MustParse("q() :- R(x, y), 1 < 2, 'a' = 'a'")
	s, sat := Simplify(q)
	if !sat {
		t.Fatal("satisfiable query reported unsatisfiable")
	}
	if len(s.Comparisons) != 0 {
		t.Errorf("constant comparisons not folded: %v", s.Comparisons)
	}
	qf := MustParse("q() :- R(x, y), 2 < 1")
	if _, sat := Simplify(qf); sat {
		t.Error("false constant comparison not detected")
	}
	qx := MustParse("q() :- R(x, y), x != x")
	if _, sat := Simplify(qx); sat {
		t.Error("x != x not detected as unsatisfiable")
	}
	qt := MustParse("q() :- R(x, y), x = x, x <= x, x >= x")
	st, sat := Simplify(qt)
	if !sat || len(st.Comparisons) != 0 {
		t.Errorf("trivial self-comparisons not dropped: %v", st.Comparisons)
	}
}

func TestSimplifyConstantSubstitution(t *testing.T) {
	q := MustParse("q() :- R(x, y), x = 3, y < 5")
	s, sat := Simplify(q)
	if !sat {
		t.Fatal("unexpected unsat")
	}
	if !strings.Contains(s.String(), "R(3, y)") {
		t.Errorf("constant not pushed into atom: %s", s)
	}
	if len(s.Comparisons) != 1 || s.Comparisons[0].String() != "y < 5" {
		t.Errorf("comparisons = %v", s.Comparisons)
	}
	// Chained: x = 3 and y = x ⇒ both positions constant.
	q2 := MustParse("q() :- R(x, y), x = 3, y = x")
	s2, _ := Simplify(q2)
	if !strings.Contains(s2.String(), "R(3, 3)") {
		t.Errorf("chained substitution failed: %s", s2)
	}
	// Contradictory constants: x = 3, x = 4.
	q3 := MustParse("q() :- R(x, y), x = 3, x = 4")
	if _, sat := Simplify(q3); sat {
		t.Error("contradictory bindings not detected")
	}
}

func TestSimplifyVariableMerge(t *testing.T) {
	q := MustParse("q() :- R(x, a), S(y, b), x = y")
	s, _ := Simplify(q)
	if len(s.Comparisons) != 0 {
		t.Errorf("merge left a comparison: %v", s.Comparisons)
	}
	// Both atoms now share one variable.
	vars := s.Vars()
	count := 0
	for _, v := range vars {
		if v == "x" || v == "y" {
			count++
		}
	}
	if count != 1 {
		t.Errorf("variables after merge: %v", vars)
	}
}

func TestSimplifyPinnedVariables(t *testing.T) {
	// A head variable must not be replaced by a constant.
	q := MustParse("q(x) :- R(x, y), x = 3")
	s, sat := Simplify(q)
	if !sat {
		t.Fatal("unexpected unsat")
	}
	if len(s.HeadVars) != 1 {
		t.Fatalf("head vars lost: %v", s.HeadVars)
	}
	if len(s.Comparisons) != 1 {
		t.Errorf("pinned comparison dropped: %s", s)
	}
	// Aggregate variables are pinned too.
	qa := MustParse("q(sum(a)) > 5 :- R(a, b), a = 2")
	sa, _ := Simplify(qa)
	if len(sa.Agg.Vars) != 1 || sa.Agg.Vars[0] != "a" {
		t.Errorf("aggregate var lost: %+v", sa.Agg)
	}
	// Merging two head variables renames consistently.
	qh := MustParse("q(x, y) :- R(x, y), x = y")
	sh, _ := Simplify(qh)
	if len(sh.HeadVars) != 2 || sh.HeadVars[0] != sh.HeadVars[1] {
		t.Errorf("merged head vars: %v", sh.HeadVars)
	}
	if err := sh.Validate(); err != nil {
		t.Errorf("simplified head query invalid: %v", err)
	}
}

func TestSimplifyDedup(t *testing.T) {
	q := MustParse("q() :- R(x, y), R(x, y), !S(x), !S(x), x < 5, x < 5")
	s, _ := Simplify(q)
	if len(s.Atoms) != 2 || len(s.Comparisons) != 1 {
		t.Errorf("dedup failed: %s", s)
	}
}

func TestSimplifyDoesNotMutateInput(t *testing.T) {
	q := MustParse("q() :- R(x, y), x = 3")
	before := q.String()
	Simplify(q)
	if q.String() != before {
		t.Error("Simplify mutated its input")
	}
}

// TestBind: each head variable becomes its value everywhere it occurs,
// the result is Boolean, and the input is left as it was.
func TestBind(t *testing.T) {
	q := MustParse("q(x, y) :- R(x, z), S(z, y), !S(x, x), y > 2")
	before := q.String()
	b := q.Bind(value.NewTuple(value.Int(1), value.Str("a")))
	if want := "q() :- R(1, z), S(z, 'a'), !S(1, 1), 'a' > 2"; b.String() != want {
		t.Errorf("Bind = %s, want %s", b, want)
	}
	if !b.IsBoolean() || q.String() != before {
		t.Errorf("Bind left a head (%v) or mutated its input (%s)", b.HeadVars, q)
	}
}

// TestSimplifyEquivalence is the semantic contract: on random databases
// the simplified query evaluates identically to the original.
func TestSimplifyEquivalence(t *testing.T) {
	ops := []CmpOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := randomState(r)
		q := randomQuery(r)
		// Inject extra equalities to give Simplify work.
		vars := q.Vars()
		for i, n := 0, r.Intn(3); i < n && len(vars) > 0; i++ {
			left := V(vars[r.Intn(len(vars))])
			var right Term
			if r.Intn(2) == 0 {
				right = C(value.Int(int64(r.Intn(3))))
			} else {
				right = V(vars[r.Intn(len(vars))])
			}
			q.Comparisons = append(q.Comparisons, Comparison{
				Left: left, Op: ops[r.Intn(len(ops))], Right: right})
		}
		if q.Validate() != nil {
			return true
		}
		simplified, sat := Simplify(q)
		origVal, err1 := Eval(q, s)
		if err1 != nil {
			t.Fatal(err1)
		}
		if !sat {
			// Proven unsatisfiable: the original must be false here.
			if origVal {
				t.Logf("seed %d: %s proven unsat but evaluates true", seed, q)
				return false
			}
			return true
		}
		if simplified.Validate() != nil {
			t.Logf("seed %d: simplified %s invalid", seed, simplified)
			return false
		}
		simpVal, err2 := Eval(simplified, s)
		if err2 != nil {
			t.Fatal(err2)
		}
		if origVal != simpVal {
			t.Logf("seed %d: %s -> %s: %v vs %v", seed, q, simplified, origVal, simpVal)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 600}); err != nil {
		t.Error(err)
	}
}
