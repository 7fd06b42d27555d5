package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"blockchaindb/internal/fixture"
	"blockchaindb/internal/possible"
	"blockchaindb/internal/query"
	"blockchaindb/internal/relation"
	"blockchaindb/internal/value"
)

func tupleStrings(ts []value.Tuple) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.String()
	}
	return out
}

// TestCertainAnswersPositive: for positive conjunctive queries the
// certain answers equal q(R) — the paper's Section 5 remark.
func TestCertainAnswersPositive(t *testing.T) {
	d := fixture.PaperDB()
	// Who received coins, certainly? Only recipients in R.
	q := query.MustParse("q(pk) :- TxOut(t, s, pk, a)")
	got, err := CertainAnswers(context.Background(), d, q)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"('U1Pk')", "('U2Pk')", "('U3Pk')", "('U4Pk')"}
	if !reflect.DeepEqual(tupleStrings(got), want) {
		t.Errorf("certain recipients = %v, want %v", tupleStrings(got), want)
	}
	// Cross-check against the definition: intersection over all worlds.
	ref := certainByEnumeration(t, d, q)
	if !reflect.DeepEqual(tupleStrings(got), ref) {
		t.Errorf("shortcut disagrees with definition: %v vs %v", tupleStrings(got), ref)
	}
}

// TestPossibleAnswersPositive: possible answers include pending-world
// recipients; U8Pk appears (via T4's world), so does U7Pk.
func TestPossibleAnswersPositive(t *testing.T) {
	d := fixture.PaperDB()
	q := query.MustParse("q(pk) :- TxOut(t, s, pk, a)")
	got, err := PossibleAnswers(context.Background(), d, q)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"('U1Pk')", "('U2Pk')", "('U3Pk')", "('U4Pk')", "('U5Pk')", "('U7Pk')", "('U8Pk')"}
	if !reflect.DeepEqual(tupleStrings(got), want) {
		t.Errorf("possible recipients = %v, want %v", tupleStrings(got), want)
	}
}

// certainByEnumeration computes certain answers by definition.
func certainByEnumeration(t *testing.T, d *possible.DB, q *query.Query) []string {
	t.Helper()
	var inter map[string]bool
	var order []string
	d.EnumerateWorlds(func(_ []int, world *relation.Overlay) bool {
		tuples, err := query.EvalTuples(q, world)
		if err != nil {
			t.Fatal(err)
		}
		here := make(map[string]bool)
		for _, tp := range tuples {
			here[tp.String()] = true
		}
		if inter == nil {
			inter = here
			return true
		}
		for k := range inter {
			if !here[k] {
				delete(inter, k)
			}
		}
		return true
	})
	for k := range inter {
		order = append(order, k)
	}
	sortStrings(order)
	return order
}

func sortStrings(xs []string) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// TestAnswersWithNegation: certain/possible answers under negation fall
// back to exhaustive enumeration and remain correct.
func TestAnswersWithNegation(t *testing.T) {
	s := relation.NewState()
	s.MustAddSchema(relation.NewSchema("R", "k:int"))
	s.MustAddSchema(relation.NewSchema("Block", "k:int"))
	d := mustDB(t, s, nil, nil,
		relation.NewTransaction("T1").Add("Block", value.NewTuple(value.Int(1))))
	s.MustInsert("R", value.NewTuple(value.Int(1)))
	s.MustInsert("R", value.NewTuple(value.Int(2)))
	// q(k) ← R(k), !Block(k): in R alone both answers; in R∪T1 only 2.
	q := query.MustParse("q(k) :- R(k), !Block(k)")
	certain, err := CertainAnswers(context.Background(), d, q)
	if err != nil {
		t.Fatal(err)
	}
	if got := tupleStrings(certain); !reflect.DeepEqual(got, []string{"(2)"}) {
		t.Errorf("certain = %v, want [(2)]", got)
	}
	poss, err := PossibleAnswers(context.Background(), d, q)
	if err != nil {
		t.Fatal(err)
	}
	if got := tupleStrings(poss); !reflect.DeepEqual(got, []string{"(1)", "(2)"}) {
		t.Errorf("possible = %v, want [(1) (2)]", got)
	}
}

// TestPossibleAnswersAgainstEnumeration: the maximal-world shortcut for
// positive queries agrees with exhaustive union on random databases.
func TestPossibleAnswersAgainstEnumeration(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := bitcoinLikeDB(r)
		q := query.MustParse("q(pk) :- TxOut(t, s, pk, a)")
		fast, err := PossibleAnswers(context.Background(), d, q)
		if err != nil {
			t.Fatal(err)
		}
		slow := make(map[string]bool)
		d.EnumerateWorlds(func(_ []int, world *relation.Overlay) bool {
			tuples, err := query.EvalTuples(q, world)
			if err != nil {
				t.Fatal(err)
			}
			for _, tp := range tuples {
				slow[tp.String()] = true
			}
			return true
		})
		if len(fast) != len(slow) {
			t.Logf("seed %d: fast %d answers, slow %d", seed, len(fast), len(slow))
			return false
		}
		for _, tp := range fast {
			if !slow[tp.String()] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestAnswersValidation(t *testing.T) {
	d := fixture.PaperDB()
	boolean := query.MustParse("q() :- TxOut(t, s, pk, a)")
	if _, err := CertainAnswers(context.Background(), d, boolean); err == nil {
		t.Error("Boolean query accepted by CertainAnswers")
	}
	if _, err := PossibleAnswers(context.Background(), d, boolean); err == nil {
		t.Error("Boolean query accepted by PossibleAnswers")
	}
	agg := query.MustParse("q(sum(a)) > 1 :- TxOut(t, s, pk, a)")
	if _, err := CertainAnswers(context.Background(), d, agg); err == nil {
		t.Error("aggregate accepted by CertainAnswers")
	}
}

// TestAnswersHonourCancellation: a cancelled context stops both answer
// functions with ErrUndecided instead of an answer, on a positive query
// (maximal-clique search) and on a query with negation (world
// enumeration), whether it is cancelled before the call or during the
// search.
func TestAnswersHonourCancellation(t *testing.T) {
	d := fixture.PaperDB()
	queries := []string{
		"q(pk) :- TxOut(t, s, pk, a)",
		"q(t) :- TxOut(t, s, pk, a), !TxOut(t, s, 'U1Pk', a)",
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, src := range queries {
		q := query.MustParse(src)
		for name, answers := range map[string]func(context.Context, *possible.DB, *query.Query) ([]value.Tuple, error){
			"CertainAnswers": CertainAnswers, "PossibleAnswers": PossibleAnswers,
		} {
			got, err := answers(cancelled, d, q)
			if !errors.Is(err, ErrUndecided) || !errors.Is(err, context.Canceled) {
				t.Errorf("%s(%s) on a cancelled context: %v, %v; want ErrUndecided", name, src, got, err)
			}
		}
		// Cancelled after the entry check: the search itself must stop.
		if !q.IsPositive() {
			got, err := CertainAnswers(&cancelAfter{Context: context.Background(), n: 1}, d, q)
			if !errors.Is(err, ErrUndecided) {
				t.Errorf("CertainAnswers(%s) cancelled mid-search: %v, %v; want ErrUndecided", src, got, err)
			}
		}
		got, err := PossibleAnswers(&cancelAfter{Context: context.Background(), n: 2}, d, q)
		if !errors.Is(err, ErrUndecided) {
			t.Errorf("PossibleAnswers(%s) cancelled mid-search: %v, %v; want ErrUndecided", src, got, err)
		}
	}
}

// cancelAfter is a context that reports itself cancelled from its
// (n+1)-th Err call on.
type cancelAfter struct {
	context.Context
	n int
}

func (c *cancelAfter) Err() error {
	if c.n == 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

// TestEvalTuplesBasics covers the evaluator's tuple mode directly.
func TestEvalTuplesBasics(t *testing.T) {
	s := relation.NewState()
	s.MustAddSchema(relation.NewSchema("R", "a:int", "b:int"))
	s.MustInsert("R", value.NewTuple(value.Int(1), value.Int(10)))
	s.MustInsert("R", value.NewTuple(value.Int(1), value.Int(20)))
	s.MustInsert("R", value.NewTuple(value.Int(2), value.Int(30)))
	q := query.MustParse("q(a) :- R(a, b)")
	got, err := query.EvalTuples(q, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Errorf("distinct projections = %d, want 2", len(got))
	}
	two := query.MustParse("q(b, a) :- R(a, b), b > 15")
	got2, err := query.EvalTuples(two, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(got2) != 2 || len(got2[0]) != 2 {
		t.Errorf("two-var projections = %v", got2)
	}
	if _, err := query.EvalTuples(query.MustParse("q() :- R(a, b)"), s); err == nil {
		t.Error("Boolean query accepted by EvalTuples")
	}
	if _, err := query.EvalTuples(q, relation.NewState()); err == nil {
		t.Error("unknown relation accepted")
	}
}

// TestHeadVarParsing covers the new head grammar.
func TestHeadVarParsing(t *testing.T) {
	q := query.MustParse("q(x, y) :- R(x, y)")
	if q.IsBoolean() || len(q.HeadVars) != 2 {
		t.Fatalf("head vars: %v", q.HeadVars)
	}
	round := query.MustParse(q.String())
	if !reflect.DeepEqual(round.HeadVars, q.HeadVars) {
		t.Errorf("round trip lost head vars: %q", q.String())
	}
	bad := []string{
		"q(x) :- R(y)",      // unsafe head var
		"q(x,) :- R(x)",     // trailing comma
		"q(1) :- R(x)",      // constant head
		"q(x y) :- R(x, y)", // missing comma
	}
	for _, src := range bad {
		if _, err := query.Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func ExampleCertainAnswers() {
	d := fixture.PaperDB()
	q := query.MustParse("q(pk) :- TxOut(t, s, pk, a)")
	certain, _ := CertainAnswers(context.Background(), d, q)
	possible, _ := PossibleAnswers(context.Background(), d, q)
	fmt.Println(len(certain), "certain,", len(possible), "possible recipients")
	// Output: 4 certain, 7 possible recipients
}
