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
	"blockchaindb/internal/obs"
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

// TestPossibleAnswersAgainstEnumeration: deciding each candidate
// answer with Check agrees with the definition, the union of q over
// every possible world, for a single atom, a join, a constant, a
// comparison and a negated atom. bitcoinLikeDB routes positive queries
// to the clique search and negation to the exhaustive checker; walkDB
// adds dead transactions and inclusion-dependency chains; fdOnlyDB has
// no inclusion dependencies, so every candidate goes to the fd-only
// solver.
func TestPossibleAnswersAgainstEnumeration(t *testing.T) {
	bitcoinQueries := []string{
		"q(pk) :- TxOut(t, s, pk, a)",
		"q(pk, pk2) :- TxIn(pt, ps, pk, a, nt, sig), TxOut(nt, s2, pk2, a2)",
		"q(nt) :- TxIn(pt, ps, 'U1Pk', a, nt, sig)",
		"q(t, pk) :- TxOut(t, s, pk, a), t >= 3",
		"q(pk) :- TxIn(pt, ps, pk, a, nt, sig), !TxOut(pt, ps, 'U0Pk', a)",
	}
	generators := []struct {
		name    string
		db      func(*rand.Rand) *possible.DB
		queries []string
	}{
		{"bitcoinLikeDB", bitcoinLikeDB, bitcoinQueries},
		{"walkDB", walkDB, bitcoinQueries},
		{"fdOnlyDB", fdOnlyDB, []string{
			"q(v) :- R(k, v)",
			"q(k) :- R(k, v), Trusted(v)",
			"q(k) :- R(k, 2)",
			"q(k, v) :- R(k, v), k < v",
			"q(k) :- R(k, v), !Trusted(v)",
		}},
	}
	for _, g := range generators {
		t.Run(g.name, func(t *testing.T) {
			f := func(seed int64) bool {
				d := g.db(rand.New(rand.NewSource(seed)))
				for _, src := range g.queries {
					q := query.MustParse(src)
					got, err := PossibleAnswers(context.Background(), d, q)
					if err != nil {
						t.Fatalf("seed %d query %s: %v", seed, src, err)
					}
					if want := possibleByEnumeration(t, d, q); !reflect.DeepEqual(tupleStrings(got), want) {
						t.Logf("seed %d query %s: possible answers %v, enumeration %v", seed, src, tupleStrings(got), want)
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
				t.Error(err)
			}
		})
	}
}

// possibleByEnumeration computes possible answers by definition, in
// PossibleAnswers' order.
func possibleByEnumeration(t *testing.T, d *possible.DB, q *query.Query) []string {
	t.Helper()
	union := make(map[string]value.Tuple)
	d.EnumerateWorlds(func(_ []int, world *relation.Overlay) bool {
		tuples, err := query.EvalTuples(q, world)
		if err != nil {
			t.Fatal(err)
		}
		for _, tp := range tuples {
			union[tp.Key()] = tp
		}
		return true
	})
	out := make([]value.Tuple, 0, len(union))
	for _, tp := range union {
		out = append(out, tp)
	}
	sorted, _ := sortTuples(out, nil)
	return tupleStrings(sorted)
}

// TestPossibleAnswersBilledToQuery: the candidate checks are billed to
// the answer query's own text under the caller's tenant, one sketch key
// for the whole call, and none to the bound candidate texts.
func TestPossibleAnswersBilledToQuery(t *testing.T) {
	d := fixture.PaperDB()
	q := query.MustParse("q(pk) :- TxOut(t, s, pk, a), a >= 1")
	ctx := obs.WithPrincipal(context.Background(), "answers-billing", "")
	got, err := PossibleAnswers(ctx, d, q)
	if err != nil {
		t.Fatal(err)
	}
	dump := obs.DumpAttrib(obs.DefaultAccountant, 0)
	var checks int64
	for _, e := range dump.Dimensions[obs.DimQuery] {
		if e.Key == q.String() {
			checks = e.Checks
		}
		for _, tp := range got {
			if bound, _ := query.Simplify(q.Bind(tp)); e.Key == bound.String() {
				t.Errorf("candidate %v billed to its own query text %q", tp, e.Key)
			}
		}
	}
	if checks < int64(len(got)) {
		t.Errorf("%d checks billed to %q, want at least one per possible answer (%d)", checks, q, len(got))
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
// and on a query with negation, whether it is cancelled before the call
// or during the search: CertainAnswers' world enumeration, or
// PossibleAnswers' loop of candidate checks.
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
