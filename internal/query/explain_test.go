package query

import (
	"strings"
	"testing"
)

func TestExplain(t *testing.T) {
	v := fixtureView(t)
	q := MustParse("q() :- TxIn(t, s, pk, a, n, sig), TxOut(t, s, pk, a), TxOut(n, s2, 'C', a2)")
	plan, err := Explain(q, v)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"step 1:", "step 2:", "step 3:",
		"index lookup on", "binding",
		"monotonic=true", "connected=true",
	} {
		if !strings.Contains(plan, want) {
			t.Errorf("plan missing %q:\n%s", want, plan)
		}
	}
	// The constant-bearing atom must be planned first.
	firstStep := plan[strings.Index(plan, "step 1:"):]
	firstStep = firstStep[:strings.IndexByte(firstStep, '\n')]
	if !strings.Contains(firstStep, "pk='C'") {
		t.Errorf("constant atom not planned first: %s", firstStep)
	}
}

func TestExplainConditionsAndAggregates(t *testing.T) {
	v := fixtureView(t)
	agg := MustParse("q(sum(a)) > 5 :- TxOut(t, s, pk, a), !Trusted(pk), a > 0")
	// Negation makes it non-monotonic; still explainable.
	plan, err := Explain(agg, v)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"check !Trusted(pk) absent", "check a > 0", "fold: sum(a) > 5"} {
		if !strings.Contains(plan, want) {
			t.Errorf("plan missing %q:\n%s", want, plan)
		}
	}
	if strings.Contains(plan, "early exit") {
		t.Error("non-monotonic aggregate must not claim early exit")
	}
	mono := MustParse("q(count()) > 3 :- TxOut(t, s, pk, a)")
	plan2, err := Explain(mono, v)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan2, "early exit") {
		t.Error("monotonic aggregate should note early exit")
	}
	head := MustParse("q(pk) :- TxOut(t, s, pk, a)")
	plan3, err := Explain(head, v)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan3, "project: distinct (pk)") {
		t.Errorf("head projection missing:\n%s", plan3)
	}
}

func TestExplainErrors(t *testing.T) {
	v := fixtureView(t)
	if _, err := Explain(MustParse("q() :- Missing(x)"), v); err == nil {
		t.Error("unknown relation accepted")
	}
	if _, err := Explain(&Query{}, v); err == nil {
		t.Error("invalid query accepted")
	}
}

// TestExplainDeltaOrders: a monotone query lists one delta-first order
// per positive atom — each starting at its atom's new tuples, earlier
// atoms windowed to the old world — while a non-monotone query, which
// EvalDelta refuses, lists none.
func TestExplainDeltaOrders(t *testing.T) {
	v := fixtureView(t)
	q := MustParse("q() :- TxIn(t, s, pk, a, n1, g1), TxIn(t, s, pk, a, n2, g2), n1 != n2")
	plan, err := Explain(q, v)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"delta orders",
		"delta 1 from TxIn(t, s, pk, a, n1, g1): TxIn[scan]new>TxIn[4]+1c\n",
		"delta 2 from TxIn(t, s, pk, a, n2, g2): TxIn[scan]new>TxIn[4]old+1c\n",
	} {
		if !strings.Contains(plan, want) {
			t.Errorf("plan missing %q:\n%s", want, plan)
		}
	}
	agg := MustParse("q(sum(a)) > 5 :- TxOut(t, s, pk, a)")
	if plan, err := Explain(agg, v); err != nil || !strings.Contains(plan, "delta 1 from TxOut(t, s, pk, a): TxOut[scan]new\n") {
		t.Errorf("monotone aggregate: missing its delta order (err %v):\n%s", err, plan)
	}
	neg := MustParse("q() :- TxOut(t, s, pk, a), !Trusted(pk)")
	if plan, err := Explain(neg, v); err != nil || strings.Contains(plan, "delta") {
		t.Errorf("non-monotone query lists delta orders (err %v):\n%s", err, plan)
	}
}
