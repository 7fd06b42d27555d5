package relation

import (
	"fmt"
	"math/rand"
	"testing"

	"blockchaindb/internal/value"
)

// lookupAll returns the tuples an index probe visits, in probe order.
func lookupAll(r *Relation, cols []int, key []byte) []value.Tuple {
	var out []value.Tuple
	r.LookupTuplesKey(cols, key, func(tup value.Tuple) bool {
		out = append(out, tup)
		return true
	})
	return out
}

func intTuple(vals ...int) value.Tuple {
	t := make(value.Tuple, len(vals))
	for i, v := range vals {
		t[i] = value.Int(int64(v))
	}
	return t
}

// TestRelationTruncate: Truncate undoes inserts exactly — tuple list,
// key map, and index buckets all return to their pre-insert state, and
// the relation accepts the removed tuples again afterwards.
func TestRelationTruncate(t *testing.T) {
	r := NewRelation(NewSchema("R", "a:int", "b:int"))
	for i := 0; i < 6; i++ {
		r.MustInsert(intTuple(i%3, i))
	}
	// Build the index before truncating so postings must be undone too.
	key := intTuple(1, 0).AppendProjectKey(nil, []int{0})
	if got := len(lookupAll(r, []int{0}, key)); got != 2 {
		t.Fatalf("pre-truncate bucket size = %d, want 2", got)
	}
	r.Truncate(3)
	if r.Len() != 3 {
		t.Fatalf("Len = %d after Truncate(3)", r.Len())
	}
	if r.Contains(intTuple(0, 3)) {
		t.Error("truncated tuple still Contains")
	}
	if !r.Contains(intTuple(2, 2)) {
		t.Error("surviving tuple lost")
	}
	if got := len(lookupAll(r, []int{0}, key)); got != 1 {
		t.Fatalf("post-truncate bucket size = %d, want 1", got)
	}
	// Removed tuples are genuinely gone: re-inserting succeeds and the
	// index sees them again.
	if ok, _ := r.Insert(intTuple(0, 3)); !ok {
		t.Error("re-insert of a truncated tuple reported duplicate")
	}
	key0 := intTuple(0, 0).AppendProjectKey(nil, []int{0})
	if got := len(lookupAll(r, []int{0}, key0)); got != 2 {
		t.Fatalf("a=0 bucket size after re-insert = %d, want 2", got)
	}
	// No-op and clamping cases.
	r.Truncate(100)
	if r.Len() != 4 {
		t.Fatalf("Truncate past the end changed Len to %d", r.Len())
	}
	r.Truncate(-1)
	if r.Len() != 0 {
		t.Fatalf("Truncate(-1) left %d tuples", r.Len())
	}
}

// TestRelationTruncateRandomized cross-checks a long random
// insert/truncate interleaving against a rebuilt-from-scratch twin:
// after every operation both relations answer Contains, Lookup, and
// ScanRange identically.
func TestRelationTruncateRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	mk := func() *Relation { return NewRelation(NewSchema("R", "a:int", "b:int")) }
	r := mk()
	var log []value.Tuple // insertion-ordered distinct tuples
	for step := 0; step < 400; step++ {
		if rng.Intn(3) > 0 || len(log) == 0 {
			tup := intTuple(rng.Intn(5), rng.Intn(40))
			if ok, _ := r.Insert(tup); ok {
				log = append(log, tup)
			}
		} else {
			n := rng.Intn(len(log) + 1)
			r.Truncate(n)
			log = log[:n]
		}
		if rng.Intn(8) != 0 {
			continue
		}
		// Rebuild the oracle and compare observable state.
		want := mk()
		for _, tup := range log {
			want.MustInsert(tup)
		}
		if r.Len() != want.Len() {
			t.Fatalf("step %d: Len %d vs %d", step, r.Len(), want.Len())
		}
		for a := 0; a < 5; a++ {
			key := intTuple(a).AppendProjectKey(nil, []int{0})
			if got, exp := fmt.Sprint(lookupAll(r, []int{0}, key)), fmt.Sprint(lookupAll(want, []int{0}, key)); got != exp {
				t.Fatalf("step %d: Lookup(a=%d) %s vs %s", step, a, got, exp)
			}
		}
		lo, hi := rng.Intn(len(log)+1), rng.Intn(len(log)+1)
		var got, exp []value.Tuple
		r.ScanRange(lo, hi, func(tup value.Tuple) bool { got = append(got, tup); return true })
		want.ScanRange(lo, hi, func(tup value.Tuple) bool { exp = append(exp, tup); return true })
		if fmt.Sprint(got) != fmt.Sprint(exp) {
			t.Fatalf("step %d: ScanRange(%d,%d) %v vs %v", step, lo, hi, got, exp)
		}
	}
}

// TestOverlayMarkPop: AppendMark/PopToMark round-trips through nested
// transaction pushes, including tuples duplicated across transactions
// (the dedup means the second Add is a no-op, so the pop of the later
// transaction must not remove the earlier one's tuple).
func TestOverlayMarkPop(t *testing.T) {
	base := NewState()
	base.MustAddSchema(NewSchema("R", "a:int", "b:int"))
	base.MustAddSchema(NewSchema("S", "x:int"))
	base.MustInsert("R", intTuple(0, 0))
	o := NewOverlay(base)

	t1 := NewTransaction("T1").Add("R", intTuple(1, 1)).Add("S", intTuple(7))
	t2 := NewTransaction("T2").Add("R", intTuple(1, 1)).Add("R", intTuple(2, 2)) // duplicates T1's R tuple

	var marks []int
	m0 := len(marks)
	marks = o.AppendMark(marks)
	o.Add(t1)
	m1 := len(marks)
	marks = o.AppendMark(marks)
	o.Add(t2)

	if !o.Contains("R", intTuple(2, 2)) || !o.Contains("S", intTuple(7)) {
		t.Fatal("overlay missing pushed tuples")
	}
	o.PopToMark(marks[m1 : m1+o.MarkLen()])
	marks = marks[:m1]
	if o.Contains("R", intTuple(2, 2)) {
		t.Error("T2's tuple survived its pop")
	}
	if !o.Contains("R", intTuple(1, 1)) {
		t.Error("popping T2 removed T1's tuple (shared with T2)")
	}
	if !o.Contains("S", intTuple(7)) {
		t.Error("popping T2 touched S")
	}
	o.PopToMark(marks[m0 : m0+o.MarkLen()])
	if o.ExtraSize() != 0 {
		t.Fatalf("ExtraSize = %d after popping to the root mark", o.ExtraSize())
	}
	if !o.Contains("R", intTuple(0, 0)) {
		t.Error("base tuple lost")
	}
	// The overlay is fully reusable after a pop-to-root.
	o.Add(t2)
	if !o.Contains("R", intTuple(1, 1)) || !o.Contains("R", intTuple(2, 2)) {
		t.Error("re-Add after pop-to-root incomplete")
	}
}

// TestOverlayWindows: the below/from windows partition the overlay at a
// floor — Below sees exactly the overlay as it stood at the mark, From
// sees exactly the delta, and together they cover every tuple once.
func TestOverlayWindows(t *testing.T) {
	base := NewState()
	base.MustAddSchema(NewSchema("R", "a:int", "b:int"))
	base.MustInsert("R", intTuple(1, 100))
	base.MustInsert("R", intTuple(2, 200))
	o := NewOverlay(base, NewTransaction("T1").Add("R", intTuple(1, 101)))
	floor := o.ExtraCount("R")
	o.Add(NewTransaction("T2").Add("R", intTuple(1, 102)).Add("R", intTuple(3, 300)))

	collect := func(scan func(func(value.Tuple) bool) bool) map[string]int {
		out := map[string]int{}
		scan(func(tup value.Tuple) bool { out[fmt.Sprint(tup)]++; return true })
		return out
	}
	below := collect(func(f func(value.Tuple) bool) bool { return o.ScanBelow("R", floor, f) })
	from := collect(func(f func(value.Tuple) bool) bool { return o.ScanFrom("R", floor, f) })
	if len(below) != 3 || below[fmt.Sprint(intTuple(1, 101))] != 1 {
		t.Fatalf("ScanBelow = %v", below)
	}
	if len(from) != 2 || from[fmt.Sprint(intTuple(1, 102))] != 1 || from[fmt.Sprint(intTuple(3, 300))] != 1 {
		t.Fatalf("ScanFrom = %v", from)
	}

	// Keyed probes over a=1: base 100, pre-mark 101, delta 102.
	cols := []int{0}
	key := []byte(intTuple(1).ProjectKey(cols))
	belowK := collect(func(f func(value.Tuple) bool) bool { return o.LookupKeyBelow("R", cols, key, floor, f) })
	fromK := collect(func(f func(value.Tuple) bool) bool { return o.LookupKeyFrom("R", cols, key, floor, f) })
	allK := collect(func(f func(value.Tuple) bool) bool { return o.LookupKey("R", cols, key, f) })
	if len(belowK) != 2 || len(fromK) != 1 || len(allK) != 3 {
		t.Fatalf("keyed windows: below=%v from=%v all=%v", belowK, fromK, allK)
	}
	for k := range belowK {
		if fromK[k] != 0 {
			t.Fatalf("tuple %s in both windows", k)
		}
	}
	// Early-stop propagation through the windowed forms.
	n := 0
	o.ScanBelow("R", floor, func(value.Tuple) bool { n++; return false })
	if n != 1 {
		t.Fatalf("ScanBelow ignored early stop (n=%d)", n)
	}
}
