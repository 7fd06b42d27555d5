package possible_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"blockchaindb/internal/constraint"
	"blockchaindb/internal/possible"
	"blockchaindb/internal/relation"
	"blockchaindb/internal/value"
)

// TestPaperExample3 verifies the running example end to end: Poss(D)
// contains exactly the nine worlds listed in Example 3 of the paper —
// R, R∪T1, R∪T3, R∪T1∪T3, R∪T1∪T2, R∪T1∪T2∪T3, R∪T1∪T2∪T3∪T4, R∪T5,
// R∪T3∪T5. (Indexes are zero-based here: Ti is index i-1.)
func TestPaperExample3(t *testing.T) {
	d := paperDB()
	want := map[string]bool{
		"[]":        true,
		"[0]":       true,
		"[2]":       true,
		"[0 2]":     true,
		"[0 1]":     true,
		"[0 1 2]":   true,
		"[0 1 2 3]": true,
		"[4]":       true,
		"[2 4]":     true,
	}
	got := make(map[string]bool)
	d.EnumerateWorlds(func(included []int, _ *relation.Overlay) bool {
		got[fmt.Sprintf("%v", included)] = true
		return true
	})
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Poss(D) = %v\nwant %v", keys(got), keys(want))
	}
	if n := d.CountWorlds(); n != 9 {
		t.Errorf("CountWorlds = %d, want 9", n)
	}
}

func keys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func TestIsReachablePaperExample(t *testing.T) {
	d := paperDB()
	cases := []struct {
		subset []int
		want   bool
	}{
		{nil, true},
		{[]int{0}, true},           // T1
		{[]int{1}, false},          // T2 needs T1
		{[]int{0, 1}, true},        // T1, T2
		{[]int{3}, false},          // T4 needs T2 and T3
		{[]int{0, 1, 2, 3}, true},  // all of the T1 side
		{[]int{0, 4}, false},       // T1 and T5 double-spend
		{[]int{4}, true},           // T5 alone
		{[]int{2, 4}, true},        // T3 and T5
		{[]int{1, 2, 3, 4}, false}, // T4's chain requires T1, conflicting with T5
	}
	for _, c := range cases {
		if got := d.IsReachable(c.subset); got != c.want {
			t.Errorf("IsReachable(%v) = %v, want %v", c.subset, got, c.want)
		}
	}
}

func TestGetMaximalPaperExample6(t *testing.T) {
	d := paperDB()
	// Example 6: for the clique {T2,T3,T4,T5} the maximal world is
	// R ∪ {T3, T5}; for {T1,T2,T3,T4} it is R ∪ {T1,T2,T3,T4}.
	_, included := d.GetMaximal([]int{1, 2, 3, 4})
	sort.Ints(included)
	if !reflect.DeepEqual(included, []int{2, 4}) {
		t.Errorf("getMaximal({T2..T5}) included %v, want [2 4] (T3, T5)", included)
	}
	_, included2 := d.GetMaximal([]int{0, 1, 2, 3})
	sort.Ints(included2)
	if !reflect.DeepEqual(included2, []int{0, 1, 2, 3}) {
		t.Errorf("getMaximal({T1..T4}) included %v, want [0 1 2 3]", included2)
	}
}

func TestGetMaximalWorldContents(t *testing.T) {
	d := paperDB()
	world, _ := d.GetMaximal([]int{0, 1, 2, 3})
	// TxOut(7, 2, U8Pk, 1) comes from T4 and must be visible.
	u8 := value.NewTuple(value.Int(7), value.Int(2), value.Str("U8Pk"), value.Float(1))
	if !world.Contains("TxOut", u8) {
		t.Error("maximal world misses T4's output")
	}
	// T5's output must not be there.
	t5out := value.NewTuple(value.Int(8), value.Int(1), value.Str("U7Pk"), value.Float(4))
	if world.Contains("TxOut", t5out) {
		t.Error("maximal world contains excluded T5 output")
	}
}

func TestIsPossibleWorldStates(t *testing.T) {
	d := paperDB()
	// R itself.
	if !d.IsPossibleWorld(d.State) {
		t.Error("R itself must be a possible world")
	}
	// R ∪ T1 ∪ T2, materialized.
	w := d.State.Clone()
	if err := w.InsertTransaction(d.Pending[0]); err != nil {
		t.Fatal(err)
	}
	if err := w.InsertTransaction(d.Pending[1]); err != nil {
		t.Fatal(err)
	}
	if !d.IsPossibleWorld(w) {
		t.Error("R ∪ T1 ∪ T2 must be a possible world")
	}
	// R ∪ T2 alone is not (T2 depends on T1).
	w2 := d.State.Clone()
	if err := w2.InsertTransaction(d.Pending[1]); err != nil {
		t.Fatal(err)
	}
	if d.IsPossibleWorld(w2) {
		t.Error("R ∪ T2 must not be a possible world")
	}
	// A state missing part of R is not a possible world.
	w3 := relation.NewState()
	w3.MustAddSchema(d.State.Schema("TxOut"))
	w3.MustAddSchema(d.State.Schema("TxIn"))
	if d.IsPossibleWorld(w3) {
		t.Error("state not containing R accepted")
	}
	// A state with alien tuples not from any transaction is not.
	w4 := d.State.Clone()
	w4.MustInsert("TxOut", value.NewTuple(value.Int(99), value.Int(1), value.Str("X"), value.Float(1)))
	if d.IsPossibleWorld(w4) {
		t.Error("state with alien tuples accepted")
	}
}

func TestNewValidation(t *testing.T) {
	s := relation.NewState()
	s.MustAddSchema(relation.NewSchema("R", "k:int", "v:int"))
	cons := constraint.MustNewSet(s, []*constraint.FD{constraint.NewKey(s.Schema("R"), "k")}, nil)
	s.MustInsert("R", value.NewTuple(value.Int(1), value.Int(1)))
	s.MustInsert("R", value.NewTuple(value.Int(1), value.Int(2))) // violates key
	if _, err := possible.New(s, cons, nil); err == nil {
		t.Error("inconsistent current state accepted")
	}
	// Bad pending transaction (unknown relation).
	s2 := relation.NewState()
	s2.MustAddSchema(relation.NewSchema("R", "k:int", "v:int"))
	cons2 := constraint.MustNewSet(s2, nil, nil)
	bad := relation.NewTransaction("bad").Add("Missing", value.NewTuple(value.Int(1)))
	if _, err := possible.New(s2, cons2, []*relation.Transaction{bad}); err == nil {
		t.Error("transaction over unknown relation accepted")
	}
}

// randomDB builds a small random blockchain database over
// R(k:int, v:int) with key {k} and S(k:int) with S[k] ⊆ R[k].
func randomDB(r *rand.Rand) *possible.DB {
	s := relation.NewState()
	s.MustAddSchema(relation.NewSchema("R", "k:int", "v:int"))
	s.MustAddSchema(relation.NewSchema("S", "k:int"))
	cons := constraint.MustNewSet(s,
		[]*constraint.FD{constraint.NewKey(s.Schema("R"), "k")},
		[]*constraint.IND{constraint.NewIND("S", []string{"k"}, "R", []string{"k"})})
	for k := 0; k < 2; k++ {
		if r.Intn(2) == 0 {
			s.MustInsert("R", value.NewTuple(value.Int(int64(k)), value.Int(int64(r.Intn(2)))))
		}
	}
	var pending []*relation.Transaction
	for i, n := 0, 1+r.Intn(4); i < n; i++ {
		tx := relation.NewTransaction(fmt.Sprintf("T%d", i+1))
		for j, m := 0, 1+r.Intn(2); j < m; j++ {
			if r.Intn(3) == 0 {
				tx.Add("S", value.NewTuple(value.Int(int64(r.Intn(4)))))
			} else {
				tx.Add("R", value.NewTuple(value.Int(int64(r.Intn(4))), value.Int(int64(r.Intn(2)))))
			}
		}
		if cons.FDSelfConsistent(tx) {
			pending = append(pending, tx)
		}
	}
	return possible.MustNew(s, cons, pending)
}

// TestIsReachableAgainstOrderSearch validates the PTIME greedy
// recognition of Proposition 1 against explicit search over all append
// orders on random databases.
func TestIsReachableAgainstOrderSearch(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := randomDB(r)
		// Random subset of pending.
		var subset []int
		for i := range d.Pending {
			if r.Intn(2) == 0 {
				subset = append(subset, i)
			}
		}
		got := d.IsReachable(subset)
		want := reachableBySearch(d, subset)
		if got != want {
			t.Logf("seed %d subset %v: greedy %v search %v", seed, subset, got, want)
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// reachableBySearch tries every order of appending the subset.
func reachableBySearch(d *possible.DB, subset []int) bool {
	var rec func(world *relation.Overlay, remaining []int) bool
	rec = func(world *relation.Overlay, remaining []int) bool {
		if len(remaining) == 0 {
			return true
		}
		for i, ti := range remaining {
			if !d.Constraints.CanAppend(world, d.Pending[ti]) {
				continue
			}
			// Rebuild a fresh world to avoid sharing overlays between
			// branches.
			next := relation.NewOverlay(d.State)
			done := append([]int(nil), subset...)
			done = removeAll(done, remaining)
			for _, dd := range done {
				next.Add(d.Pending[dd])
			}
			next.Add(d.Pending[ti])
			rest := append(append([]int(nil), remaining[:i]...), remaining[i+1:]...)
			if rec(next, rest) {
				return true
			}
		}
		return false
	}
	return rec(relation.NewOverlay(d.State), subset)
}

func removeAll(xs, drop []int) []int {
	out := xs[:0]
	for _, x := range xs {
		found := false
		for _, d := range drop {
			if x == d {
				found = true
				break
			}
		}
		if !found {
			out = append(out, x)
		}
	}
	return out
}

// TestEnumerateWorldsAllReachable: every enumerated subset must be
// recognized by IsReachable and by IsPossibleWorld on its
// materialization, and every world must satisfy the constraints.
func TestEnumerateWorldsInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := randomDB(r)
		ok := true
		d.EnumerateWorlds(func(included []int, world *relation.Overlay) bool {
			if d.Constraints.Check(world) != nil {
				t.Logf("world %v violates constraints", included)
				ok = false
			}
			if !d.IsReachable(included) {
				t.Logf("world %v not recognized by IsReachable", included)
				ok = false
			}
			return ok
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEnumerateWorldsEarlyStop(t *testing.T) {
	d := paperDB()
	n := 0
	d.EnumerateWorlds(func([]int, *relation.Overlay) bool {
		n++
		return n < 4
	})
	if n != 4 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	s := relation.NewState()
	s.MustAddSchema(relation.NewSchema("R", "k:int"))
	cons := constraint.MustNewSet(s, nil, nil)
	bad := relation.NewTransaction("bad").Add("Missing", value.NewTuple(value.Int(1)))
	possible.MustNew(s, cons, []*relation.Transaction{bad})
}

// TestPreparedRebuildsOnChange: Prepared builds once per database
// version. Every in-place edit the DB contract allows makes the next
// call build afresh, an unchanged DB reuses the value, and the snapshot
// a build received keeps the pending slots as they were.
func TestPreparedRebuildsOnChange(t *testing.T) {
	d := paperDB()
	builds := 0
	var snaps []*possible.DB
	prepared := func() int {
		return d.Prepared(func(snap *possible.DB) any {
			builds++
			snaps = append(snaps, snap)
			return builds
		}).(int)
	}
	extra := relation.NewTransaction("X").
		Add("TxOut", value.NewTuple(value.Int(90), value.Int(1), value.Str("XPk"), value.Float(1)))
	first := d.Pending[0]
	steps := []struct {
		name    string
		edit    func()
		rebuild bool
	}{
		{"first call", func() {}, true},
		{"unchanged", func() {}, false},
		{"append", func() { d.Pending = append(d.Pending, extra) }, true},
		{"replace a slot", func() { d.Pending[0] = extra }, true},
		{"swap-remove and append", func() {
			last := len(d.Pending) - 1
			d.Pending[1] = d.Pending[last]
			d.Pending = append(d.Pending[:last], first)
		}, true},
		{"state insert", func() {
			d.State.MustInsert("TxOut", value.NewTuple(value.Int(91), value.Int(1), value.Str("YPk"), value.Float(1)))
		}, true},
		{"new constraint set", func() { d.Constraints = constraint.MustNewSet(d.State, d.Constraints.FDs, nil) }, true},
		{"unchanged again", func() {}, false},
	}
	for _, st := range steps {
		before := builds
		st.edit()
		if got := prepared(); got != builds {
			t.Fatalf("%s: Prepared returned build %d, want the latest %d", st.name, got, builds)
		}
		if rebuilt := builds > before; rebuilt != st.rebuild {
			t.Fatalf("%s: rebuilt=%v, want %v", st.name, rebuilt, st.rebuild)
		}
	}
	if snaps[0].Pending[0] != first {
		t.Fatal("an in-place edit of Pending reached an earlier build's snapshot")
	}
}
