package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"blockchaindb/internal/constraint"
	"blockchaindb/internal/obs"
	"blockchaindb/internal/possible"
	"blockchaindb/internal/query"
	"blockchaindb/internal/relation"
	"blockchaindb/internal/value"
)

// prop2Query is the three-atom join chain whose middle atom a committed
// tuple can stand for.
const prop2Query = "q() :- A(x), B(x, y), C(y)"

// prop2Queries are the join chains of length 3 and 4 the Proposition 2
// family exercises: one and two committed bridge tuples.
var prop2Queries = []string{
	prop2Query,
	"q() :- A(x), B(x, y), B2(y, z), C(z)",
}

// prop2ABCDB is a database over A(x), B(x, y), C(y) with the given
// committed B tuples and pending transactions of one tuple each. The
// constraints are a trivial key on B and a trivial IND, so auto
// routing does not shortcut to fd-only.
func prop2ABCDB(committedB [][2]int64, pending ...*relation.Transaction) *possible.DB {
	s := relation.NewState()
	s.MustAddSchema(relation.NewSchema("A", "x:int"))
	s.MustAddSchema(relation.NewSchema("B", "x:int", "y:int"))
	s.MustAddSchema(relation.NewSchema("C", "y:int"))
	for _, b := range committedB {
		s.MustInsert("B", value.NewTuple(value.Int(b[0]), value.Int(b[1])))
	}
	cons := constraint.MustNewSet(s,
		[]*constraint.FD{constraint.NewKey(s.Schema("B"), "x", "y")},
		[]*constraint.IND{constraint.NewIND("B", []string{"x", "y"}, "B", []string{"x", "y"})})
	return possible.MustNew(s, cons, pending)
}

// oneTuple is a pending transaction holding a single integer tuple.
func oneTuple(id, rel string, vals ...int64) *relation.Transaction {
	tup := make(value.Tuple, len(vals))
	for i, v := range vals {
		tup[i] = value.Int(v)
	}
	return relation.NewTransaction(id).Add(rel, tup)
}

// prop2CounterexampleDB: B(1,2) committed in R, A(1) pending in T_A,
// C(2) pending in T_B.
func prop2CounterexampleDB() *possible.DB {
	return prop2ABCDB([][2]int64{{1, 2}}, oneTuple("TA", "A", 1), oneTuple("TB", "C", 2))
}

// TestProp2StateBridgeCounterexample pins the soundness fix for the
// paper's Proposition 2. Take q() :- A(x), B(x, y), C(y) with B(1,2)
// committed in R, A(1) pending in T_A, and C(2) pending in T_B: the
// assignment x=1, y=2 threads through the committed tuple, so T_A and
// T_B jointly violate the constraint even though they share no θ edge
// in the paper's G^{q,ind}. Searching only the paper's components —
// as the paper's OptDCSat does — reports "satisfied" incorrectly; the
// state-bridge closure merges them into one group to search.
func TestProp2StateBridgeCounterexample(t *testing.T) {
	d := prop2CounterexampleDB()
	q := query.MustParse(prop2Query)
	if !q.IsConnected() {
		t.Fatal("query must be connected for OptDCSat to split components")
	}
	want, err := Check(context.Background(), d, q, Options{Algorithm: AlgoExhaustive})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Check(context.Background(), d, q, Options{Algorithm: AlgoOpt})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("exhaustive satisfied=%v, opt satisfied=%v", want.Satisfied, got.Satisfied)
	if got.Satisfied != want.Satisfied {
		t.Errorf("OptDCSat unsound: opt=%v exhaustive=%v", got.Satisfied, want.Satisfied)
	}
}

// prop2DB builds a random instance of the Proposition 2 family:
// committed B/B2 bridge tuples over A/B/B2/C, and pending transactions
// contributing chain endpoints and links. Every choice is drawn from
// pick(n) ∈ [0, n), so math/rand and fuzz bytes can both drive it.
// One instance in three is mixed: it also plants a pending chain A(5),
// B(5,6), C(6), which violates q inside one direct group, beside a
// pair A(3), C(4) that only the committed B(3,4) joins.
func prop2DB(pick func(n int) int) *possible.DB {
	small := func() value.Value { return value.Int(int64(pick(3))) }
	s := relation.NewState()
	s.MustAddSchema(relation.NewSchema("A", "x:int"))
	s.MustAddSchema(relation.NewSchema("B", "x:int", "y:int"))
	s.MustAddSchema(relation.NewSchema("B2", "y:int", "z:int"))
	s.MustAddSchema(relation.NewSchema("C", "z:int"))
	cons := constraint.MustNewSet(s,
		[]*constraint.FD{constraint.NewKey(s.Schema("A"), "x")},
		[]*constraint.IND{constraint.NewIND("C", []string{"z"}, "B2", []string{"z"})})
	// Committed bridge tuples.
	for i, n := 0, 1+pick(4); i < n; i++ {
		s.MustInsert("B", value.NewTuple(small(), small()))
	}
	for i, n := 0, 1+pick(4); i < n; i++ {
		s.MustInsert("B2", value.NewTuple(small(), small()))
	}
	var pending []*relation.Transaction
	for i, n := 0, 1+pick(4); i < n; i++ {
		pending = append(pending, prop2Tx(pick, fmt.Sprintf("T%d", i)))
	}
	if pick(3) == 0 {
		// B2(7,6) and B2(7,4) let C(6) and C(4) satisfy C[z] ⊆ B2[z].
		s.MustInsert("B", value.NewTuple(value.Int(3), value.Int(4)))
		s.MustInsert("B2", value.NewTuple(value.Int(7), value.Int(6)))
		s.MustInsert("B2", value.NewTuple(value.Int(7), value.Int(4)))
		pending = append(pending,
			oneTuple("D0", "A", 5), oneTuple("D1", "B", 5, 6), oneTuple("D2", "C", 6),
			oneTuple("S0", "A", 3), oneTuple("S1", "C", 4))
		for i := len(pending) - 1; i > 0; i-- {
			j := pick(i + 1)
			pending[i], pending[j] = pending[j], pending[i]
		}
	}
	return possible.MustNew(s, cons, pending)
}

// prop2Tx is one random pending transaction of the family: an A or C
// endpoint, or a B link.
func prop2Tx(pick func(n int) int, id string) *relation.Transaction {
	switch pick(3) {
	case 0:
		return oneTuple(id, "A", int64(pick(3)))
	case 1:
		return oneTuple(id, "C", int64(pick(3)))
	default:
		return oneTuple(id, "B", int64(pick(3)), int64(pick(3)))
	}
}

// randPicker draws prop2DB's choices from math/rand.
func randPicker(seed int64) func(n int) int {
	return rand.New(rand.NewSource(seed)).Intn
}

// bytePicker draws prop2DB's choices from fuzz input, one byte each;
// an exhausted input picks 0.
func bytePicker(data []byte) func(n int) int {
	return func(n int) int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b) % n
	}
}

// checkViolation revalidates a violated verdict from first principles:
// the witness is a reachable set of pending transactions, and q holds
// on R ∪ witness.
func checkViolation(d *possible.DB, q *query.Query, witness []int) error {
	if !d.IsReachable(witness) {
		return fmt.Errorf("witness %v is not reachable", witness)
	}
	txs := make([]*relation.Transaction, len(witness))
	for i, w := range witness {
		txs[i] = d.Pending[w]
	}
	hit, err := query.Eval(q, relation.NewOverlay(d.State, txs...))
	if err != nil {
		return err
	}
	if !hit {
		return fmt.Errorf("q does not hold on R ∪ witness %v", witness)
	}
	return nil
}

// optAgrees runs one OptDCSat route at Workers 1 and 2 and compares it
// with exhaustive enumeration of Poss(d): same verdict, a witness that
// checkViolation accepts, and the serial witness at Workers 2.
func optAgrees(d *possible.DB, q *query.Query, route string, check func(workers int) (*Result, error)) error {
	want, err := Check(context.Background(), d, q, Options{Algorithm: AlgoExhaustive})
	if err != nil {
		return err
	}
	var serial []int
	for _, workers := range []int{1, 2} {
		got, err := check(workers)
		if err != nil {
			return err
		}
		if got.Satisfied != want.Satisfied {
			return fmt.Errorf("%s workers=%d %s: opt satisfied=%v, exhaustive %v", route, workers, q, got.Satisfied, want.Satisfied)
		}
		if got.Satisfied {
			continue
		}
		if err := checkViolation(d, q, got.Witness); err != nil {
			return fmt.Errorf("%s workers=%d %s: %v", route, workers, q, err)
		}
		if workers == 1 {
			serial = got.Witness
		} else if !reflect.DeepEqual(got.Witness, serial) {
			return fmt.Errorf("%s %s: workers=2 witness %v, serial %v", route, q, got.Witness, serial)
		}
	}
	return nil
}

// prop2Routes checks OptDCSat on one prop2DB instance through
// stateless Check, then through a warm Monitor after random
// AddPending/DropPending calls, each against exhaustive enumeration.
// Each query first runs cold on a database of its own; the stateless
// checks that follow run warm, on a split an earlier check built, and
// must return the cold verdict and witness.
func prop2Routes(pick func(n int) int) error {
	d := prop2DB(pick)
	for _, src := range prop2Queries {
		q := query.MustParse(src)
		opts := Options{Algorithm: AlgoOpt}
		own := &possible.DB{State: d.State, Constraints: d.Constraints, Pending: d.Pending}
		cold, err := Check(context.Background(), own, q, opts)
		if err != nil {
			return err
		}
		if _, err := Check(context.Background(), d, q, opts); err != nil {
			return err
		}
		err = optAgrees(d, q, "check", func(workers int) (*Result, error) {
			opts.Workers = workers
			warm, err := Check(context.Background(), d, q, opts)
			if err != nil {
				return nil, err
			}
			if warm.Stats.SplitsShared != memoizedSplit(d, q) {
				return nil, fmt.Errorf("warm workers=%d %s: %d splits shared, %d memoized",
					workers, q, warm.Stats.SplitsShared, memoizedSplit(d, q))
			}
			if warm.Satisfied != cold.Satisfied || !reflect.DeepEqual(warm.Witness, cold.Witness) {
				return nil, fmt.Errorf("warm workers=%d %s: satisfied=%v witness %v, cold %v %v",
					workers, q, warm.Satisfied, warm.Witness, cold.Satisfied, cold.Witness)
			}
			return warm, nil
		})
		if err != nil {
			return err
		}
	}
	mon := NewMonitor(d)
	for _, src := range prop2Queries {
		// Warm the verdict cache on the starting pending set.
		if _, err := mon.Check(context.Background(), query.MustParse(src), Options{Algorithm: AlgoOpt}); err != nil {
			return err
		}
	}
	for step := 0; step < 4; step++ {
		ids := mon.PendingIDs()
		if len(ids) == 0 || pick(2) == 0 {
			if _, err := mon.AddPending(prop2Tx(pick, fmt.Sprintf("N%d", step))); err != nil {
				return err
			}
		} else if err := mon.DropPending(ids[pick(len(ids))]); err != nil {
			return err
		}
	}
	for _, src := range prop2Queries {
		q := query.MustParse(src)
		err := optAgrees(mon.db, q, "monitor", func(workers int) (*Result, error) {
			return mon.Check(context.Background(), q, Options{Algorithm: AlgoOpt, Workers: workers})
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// TestProp2StateBridgeRandom stress-tests the two-phase ind-q split on
// the Proposition 2 family: join chains of length 3 and 4 (one and two
// committed bridge tuples), through stateless Check and a warm
// Monitor, at Workers 1 and 2, against exhaustive enumeration.
func TestProp2StateBridgeRandom(t *testing.T) {
	f := func(seed int64) bool {
		if err := prop2Routes(randPicker(seed)); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// FuzzOptStateBridge drives the Proposition 2 generator from fuzz
// bytes and asserts OptDCSat ≡ exhaustive enumeration on every route.
func FuzzOptStateBridge(f *testing.F) {
	f.Add([]byte{})
	// R = {B(1,2), B2(0,2)}, T = {A(1), C(2)}: the counterexample.
	f.Add([]byte{0, 1, 2, 0, 0, 2, 1, 0, 1, 1, 2, 1})
	// A mixed instance: the planted direct chain beside a bridged pair.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 1, 3, 0, 5, 4})
	f.Add([]byte{3, 1, 0, 2, 2, 1, 0, 1, 0, 2, 0, 0, 1, 1, 3, 2, 2, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := prop2Routes(bytePicker(data)); err != nil {
			t.Fatal(err)
		}
	})
}

// findSpan returns the first span named name under s, depth first.
func findSpan(s *obs.Span, name string) *obs.Span {
	for _, c := range s.Children() {
		if c.Name() == name {
			return c
		}
		if found := findSpan(c, name); found != nil {
			return found
		}
	}
	return nil
}

// TestProp2BridgePhase pins which phase of the split answers. A
// violation inside one of the paper's direct groups decides the check
// before the state-bridge closure could run; the counterexample's
// violation needs the closure, which merges its two direct groups into
// one. Workers 2 returns the serial witness either way.
func TestProp2BridgePhase(t *testing.T) {
	q := query.MustParse(prop2Query)
	cases := []struct {
		name       string
		d          *possible.DB
		wantMerged int // -1: no state_bridge_closure span
		wantComps  int
	}{
		{
			// Groups {A(3)}, {C(4)}, {A(5), B(5,6), C(6)}: the third
			// violates; the first two only meet through B(3,4).
			name: "direct",
			d: prop2ABCDB([][2]int64{{3, 4}},
				oneTuple("S0", "A", 3), oneTuple("S1", "C", 4),
				oneTuple("D0", "A", 5), oneTuple("D1", "B", 5, 6), oneTuple("D2", "C", 6)),
			wantMerged: -1,
			wantComps:  3,
		},
		{name: "bridge", d: prop2CounterexampleDB(), wantMerged: 1, wantComps: 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var serial []int
			for _, workers := range []int{1, 2} {
				ctx, root := obs.StartTrace(context.Background(), "test")
				res, err := Check(ctx, tc.d, q, Options{Algorithm: AlgoOpt, Workers: workers})
				root.End()
				if err != nil {
					t.Fatal(err)
				}
				if res.Satisfied {
					t.Fatalf("workers=%d: satisfied, want violated", workers)
				}
				if err := checkViolation(tc.d, q, res.Witness); err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if res.Stats.Components != tc.wantComps {
					t.Errorf("workers=%d: Components = %d, want %d", workers, res.Stats.Components, tc.wantComps)
				}
				span := findSpan(root, "state_bridge_closure")
				switch {
				case tc.wantMerged < 0 && span != nil:
					t.Errorf("workers=%d: state_bridge_closure ran:\n%s", workers, root.Render())
				case tc.wantMerged >= 0 && span == nil:
					t.Fatalf("workers=%d: no state_bridge_closure span:\n%s", workers, root.Render())
				case tc.wantMerged >= 0:
					if v, _ := span.Attr("merged"); v != tc.wantMerged {
						t.Errorf("workers=%d: merged = %v, want %d", workers, v, tc.wantMerged)
					}
				}
				if workers == 1 {
					serial = res.Witness
				} else if !reflect.DeepEqual(res.Witness, serial) {
					t.Errorf("workers=2 witness %v, serial %v", res.Witness, serial)
				}
			}
		})
	}
}
