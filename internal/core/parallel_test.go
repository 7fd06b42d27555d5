package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"blockchaindb/internal/constraint"
	"blockchaindb/internal/fixture"
	"blockchaindb/internal/possible"
	"blockchaindb/internal/query"
	"blockchaindb/internal/relation"
	"blockchaindb/internal/value"
)

// singletonComponentsDB builds a database whose pending set splits into
// n singleton ind-q components, each one a violating world for
// q() :- R(x, 2): R has key {k}, every transaction inserts R(i, 2) with
// a distinct key, and the single-atom query contributes no Θ_q edges.
func singletonComponentsDB(n int) *possible.DB {
	s := relation.NewState()
	s.MustAddSchema(relation.NewSchema("R", "k:int", "v:int"))
	cons := constraint.MustNewSet(s, []*constraint.FD{constraint.NewKey(s.Schema("R"), "k")}, nil)
	var pending []*relation.Transaction
	for i := 0; i < n; i++ {
		pending = append(pending, relation.NewTransaction(fmt.Sprintf("T%d", i)).
			Add("R", value.NewTuple(value.Int(int64(i)), value.Int(2))))
	}
	return possible.MustNew(s, cons, pending)
}

func singleAtomQuery() *query.Query {
	return &query.Query{Name: "q", Atoms: []query.Atom{
		{Rel: "R", Args: []query.Term{query.V("x"), query.C(value.Int(2))}},
	}}
}

// unevenComponentsDB builds two violating ind-q components of
// different sizes for q() :- R(x, 2): T0 inserts R(0, 2) alone; T1
// inserts R(10, 2) and T2 inserts S(10), which the IND S(a) ⊆ R(k) ties
// to T1. The serial search reaches the smaller component {T0} first, so
// a schedule that starts the larger one first must still report [0].
func unevenComponentsDB() *possible.DB {
	s := relation.NewState()
	s.MustAddSchema(relation.NewSchema("R", "k:int", "v:int"))
	s.MustAddSchema(relation.NewSchema("S", "a:int"))
	cons := constraint.MustNewSet(s,
		[]*constraint.FD{constraint.NewKey(s.Schema("R"), "k")},
		[]*constraint.IND{constraint.NewIND("S", []string{"a"}, "R", []string{"k"})})
	return possible.MustNew(s, cons, []*relation.Transaction{
		relation.NewTransaction("T0").Add("R", value.NewTuple(value.Int(0), value.Int(2))),
		relation.NewTransaction("T1").Add("R", value.NewTuple(value.Int(10), value.Int(2))),
		relation.NewTransaction("T2").Add("S", value.NewTuple(value.Int(10))),
	})
}

// TestParallelDeterministicWitness forces the scheduling races a
// parallel search can lose: many components each holding a violation,
// components of uneven size, and one component split into
// Bron–Kerbosch branches, several of which violate. The outcome must be
// the violation the serial search returns, on every run, regardless of
// which goroutine finishes first.
func TestParallelDeterministicWitness(t *testing.T) {
	q := singleAtomQuery()
	for _, tc := range []struct {
		name string
		d    *possible.DB
		algo Algorithm
	}{
		{"16 singleton components", singletonComponentsDB(16), AlgoOpt},
		{"uneven components", unevenComponentsDB(), AlgoOpt},
		{"one component in branches", conflictPairsDB(6), AlgoNaive},
	} {
		serial, err := Check(context.Background(), tc.d, q, Options{Algorithm: tc.algo})
		if err != nil {
			t.Fatal(err)
		}
		if serial.Satisfied {
			t.Fatalf("%s: serial run satisfied", tc.name)
		}
		for _, workers := range []int{2, 3, 4} {
			for run := 0; run < 50; run++ {
				par, err := Check(context.Background(), tc.d, q, Options{Algorithm: tc.algo, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if par.Satisfied {
					t.Fatalf("%s workers=%d run %d: parallel run satisfied", tc.name, workers, run)
				}
				if fmt.Sprint(par.Witness) != fmt.Sprint(serial.Witness) {
					t.Fatalf("%s workers=%d run %d: witness %v, serial picked %v — outcome depends on scheduling",
						tc.name, workers, run, par.Witness, serial.Witness)
				}
			}
		}
	}
}

// TestRunDeterministicResolution drives the scheduler directly with
// units whose finish order is adversarial: a fast stopping outcome at a
// high index must not beat a slow one at a lower index, and a real
// error at the lowest stopping index wins over later violations.
func TestRunDeterministicResolution(t *testing.T) {
	boom := errors.New("boom")
	cases := []struct {
		name    string
		results map[int]searchOutcome // unit index -> outcome (others complete clean)
		slow    map[int]time.Duration
		wantErr bool
		wantWit []int
	}{
		{
			name:    "slow low violation beats fast high violation",
			results: map[int]searchOutcome{2: {hit: true, witness: []int{2}}, 6: {hit: true, witness: []int{6}}},
			slow:    map[int]time.Duration{2: 5 * time.Millisecond},
			wantWit: []int{2},
		},
		{
			name:    "low error beats later violation",
			results: map[int]searchOutcome{1: {err: boom}, 5: {hit: true, witness: []int{5}}},
			slow:    map[int]time.Duration{1: 5 * time.Millisecond},
			wantErr: true,
		},
		{
			name:    "low violation beats later error",
			results: map[int]searchOutcome{2: {hit: true, witness: []int{2}}, 5: {err: boom}},
			slow:    map[int]time.Duration{2: 5 * time.Millisecond},
			wantWit: []int{2},
		},
	}
	for _, tc := range cases {
		for run := 0; run < 10; run++ {
			var stats Stats
			o := runDeterministic(context.Background(), 8, 4, &stats,
				func(ctx context.Context, i int, local *Stats) *searchOutcome {
					if d := tc.slow[i]; d > 0 {
						time.Sleep(d)
					}
					if ctx.Err() != nil {
						return nil
					}
					if r, ok := tc.results[i]; ok {
						rc := r
						return &rc
					}
					return nil
				})
			switch {
			case tc.wantErr:
				if o == nil || !errors.Is(o.err, boom) {
					t.Fatalf("%s run %d: outcome %+v, want error", tc.name, run, o)
				}
			default:
				if o == nil || !o.hit || fmt.Sprint(o.witness) != fmt.Sprint(tc.wantWit) {
					t.Fatalf("%s run %d: outcome %+v, want witness %v", tc.name, run, o, tc.wantWit)
				}
			}
			if stats.WorkerBusy <= 0 {
				t.Fatalf("%s: WorkerBusy not accumulated", tc.name)
			}
		}
	}
}

// TestRunDeterministicRecoversPanic: a unit that panics on a pool
// worker comes back as that unit's error instead of killing the
// process, and the busy gauge returns to where it was.
func TestRunDeterministicRecoversPanic(t *testing.T) {
	busy := gPoolBusy.Value()
	var stats Stats
	o := runDeterministic(context.Background(), 4, 2, &stats,
		func(ctx context.Context, i int, local *Stats) *searchOutcome {
			if i == 1 {
				panic("boom")
			}
			return nil
		})
	if o == nil || o.err == nil || !strings.Contains(o.err.Error(), "unit 1 panicked: boom") {
		t.Fatalf("outcome %+v, want the panic of unit 1 as its error", o)
	}
	if got := gPoolBusy.Value(); got != busy {
		t.Fatalf("pool busy gauge = %d after the run, want %d", got, busy)
	}
}

// TestExpiredDeadlineUndecidedFast: a Check whose deadline already
// passed must come back undecided immediately — before any data-sized
// work — not run to completion.
func TestExpiredDeadlineUndecidedFast(t *testing.T) {
	d := fixture.PaperDB()
	q := query.MustParse("q() :- TxOut(t, s, pk, a)")
	for _, algo := range []Algorithm{AlgoAuto, AlgoNaive, AlgoOpt, AlgoExhaustive} {
		start := time.Now()
		res, err := Check(context.Background(), d, q, Options{Algorithm: algo, Deadline: time.Now().Add(-time.Second)})
		elapsed := time.Since(start)
		if res == nil || !errors.Is(err, ErrUndecided) {
			t.Fatalf("%v: res=%v err=%v, want partial Result with ErrUndecided", algo, res, err)
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%v: cause %v, want context.DeadlineExceeded in the chain", algo, err)
		}
		if elapsed > 10*time.Millisecond {
			t.Fatalf("%v: expired deadline took %v, want <10ms", algo, elapsed)
		}
	}
}

// conflictPairsDB builds a database with n disjoint conflicting pending
// pairs, so the fd-transaction graph has 2^n maximal cliques — an
// exponential search a deadline must be able to interrupt.
func conflictPairsDB(n int) *possible.DB {
	s := relation.NewState()
	s.MustAddSchema(relation.NewSchema("R", "k:int", "v:int"))
	cons := constraint.MustNewSet(s, []*constraint.FD{constraint.NewKey(s.Schema("R"), "k")}, nil)
	var pending []*relation.Transaction
	for i := 0; i < n; i++ {
		for v := 1; v <= 2; v++ {
			pending = append(pending, relation.NewTransaction(fmt.Sprintf("T%d_%d", i, v)).
				Add("R", value.NewTuple(value.Int(int64(i)), value.Int(int64(v)))))
		}
	}
	return possible.MustNew(s, cons, pending)
}

// TestMidFlightDeadline: a deadline that fires during the clique
// search (serial and parallel) and during exhaustive enumeration stops
// the run promptly with the undecided error.
func TestMidFlightDeadline(t *testing.T) {
	d := conflictPairsDB(14) // 2^14 maximal cliques
	q := &query.Query{Name: "q", Atoms: []query.Atom{
		{Rel: "R", Args: []query.Term{query.V("x"), query.C(value.Int(99))}},
	}}
	for _, opts := range []Options{
		{Algorithm: AlgoNaive, DisablePrecheck: true},
		{Algorithm: AlgoNaive, DisablePrecheck: true, Workers: 4},
		{Algorithm: AlgoExhaustive},
	} {
		opts.Deadline = time.Now().Add(15 * time.Millisecond)
		start := time.Now()
		res, err := Check(context.Background(), d, q, opts)
		elapsed := time.Since(start)
		if res == nil || !errors.Is(err, ErrUndecided) {
			t.Fatalf("opts %+v: res=%v err=%v, want partial Result with ErrUndecided", opts, res, err)
		}
		if res.Stats.Duration <= 0 {
			t.Fatalf("opts %+v: undecided Result lost its wall time: %+v", opts, res.Stats)
		}
		if elapsed > 2*time.Second {
			t.Fatalf("opts %+v: deadline ignored for %v", opts, elapsed)
		}
	}
	// Without the deadline the same searches complete and agree that
	// the constraint is satisfied.
	res, err := Check(context.Background(), d, q, Options{Algorithm: AlgoNaive, DisablePrecheck: true, Workers: 4})
	if err != nil || !res.Satisfied {
		t.Fatalf("undeadlined run: res=%+v err=%v", res, err)
	}
}

// TestContextCancelUndecided: cancelling the caller's context has the
// same effect as a deadline.
func TestContextCancelUndecided(t *testing.T) {
	d := fixture.PaperDB()
	q := query.MustParse("q() :- TxOut(t, s, pk, a)")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Check(ctx, d, q, Options{Algorithm: AlgoOpt})
	if res == nil || !errors.Is(err, ErrUndecided) || !errors.Is(err, context.Canceled) {
		t.Fatalf("res=%v err=%v, want partial Result with ErrUndecided wrapping context.Canceled", res, err)
	}
}

// TestSerialParallelEquivalence is the cross-mode property test:
// serial, component-parallel (Opt, many components), and
// clique-parallel (Naive single component; Opt when one component
// remains) runs must agree on Satisfied and return valid witnesses on
// randomized databases.
func TestSerialParallelEquivalence(t *testing.T) {
	queries := []string{
		"q() :- TxOut(t, s, 'U0Pk', a)",
		"q() :- TxOut(t, s, 'U3Pk', a)",
		"q() :- TxIn(pt, ps, 'U1Pk', a, nt, sig), TxOut(nt, s2, pk2, a2)",
		"q(count()) > 1 :- TxIn(pt, ps, pk, a, nt, sig)",
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := bitcoinLikeDB(r)
		q := query.MustParse(queries[r.Intn(len(queries))])
		base, err := Check(context.Background(), d, q, Options{Algorithm: AlgoNaive})
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range []Options{
			{Algorithm: AlgoNaive, Workers: 4},
			{Algorithm: AlgoNaive, Workers: 4, DisablePrecheck: true},
			{Algorithm: AlgoOpt},
			{Algorithm: AlgoOpt, Workers: 2},
			{Algorithm: AlgoOpt, Workers: 4, DisablePrecheck: true},
		} {
			got, err := Check(context.Background(), d, q, opts)
			if err != nil {
				t.Fatalf("seed %d opts %+v: %v", seed, opts, err)
			}
			if got.Satisfied != base.Satisfied {
				t.Logf("seed %d query %s opts %+v: got %v want %v",
					seed, q, opts, got.Satisfied, base.Satisfied)
				return false
			}
			if !got.Satisfied {
				if !d.IsReachable(got.Witness) {
					t.Logf("seed %d opts %+v: witness %v unreachable", seed, opts, got.Witness)
					return false
				}
				world, _ := d.GetMaximal(got.Witness)
				hit, err := query.Eval(q, world)
				if err != nil || !hit {
					t.Logf("seed %d opts %+v: witness world does not satisfy query (err %v)", seed, opts, err)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestCliqueParallelCountsExact: the clique-branch path must count
// every clique and world exactly once — the branch subtrees partition
// the clique set, and Stats.Merge folds the per-worker counts.
func TestCliqueParallelCountsExact(t *testing.T) {
	d := conflictPairsDB(8) // 256 maximal cliques, one component
	q := &query.Query{Name: "q", Atoms: []query.Atom{
		{Rel: "R", Args: []query.Term{query.V("x"), query.C(value.Int(99))}},
	}}
	serial, err := Check(context.Background(), d, q, Options{Algorithm: AlgoNaive, DisablePrecheck: true})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Check(context.Background(), d, q, Options{Algorithm: AlgoNaive, DisablePrecheck: true, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !serial.Satisfied || !par.Satisfied {
		t.Fatalf("satisfied: serial %v parallel %v", serial.Satisfied, par.Satisfied)
	}
	if serial.Stats.Cliques != 256 || par.Stats.Cliques != 256 {
		t.Fatalf("cliques: serial %d parallel %d, want 256 both", serial.Stats.Cliques, par.Stats.Cliques)
	}
	if serial.Stats.WorldsEvaluated != par.Stats.WorldsEvaluated {
		t.Fatalf("worlds: serial %d parallel %d", serial.Stats.WorldsEvaluated, par.Stats.WorldsEvaluated)
	}
	if par.Stats.WorkersUsed != 4 {
		t.Fatalf("WorkersUsed = %d, want 4", par.Stats.WorkersUsed)
	}
	if par.Stats.WorkerBusy <= 0 {
		t.Fatal("WorkerBusy not accumulated on the clique-parallel path")
	}
}

// TestCliqueParallelSpeedup is the wall-clock acceptance check: on a
// single-component workload with an edge-dense fd graph, Workers=4
// must beat Workers=1 by >1.5x. Wall-clock parallel speedup needs real
// cores, so the test skips on starved machines (CI runners have them).
func TestCliqueParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skipf("needs 4 CPUs for wall-clock speedup, have %d", runtime.GOMAXPROCS(0))
	}
	d := conflictPairsDB(11) // 2048 cliques, single component under Naive
	q := &query.Query{Name: "q", Atoms: []query.Atom{
		{Rel: "R", Args: []query.Term{query.V("x"), query.C(value.Int(99))}},
	}}
	run := func(workers int) time.Duration {
		best := time.Duration(1<<62 - 1)
		for i := 0; i < 3; i++ {
			start := time.Now()
			res, err := Check(context.Background(), d, q, Options{Algorithm: AlgoNaive, DisablePrecheck: true, Workers: workers})
			if err != nil || !res.Satisfied {
				t.Fatalf("workers=%d: res=%+v err=%v", workers, res, err)
			}
			if e := time.Since(start); e < best {
				best = e
			}
		}
		return best
	}
	run(1) // warm lazy indexes
	w1 := run(1)
	w4 := run(4)
	speedup := float64(w1) / float64(w4)
	t.Logf("Workers=1 %v, Workers=4 %v, speedup %.2fx", w1, w4, speedup)
	if speedup < 1.5 {
		t.Errorf("speedup %.2fx < 1.5x (w1=%v w4=%v)", speedup, w1, w4)
	}
}
