package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"blockchaindb/internal/fixture"
	"blockchaindb/internal/graph"
	"blockchaindb/internal/possible"
	"blockchaindb/internal/query"
	"blockchaindb/internal/relation"
	"blockchaindb/internal/value"
)

// This file pins the incremental world maintenance along the
// Bron–Kerbosch recursion (possible.WorldStack + query.EvalDelta +
// the cliqueSearch visitor): the differential oracle against
// exhaustive enumeration of Poss(D), the walk-level oracle against
// GetMaximalScratch on real fd graphs, and a fuzz target over both.

// incrementalQueries are monotone queries the incremental path
// accepts (SupportsDelta): the differential suite's connected
// conjunctive entries, the contention benchmark's two-parties
// self-join, and count/cntd/sum/max each with > and >= (cntd over
// owners that repeat across inputs).
var incrementalQueries = []string{
	"q() :- TxOut(t, s, 'U0Pk', a)",
	"q() :- TxOut(t, s, 'U3Pk', a)",
	"q() :- TxIn(pt, ps, 'U1Pk', a, nt, sig), TxOut(nt, s2, pk2, a2)",
	"q() :- TxOut(t1, s1, 'U2Pk', a1), TxIn(t1, s1, 'U2Pk', a1, t2, sg), TxOut(t2, s2, pk, a2)",
	"q() :- TxIn(t, s, pk, a, n1, g1), TxOut(n1, o1, p1, b1), " +
		"TxIn(t, s, pk, a, n2, g2), TxOut(n2, o2, p2, b2), n1 != n2, p1 != p2",
	"q(count()) > 1 :- TxIn(pt, ps, pk, a, nt, sig)",
	"q(count()) >= 2 :- TxIn(pt, ps, pk, a, nt, sig), TxOut(nt, s, pk2, a2)",
	"q(cntd(pk)) > 3 :- TxOut(t, s, pk, a)",
	"q(cntd(pk)) >= 2 :- TxIn(pt, ps, pk, a, nt, sig)",
	"q(sum(a)) > 2 :- TxIn(pt, ps, pk, a, nt, sig)",
	"q(sum(a)) >= 2 :- TxIn(pt, ps, pk, a, nt, sig), TxOut(nt, s, 'U1Pk', a2)",
	"q(max(nt)) > 4 :- TxIn(pt, ps, pk, a, nt, sig)",
	"q(max(t)) >= 3 :- TxOut(t, s, 'U3Pk', a)",
}

// TestIncrementalWorldsDifferential is the incremental clique search's
// oracle: on random Bitcoin-like databases (at most 4 pending
// transactions, so Poss(D) is small) NaiveDCSat and OptDCSat must
// agree with exhaustive enumeration of every possible world, serial
// and branch-parallel alike, and any witness must be a reachable world
// that satisfies the query. Each check runs twice on a database of its
// own: cold, building the prepared root (NaiveDCSat) or the query's
// split (OptDCSat), then warm, sharing it. Both must agree with the
// exhaustive check, with equal witnesses.
func TestIncrementalWorldsDifferential(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := bitcoinLikeDB(r)
		q := query.MustParse(incrementalQueries[r.Intn(len(incrementalQueries))])
		want, err := Check(context.Background(), d, q, Options{Algorithm: AlgoExhaustive})
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range []Options{
			{Algorithm: AlgoOpt},
			{Algorithm: AlgoNaive},
			{Algorithm: AlgoOpt, Workers: 3},
			{Algorithm: AlgoNaive, Workers: 3},
			{Algorithm: AlgoNaive, DisablePrecheck: true},
			{Algorithm: AlgoOpt, DisablePrecheck: true},
		} {
			own := &possible.DB{State: d.State, Constraints: d.Constraints, Pending: d.Pending}
			var runs [2]*Result
			for i := range runs {
				if runs[i], err = Check(context.Background(), own, q, opts); err != nil {
					t.Fatalf("opts %+v: %v", opts, err)
				}
				if !agreesIncremental(t, d, q, runs[i], want, seed, opts) {
					return false
				}
			}
			cold, warm := runs[0], runs[1]
			// Cold, the first branch to reach the root builds it and any
			// other branch shares it; warm, every branch shares it. The
			// split is built by the cold check, if it reaches one, and
			// shared by the warm one.
			built := cold.Stats.WorldsRebuilt - cold.Stats.RootsShared
			if opts.Algorithm == AlgoNaive &&
				(built != min(cold.Stats.WorldsRebuilt, 1) || warm.Stats.RootsShared != warm.Stats.WorldsRebuilt) {
				t.Logf("seed %d query %s opts %+v: %d roots built cold, %d of %d shared warm",
					seed, q, opts, built, warm.Stats.RootsShared, warm.Stats.WorldsRebuilt)
				return false
			}
			if split := memoizedSplit(own, q); cold.Stats.SplitsShared != 0 || warm.Stats.SplitsShared != split {
				t.Logf("seed %d query %s opts %+v: splits shared cold %d, warm %d; %d memoized",
					seed, q, opts, cold.Stats.SplitsShared, warm.Stats.SplitsShared, split)
				return false
			}
			if fmt.Sprint(cold.Witness) != fmt.Sprint(warm.Witness) {
				t.Logf("seed %d query %s opts %+v: cold witness %v, warm %v", seed, q, opts, cold.Witness, warm.Witness)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// agreesIncremental checks a clique algorithm's verdict against the
// exhaustive one and revalidates a violation's witness: a reachable
// world that satisfies q.
func agreesIncremental(t *testing.T, d *possible.DB, q *query.Query, got, want *Result, seed int64, opts Options) bool {
	t.Helper()
	if got.Satisfied != want.Satisfied {
		t.Logf("seed %d query %s opts %+v: incremental=%v exhaustive=%v",
			seed, q, opts, got.Satisfied, want.Satisfied)
		return false
	}
	if got.Satisfied {
		return true
	}
	if !d.IsReachable(got.Witness) {
		t.Logf("seed %d: witness %v not reachable", seed, got.Witness)
		return false
	}
	world := relation.NewOverlay(d.State)
	for _, i := range got.Witness {
		world.Add(d.Pending[i])
	}
	hit, err := query.Eval(q, world)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Logf("seed %d: witness world %v does not satisfy %s", seed, got.Witness, q)
		return false
	}
	return true
}

// TestIncrementalStatsSplit: the world-accounting counters reflect the
// incremental walk — extensions along the tree, a single root rebuild
// for the one searched component, and one evaluated world per leaf
// plus the state-only world.
func TestIncrementalStatsSplit(t *testing.T) {
	// Two committed outputs, five pending spenders: {T1,T3,T5} contend
	// for output 1 and {T2,T4} for output 2, so the fd graph is the
	// complete bipartite K(3,2) and the naive search enumerates its six
	// maximal cliques with real descends between them.
	s := fixture.BitcoinSchema()
	cons := fixture.BitcoinConstraints(s)
	s.MustInsert("TxOut", fixture.TxOut(1, 1, "U0Pk", 1))
	s.MustInsert("TxOut", fixture.TxOut(1, 2, "U1Pk", 1))
	var pending []*relation.Transaction
	for i := 0; i < 5; i++ {
		ser := int64(1 + i%2)
		owner := fmt.Sprintf("U%dPk", ser-1)
		tx := relation.NewTransaction(fmt.Sprintf("T%d", i+1))
		tx.Add("TxIn", fixture.TxIn(1, ser, owner, 1, int64(2+i), owner+"Sig"))
		tx.Add("TxOut", fixture.TxOut(int64(2+i), 1, "U2Pk", 1))
		pending = append(pending, tx)
	}
	d := possible.MustNew(s, cons, pending)
	q := query.MustParse("q() :- TxOut(t, s, 'U9Pk', a)") // never satisfied: exhaustive walk
	opts := Options{Algorithm: AlgoNaive, DisablePrecheck: true}
	inc, err := Check(context.Background(), d, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !inc.Satisfied || inc.Stats.Cliques != 6 {
		t.Fatalf("unexpected incremental run: satisfied=%v cliques=%d", inc.Satisfied, inc.Stats.Cliques)
	}
	if inc.Stats.WorldsIncremental == 0 {
		t.Error("incremental run reported no in-place extensions")
	}
	if inc.Stats.WorldsRebuilt != 1 {
		t.Errorf("incremental run reported %d root rebuilds, want 1 (one component)", inc.Stats.WorldsRebuilt)
	}
	if inc.Stats.WorldsEvaluated != inc.Stats.Cliques+1 {
		t.Errorf("WorldsEvaluated=%d, want %d (one per clique plus the state alone)",
			inc.Stats.WorldsEvaluated, inc.Stats.Cliques+1)
	}
}

// walkOracle drives a WorldStack through an actual pivoted BK walk of
// a component's fd graph and, at every tree node, compares the
// incrementally maintained world against a from-scratch
// GetMaximalScratch over the same subset. Within a clique of G^fd_T
// the fixpoint's included SET and world tuples are order-insensitive
// (CanAppend is monotone there), so set equality is the exact
// correctness contract — inclusion order may differ.
type walkOracle struct {
	t      *testing.T
	d      *possible.DB
	cg     *fdCompGraph
	ws     *possible.WorldStack
	ms     possible.MaximalScratch
	path   []int // global pending indexes of the current tree path
	nodes  int
	maxPer int // stop after this many nodes to bound deep components
}

func worldKey(w *relation.Overlay) string {
	var rows []string
	for _, name := range w.Names() {
		w.Scan(name, func(tu value.Tuple) bool {
			rows = append(rows, name+":"+fmt.Sprint(tu))
			return true
		})
	}
	sort.Strings(rows)
	return fmt.Sprint(rows)
}

func sortedCopy(xs []int) []int {
	out := append([]int(nil), xs...)
	sort.Ints(out)
	return out
}

func (o *walkOracle) check() bool {
	subset := append(append([]int(nil), o.cg.universal...), o.path...)
	refWorld, refInc := o.d.GetMaximalScratch(&o.ms, subset)
	wantInc := fmt.Sprint(sortedCopy(refInc))
	gotInc := fmt.Sprint(sortedCopy(o.ws.Included()))
	if gotInc != wantInc {
		o.t.Errorf("path %v: included set %s, from-scratch %s", o.path, gotInc, wantInc)
		return false
	}
	if got, want := worldKey(o.ws.World()), worldKey(refWorld); got != want {
		o.t.Errorf("path %v: world diverged from from-scratch fixpoint", o.path)
		return false
	}
	return true
}

func (o *walkOracle) Descend(v int) bool {
	o.ws.Push(o.cg.conflicted[v])
	o.path = append(o.path, o.cg.conflicted[v])
	o.nodes++
	return o.check() && o.nodes < o.maxPer
}

func (o *walkOracle) Ascend() {
	o.ws.Pop()
	o.path = o.path[:len(o.path)-1]
	if !o.check() {
		o.nodes = o.maxPer // poison: stop the walk
	}
}

func (o *walkOracle) Leaf(r []int) bool { return o.nodes < o.maxPer }

// TestIncrementalWalkAgainstScratch runs the walk oracle over the fd
// graphs of random databases: every node of the pivoted recursion —
// descending and after re-ascending — holds exactly the from-scratch
// maximal world of its path, and so does the prepared live root
// (possible.NewRoot). The stack and the root test only the inclusion
// dependencies, while GetMaximalScratch runs the full CanAppend, so the
// oracle also pins what makes the FD half redundant in the walk: the
// live filter and the conflict adjacency, read through both prepared
// views. walkDB's databases hold dead transactions and fd conflicts
// among transactions that would otherwise be universal, so a dead
// transaction let through, or a conflict pair left out, shows as a
// world with an FD violation the from-scratch fixpoint refuses.
func TestIncrementalWalkAgainstScratch(t *testing.T) {
	gens := []struct {
		name  string
		seeds int64
		gen   func(*rand.Rand) *possible.DB
	}{
		{"bitcoinLike", 150, bitcoinLikeDB},
		{"walk", 300, walkDB},
	}
	for _, g := range gens {
		for seed := int64(0); seed < g.seeds; seed++ {
			d := g.gen(rand.New(rand.NewSource(seed)))
			m := NewMonitor(d)
			m.mu.RLock()
			views := []struct {
				name string
				d    *possible.DB
				view preparedView
			}{
				{"db", d, prepare(d)},
				{"monitor", m.db, &monitorView{m: m}},
			}
			for _, v := range views {
				where := fmt.Sprintf("%s seed %d, %s view", g.name, seed, v.name)
				live := v.view.live()
				if len(live) == 0 {
					continue
				}
				cg := fdGraphFromConflicts(live, v.view)
				var ws possible.WorldStack
				ws.Rebase(v.d, cg.universal)
				o := &walkOracle{t: t, d: v.d, cg: cg, ws: &ws, maxPer: 200}
				if !o.check() {
					t.Fatalf("%s: root world diverged", where)
				}
				if root, _ := v.view.liveRoot(); root != nil {
					refWorld, refInc := v.d.GetMaximalScratch(&o.ms, cg.universal)
					if got, want := fmt.Sprint(sortedCopy(root.Included())), fmt.Sprint(sortedCopy(refInc)); got != want {
						t.Fatalf("%s: NewRoot included %s, from-scratch %s", where, got, want)
					}
					if worldKey(root.World()) != worldKey(refWorld) {
						t.Fatalf("%s: NewRoot world diverged from from-scratch fixpoint", where)
					}
				}
				if err := graph.MaximalCliquesVisit(context.Background(), cg.g, o); err != nil {
					t.Fatal(err)
				}
				if t.Failed() {
					t.Fatalf("%s: walk oracle failed", where)
				}
			}
			m.mu.RUnlock()
		}
	}
}

// walkDB builds a random Bitcoin-shaped database for the walk oracle.
// R holds the outputs of transaction 1, the first of them already
// spent. The pending set mixes:
//
//   - spends of R's unspent outputs, and double-spending pairs of them,
//     whose only fd conflict is with each other;
//   - spends of pending outputs, and collectors spending two at once
//     (ind chains, so pushes unblock deferred transactions);
//   - dead transactions that spend R's spent output, restate one of
//     R's outputs with another owner, or create one output twice with
//     two owners. Each satisfies its inclusion dependencies, so only
//     the FD half of CanAppend refuses it.
func walkDB(r *rand.Rand) *possible.DB {
	s := fixture.BitcoinSchema()
	cons := fixture.BitcoinConstraints(s)
	nOuts := 3 + r.Intn(3)
	owner := func(ser int64) string { return fmt.Sprintf("U%dPk", (ser-1)%3) }
	for ser := int64(1); ser <= int64(nOuts); ser++ {
		s.MustInsert("TxOut", fixture.TxOut(1, ser, owner(ser), 1))
	}
	s.MustInsert("TxIn", fixture.TxIn(1, 1, owner(1), 1, 90, owner(1)+"Sig"))
	s.MustInsert("TxOut", fixture.TxOut(90, 1, "U1Pk", 1))

	type coin struct {
		tx, ser int64
		pk      string
	}
	var (
		pending []*relation.Transaction
		outs    []coin // the pending transactions' outputs
		nextTx  = int64(2)
	)
	// spend adds a live transaction spending the coins into one output.
	spend := func(ins ...coin) {
		id := nextTx
		nextTx++
		tx := relation.NewTransaction(fmt.Sprintf("T%d", len(pending)+1))
		for _, c := range ins {
			tx.Add("TxIn", fixture.TxIn(c.tx, c.ser, c.pk, 1, id, c.pk+"Sig"))
		}
		pk := fmt.Sprintf("U%dPk", r.Intn(4))
		tx.Add("TxOut", fixture.TxOut(id, 1, pk, 1))
		outs = append(outs, coin{id, 1, pk})
		pending = append(pending, tx)
	}
	unspent := func() coin {
		ser := 2 + int64(r.Intn(nOuts-1))
		return coin{1, ser, owner(ser)}
	}
	for i, n := 0, 3+r.Intn(5); i < n; i++ {
		switch k := r.Intn(10); {
		case k < 3:
			spend(unspent())
		case k < 5: // a double-spending pair
			c := unspent()
			spend(c)
			spend(c)
		case k < 7 && len(outs) > 0: // a chained spend
			spend(outs[r.Intn(len(outs))])
		case k < 8 && len(outs) > 1: // a collector
			a := r.Intn(len(outs))
			b := (a + 1 + r.Intn(len(outs)-1)) % len(outs)
			spend(outs[a], outs[b])
		default: // a dead transaction
			id := nextTx
			nextTx++
			tx := relation.NewTransaction(fmt.Sprintf("D%d", len(pending)+1))
			switch r.Intn(3) {
			case 0: // spends R's spent output again
				tx.Add("TxIn", fixture.TxIn(1, 1, owner(1), 1, id, owner(1)+"Sig"))
				tx.Add("TxOut", fixture.TxOut(id, 1, "U3Pk", 1))
			case 1: // restates one of R's outputs
				tx.Add("TxOut", fixture.TxOut(1, 1+int64(r.Intn(nOuts)), "U3Pk", 1))
			default: // inconsistent with itself
				tx.Add("TxOut", fixture.TxOut(id, 1, "U3Pk", 1))
				tx.Add("TxOut", fixture.TxOut(id, 1, "U0Pk", 1))
			}
			pending = append(pending, tx)
		}
	}
	r.Shuffle(len(pending), func(i, j int) { pending[i], pending[j] = pending[j], pending[i] })
	return possible.MustNew(s, cons, pending)
}

// FuzzIncrementalWorld fuzzes the same property from a raw seed: a
// random database, a random push/pop walk (not necessarily a clique —
// the replay contract must hold for arbitrary sequences), and a
// cross-check of the stack against a fresh replay after every step.
func FuzzIncrementalWorld(f *testing.F) {
	f.Add(int64(1), uint64(0x9e3779b97f4a7c15))
	f.Add(int64(42), uint64(0xdeadbeef))
	f.Fuzz(func(t *testing.T, seed int64, walk uint64) {
		r := rand.New(rand.NewSource(seed))
		d := bitcoinLikeDB(r)
		if len(d.Pending) == 0 {
			return
		}
		var ws possible.WorldStack
		ws.Rebase(d, nil)
		var pushed []int
		for i := 0; i < 16; i++ {
			bit := walk & 3
			walk >>= 2
			if bit == 0 && ws.Depth() > 0 {
				ws.Pop()
				pushed = pushed[:len(pushed)-1]
			} else {
				ti := int(walk % uint64(len(d.Pending)))
				walk >>= 2
				ws.Push(ti)
				pushed = append(pushed, ti)
			}
			var ref possible.WorldStack
			ref.Rebase(d, nil)
			for _, ti := range pushed {
				ref.Push(ti)
			}
			if got, want := fmt.Sprint(ws.Included()), fmt.Sprint(ref.Included()); got != want {
				t.Fatalf("step %d pushed %v: included %s, replay %s", i, pushed, got, want)
			}
			if got, want := worldKey(ws.World()), worldKey(ref.World()); got != want {
				t.Fatalf("step %d pushed %v: world diverged from replay", i, pushed)
			}
		}
	})
}
