package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"blockchaindb/internal/constraint"
	"blockchaindb/internal/fixture"
	"blockchaindb/internal/obs"
	"blockchaindb/internal/possible"
	"blockchaindb/internal/query"
	"blockchaindb/internal/relation"
	"blockchaindb/internal/value"
)

// buildFDGraph is the from-scratch fd graph of the pending transactions
// at the given (global) indexes: the test oracle for the graphs checks
// build from a prepared view's conflict adjacency.
func buildFDGraph(d *possible.DB, subset []int) *fdCompGraph {
	return newFDCompGraph(subset, fdConflictPairs(d, subset))
}

// preparedQuery is one check checkSame runs.
type preparedQuery struct {
	src  string
	opts Options
}

// preparedQueries exercise every part of a prepared view: the precheck
// reads the union, the violated ones go on to the live slots, the
// seeds and the conflicts, and AlgoFDOnly reads the live slots. The
// OptDCSat join query runs twice, so the second check shares the split
// the first built.
var preparedQueries = []preparedQuery{
	{"q() :- TxOut(t, s, 'U0Pk', a)", Options{Algorithm: AlgoOpt}},
	{"q() :- TxOut(t, s, 'U2Pk', a)", Options{Algorithm: AlgoNaive}},
	{"q() :- TxIn(pt, ps, 'U1Pk', a, nt, sig), TxOut(nt, s2, pk2, a2)", Options{Algorithm: AlgoOpt}},
	{"q() :- TxIn(pt, ps, 'U1Pk', a, nt, sig), TxOut(nt, s2, pk2, a2)", Options{Algorithm: AlgoOpt, DisablePrecheck: true, Workers: 2}},
	{"q(sum(a)) > 2 :- TxIn(pt, ps, pk, a, nt, sig)", Options{Algorithm: AlgoNaive}},
	{"q() :- TxOut(t, s, 'U3Pk', a)", Options{Algorithm: AlgoFDOnly}},
	// Only pending transactions pay U3Pk, and they often double-spend,
	// so the shared root misses and the walk descends below it.
	{"q() :- TxOut(t, s, 'U3Pk', a)", Options{Algorithm: AlgoNaive, DisablePrecheck: true}},
}

// checkSame runs the queries on d and on a freshly built database with
// the same contents, and reports the first disagreement. It returns how
// many violated checks on d shared the prepared root and found the
// violation below it, and how many shared a split.
func checkSame(t *testing.T, d *possible.DB, queries []preparedQuery, step string) (sharedRootDescents, splitsShared int) {
	t.Helper()
	fresh := &possible.DB{State: d.State, Constraints: d.Constraints,
		Pending: append([]*relation.Transaction(nil), d.Pending...)}
	for _, pq := range queries {
		q := query.MustParse(pq.src)
		opts := pq.opts
		if opts.Algorithm == AlgoFDOnly && d.Constraints.HasINDs() {
			continue
		}
		got, err := Check(context.Background(), d, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Check(context.Background(), fresh, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Satisfied && got.Stats.RootsShared > 0 && got.Stats.WorldsIncremental > 0 {
			sharedRootDescents++
		}
		splitsShared += got.Stats.SplitsShared
		if got.Satisfied != want.Satisfied || fmt.Sprint(got.Witness) != fmt.Sprint(want.Witness) ||
			got.Stats.LivePending != want.Stats.LivePending || got.Stats.Components != want.Stats.Components {
			t.Fatalf("%s: %s %v on the reused database: satisfied=%v witness=%v live=%d components=%d; "+
				"fresh: satisfied=%v witness=%v live=%d components=%d", step, pq.src, opts.Algorithm,
				got.Satisfied, got.Witness, got.Stats.LivePending, got.Stats.Components,
				want.Satisfied, want.Witness, want.Stats.LivePending, want.Stats.Components)
		}
	}
	return sharedRootDescents, splitsShared
}

// memoizedSplit reports how many splits of q (0 or 1) d's prepared view
// holds.
func memoizedSplit(d *possible.DB, q *query.Query) int {
	sq, _ := query.Simplify(q)
	v := prepare(d)
	v.splitMu.Lock()
	defer v.splitMu.Unlock()
	if v.splits[sq.String()] == nil {
		return 0
	}
	return 1
}

// bridgeDB is a Proposition 2 database over A(x), B(x, y), C(y) and a
// keyed K(k, v), with B(1,2) committed. TA = {A(1), K(1,1)} and
// TB = {C(2), K(1,2)} share no θ edge, so prop2Query splits them apart,
// but the committed B(1,2) bridges them; their K tuples fd-conflict, so
// the merged group holds no violation either and the query is
// satisfied. TC = {A(5)} has no partner.
func bridgeDB() *possible.DB {
	s := relation.NewState()
	s.MustAddSchema(relation.NewSchema("A", "x:int"))
	s.MustAddSchema(relation.NewSchema("B", "x:int", "y:int"))
	s.MustAddSchema(relation.NewSchema("C", "y:int"))
	s.MustAddSchema(relation.NewSchema("K", "k:int", "v:int"))
	s.MustInsert("B", value.NewTuple(value.Int(1), value.Int(2)))
	cons := constraint.MustNewSet(s, []*constraint.FD{constraint.NewKey(s.Schema("K"), "k")}, nil)
	return possible.MustNew(s, cons, []*relation.Transaction{
		oneTuple("TA", "A", 1).Add("K", value.NewTuple(value.Int(1), value.Int(1))),
		oneTuple("TB", "C", 2).Add("K", value.NewTuple(value.Int(1), value.Int(2))),
		oneTuple("TC", "A", 5),
	})
}

// bridgeQueries run on bridgeDB: each check needs the state-bridge
// closure, and every check after the first shares the split.
var bridgeQueries = []preparedQuery{
	{prop2Query, Options{Algorithm: AlgoOpt}},
	{prop2Query, Options{Algorithm: AlgoOpt, Workers: 2}},
	{prop2Query, Options{Algorithm: AlgoOpt, DisablePrecheck: true}},
}

// TestPreparedViewFollowsInPlaceEdits reuses one database across the
// in-place edits callers make between checks — appending to Pending (as
// examples/exchange and cmd/bcnode do after possible.New), replacing a
// slot, a swap-remove followed by an append that leaves the length
// unchanged, and growing the state — and requires every check to
// answer as a check on a freshly built database does.
func TestPreparedViewFollowsInPlaceEdits(t *testing.T) {
	descents, shared := 0, 0
	check := func(d *possible.DB, queries []preparedQuery, step string) {
		t.Helper()
		n, m := checkSame(t, d, queries, step)
		descents += n
		shared += m
	}
	for seed := int64(0); seed < 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		d := bitcoinLikeDB(r)
		// An IND-free twin runs the AlgoFDOnly query too.
		s := d.State.Clone()
		noIND := possible.MustNew(s, constraint.MustNewSet(s, d.Constraints.FDs, nil), d.Pending)
		nextTx := int64(100)
		newTx := func(db *possible.DB) *relation.Transaction {
			owner := fmt.Sprintf("U%dPk", r.Intn(3))
			tx := relation.NewTransaction(fmt.Sprintf("E%d", nextTx)).
				Add("TxIn", fixture.TxIn(1, int64(r.Intn(3)+1), owner, 1, nextTx, owner+"Sig")).
				Add("TxOut", fixture.TxOut(nextTx, 1, fmt.Sprintf("U%dPk", r.Intn(4)), 1))
			nextTx++
			norm, err := db.State.NormalizeTransaction(tx)
			if err != nil {
				t.Fatal(err)
			}
			return norm
		}
		for _, db := range []*possible.DB{d, noIND} {
			check(db, preparedQueries, fmt.Sprintf("seed %d initial", seed))
			db.Pending = append(db.Pending, newTx(db), newTx(db))
			check(db, preparedQueries, fmt.Sprintf("seed %d append", seed))
			db.Pending[r.Intn(len(db.Pending))] = newTx(db)
			check(db, preparedQueries, fmt.Sprintf("seed %d replace", seed))
			i, last := r.Intn(len(db.Pending)), len(db.Pending)-1
			db.Pending[i] = db.Pending[last]
			db.Pending = append(db.Pending[:last], newTx(db))
			check(db, preparedQueries, fmt.Sprintf("seed %d swap-remove and append", seed))
			// Commit an output under the key of a pending transaction's
			// output, to another payee: the pending transaction dies.
			out := db.Pending[r.Intn(len(db.Pending))].Tuples("TxOut")[0]
			if err := db.State.InsertTransaction(relation.NewTransaction("B").
				Add("TxOut", value.NewTuple(out[0], out[1], value.Str("ZPk"), out[3]))); err != nil {
				t.Fatal(err)
			}
			check(db, preparedQueries, fmt.Sprintf("seed %d state insert", seed))
		}
	}
	if descents == 0 {
		t.Error("no violated check descended from a shared root")
	}
	if shared == 0 {
		t.Error("no check shared a split")
	}
	// The bridged split: each edit changes the direct groups or what the
	// state bridges, so a split kept across an edit answers wrongly.
	d := bridgeDB()
	steps := []struct {
		name      string
		edit      func()
		satisfied bool
	}{
		{"initial", func() {}, true},
		{"append", func() { d.Pending = append(d.Pending, oneTuple("TD", "C", 6)) }, true},
		{"state insert", func() { d.State.MustInsert("B", value.NewTuple(value.Int(5), value.Int(6))) }, false},
		{"replace a slot", func() { d.Pending[2] = oneTuple("TE", "A", 7) }, true},
		{"swap-remove and append", func() {
			last := len(d.Pending) - 1
			d.Pending[1] = d.Pending[last]
			d.Pending = append(d.Pending[:last], oneTuple("TF", "C", 2))
		}, false},
	}
	shared = 0
	for _, st := range steps {
		st.edit()
		check(d, bridgeQueries, "bridge "+st.name)
		res, err := Check(context.Background(), d, query.MustParse(prop2Query), Options{Algorithm: AlgoOpt})
		if err != nil {
			t.Fatal(err)
		}
		if res.Satisfied != st.satisfied {
			t.Errorf("bridge %s: satisfied=%v, want %v", st.name, res.Satisfied, st.satisfied)
		}
	}
	if want := len(steps) * len(bridgeQueries); shared != want-len(steps) {
		t.Errorf("bridged checks shared %d splits, want %d (all but the first check of each step)", shared, want-len(steps))
	}
}

// TestPreparedViewConcurrentFirstCheck: eight goroutines run the first
// checks on one fresh database at once. They must share one prepared
// view and agree with a serial run.
func TestPreparedViewConcurrentFirstCheck(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	d := bitcoinLikeDB(r)
	d.Pending = append(d.Pending, relation.NewTransaction("W").
		Add("TxOut", fixture.TxOut(70, 1, "U1Pk", 1)))
	serial := &possible.DB{State: d.State, Constraints: d.Constraints, Pending: d.Pending}
	q := query.MustParse("q() :- TxIn(pt, ps, pk, a, nt, sig), TxOut(nt, s2, 'U1Pk', a2)")
	want, err := Check(context.Background(), serial, q, Options{Algorithm: AlgoOpt})
	if err != nil {
		t.Fatal(err)
	}
	views := make([]*dbView, 8)
	var wg sync.WaitGroup
	for g := range views {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			res, err := Check(context.Background(), d, q, Options{Algorithm: AlgoOpt, Workers: 1 + g%2})
			if err != nil {
				t.Error(err)
				return
			}
			if res.Satisfied != want.Satisfied || fmt.Sprint(res.Witness) != fmt.Sprint(want.Witness) {
				t.Errorf("goroutine %d: satisfied=%v witness=%v, serial: %v %v",
					g, res.Satisfied, res.Witness, want.Satisfied, want.Witness)
			}
			views[g] = prepare(d)
		}(g)
	}
	wg.Wait()
	for g, v := range views {
		if v != views[0] {
			t.Fatalf("goroutine %d got prepared view %p, goroutine 0 %p", g, v, views[0])
		}
	}
}

// rootDB is a database whose NaiveDCSat root misses both rootQueries:
// outputs (1,1) and (1,2) are each double-spent, by A1/A2 and B1/B2,
// while C, D (spending C's output) and E conflict with nothing and form
// the root. Only A1 pays U3Pk, and the U1Pk payee besides D is B1, so
// both violations are found below the root.
func rootDB() *possible.DB {
	s := fixture.BitcoinSchema()
	cons := fixture.BitcoinConstraints(s)
	for i := int64(1); i <= 4; i++ {
		s.MustInsert("TxOut", fixture.TxOut(1, i, fmt.Sprintf("U%dPk", (i-1)%3), 1))
	}
	spend := func(name string, pt, ps int64, owner string, nt int64, payee string) *relation.Transaction {
		return relation.NewTransaction(name).
			Add("TxIn", fixture.TxIn(pt, ps, owner, 1, nt, owner+"Sig")).
			Add("TxOut", fixture.TxOut(nt, 1, payee, 1))
	}
	return possible.MustNew(s, cons, []*relation.Transaction{
		spend("A1", 1, 1, "U0Pk", 10, "U3Pk"),
		spend("C", 1, 3, "U2Pk", 14, "U0Pk"),
		spend("A2", 1, 1, "U0Pk", 11, "U0Pk"),
		spend("B1", 1, 2, "U1Pk", 12, "U1Pk"),
		spend("D", 14, 1, "U0Pk", 15, "U1Pk"),
		spend("B2", 1, 2, "U1Pk", 13, "U2Pk"),
		spend("E", 1, 4, "U0Pk", 16, "U2Pk"),
	})
}

// rootQueries are violated on rootDB below the root: the first is
// connected (OptDCSat splits it), the second an aggregate, which every
// clique algorithm searches as the one group of all live transactions.
var rootQueries = []string{
	"q() :- TxOut(t, s, 'U3Pk', a)",
	"q(count()) >= 2 :- TxIn(pt, ps, pk, a, nt, sig), TxOut(nt, s, 'U1Pk', a2)",
}

// TestPreparedLiveRoot: NaiveDCSat takes its root from the prepared
// view, built by the first check and shared by the next, and the view
// replaces the root after each in-place edit.
func TestPreparedLiveRoot(t *testing.T) {
	d := rootDB()
	q := query.MustParse(rootQueries[0])
	opts := Options{Algorithm: AlgoNaive}
	first, err := Check(context.Background(), d, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Check(context.Background(), d, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.RootsShared != 0 || second.Stats.RootsShared != 1 || second.Stats.WorldsRebuilt != 1 {
		t.Errorf("roots shared: first check %d, second %d (rebuilt %d); want 0, then 1 of 1",
			first.Stats.RootsShared, second.Stats.RootsShared, second.Stats.WorldsRebuilt)
	}
	if first.Satisfied || second.Satisfied || fmt.Sprint(first.Witness) != fmt.Sprint(second.Witness) {
		t.Errorf("first check %v %v, second %v %v; want one violation twice",
			first.Satisfied, first.Witness, second.Satisfied, second.Witness)
	}
	if got := fmt.Sprint(first.Witness); got != "[0 1 4 6]" {
		t.Errorf("witness %s, want [0 1 4 6] (A1 pushed onto the root C, D, E)", got)
	}
	root, _ := prepare(d).liveRoot()
	if fmt.Sprint(root.Included()) != "[1 4 6]" {
		t.Fatalf("root includes %v, want [1 4 6] (C, D, E)", root.Included())
	}
	edits := []struct {
		name string
		edit func()
	}{
		{"append to Pending", func() {
			d.Pending = append(d.Pending, relation.NewTransaction("F").Add("TxOut", fixture.TxOut(20, 1, "U1Pk", 1)))
		}},
		{"replace a slot", func() {
			d.Pending[0] = relation.NewTransaction("G").Add("TxOut", fixture.TxOut(21, 1, "U2Pk", 1))
		}},
		{"insert into the state", func() {
			d.State.MustInsert("TxOut", fixture.TxOut(2, 1, "U3Pk", 1))
		}},
	}
	for _, e := range edits {
		if again, _ := prepare(d).liveRoot(); again != root {
			t.Fatalf("before %s: liveRoot changed on an unchanged database", e.name)
		}
		e.edit()
		next, built := prepare(d).liveRoot()
		if next == root || !built {
			t.Fatalf("after %s: liveRoot returned the old root (built=%v)", e.name, built)
		}
		root = next
	}
}

// TestPreparedSplitMemo: OptDCSat takes a query's split from the
// prepared view, built by the first check and shared by the next, and
// the view builds it afresh after each in-place edit. Past
// splitMemoCap queries the memo starts over. The precheck is off, so
// every check reaches the split.
func TestPreparedSplitMemo(t *testing.T) {
	d := bridgeDB()
	q := query.MustParse(prop2Query)
	opts := Options{Algorithm: AlgoOpt, DisablePrecheck: true}
	check := func(step string, wantShared int) {
		t.Helper()
		res, err := Check(context.Background(), d, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.SplitsShared != wantShared {
			t.Errorf("%s: SplitsShared = %d, want %d", step, res.Stats.SplitsShared, wantShared)
		}
	}
	check("first check", 0)
	check("second check", 1)
	edits := []struct {
		name string
		edit func()
	}{
		{"append to Pending", func() { d.Pending = append(d.Pending, oneTuple("TD", "C", 6)) }},
		{"replace a slot", func() { d.Pending[0] = oneTuple("TE", "A", 6) }},
		{"insert into the state", func() { d.State.MustInsert("B", value.NewTuple(value.Int(5), value.Int(6))) }},
	}
	for _, e := range edits {
		e.edit()
		check("first check after "+e.name, 0)
		check("second check after "+e.name, 1)
	}
	v := prepare(d)
	for i := 0; len(v.splits) < splitMemoCap; i++ {
		if _, shared := v.split(query.MustParse(fmt.Sprintf("q() :- A(%d)", i)), fmt.Sprint(i)); shared {
			t.Fatalf("split %d: shared on its first call", i)
		}
	}
	check("check on a full memo", 1)
	v.split(query.MustParse("q() :- A(-1)"), "-1")
	if len(v.splits) != 1 {
		t.Errorf("the memo holds %d splits past its bound, want 1", len(v.splits))
	}
	check("check after the memo started over", 0)
}

// bridgeRootQuery is connected, has three atoms, and never holds on
// rootDB, whose transactions the query's θ edges split into several
// groups: with the precheck off, every OptDCSat check of it searches
// the direct groups and then runs the state-bridge closure.
const bridgeRootQuery = "q() :- TxIn(pt, ps, pk, a, nt, sig), TxOut(nt, s2, pk2, a2), TxIn(nt, s2, pk2, a2, nt2, 'NoSig')"

// TestPreparedRootConcurrent: twelve goroutines run the first checks
// on one fresh database at once — NaiveDCSat and OptDCSat, serial and
// branch-parallel — so lazy index builds on the shared root race with
// each other while other searches walk below it, and the first checks
// of a query race to build its split and its state bridge. Every
// result must match a serial check on a database of its own, and the
// root, each split and the bridge must be built once.
func TestPreparedRootConcurrent(t *testing.T) {
	d := rootDB()
	type run struct {
		q    *query.Query
		opts Options
	}
	runs := make([]run, 12)
	for g := range runs {
		runs[g] = run{query.MustParse(rootQueries[g%2]), Options{Algorithm: AlgoNaive, Workers: 1 + g/2%2}}
		switch {
		case g >= 8:
			runs[g].q = query.MustParse(bridgeRootQuery)
			runs[g].opts = Options{Algorithm: AlgoOpt, DisablePrecheck: true, Workers: 1 + g%2}
		case g >= 4:
			runs[g].opts.Algorithm = AlgoOpt
		}
	}
	results := make([]*Result, len(runs))
	bridges := make([]*obs.Span, len(runs))
	var wg sync.WaitGroup
	for g := range runs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx, root := obs.StartTrace(context.Background(), "test")
			res, err := Check(ctx, d, runs[g].q, runs[g].opts)
			root.End()
			if err != nil {
				t.Error(err)
				return
			}
			results[g] = res
			bridges[g] = findSpan(root, "state_bridge_closure")
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	builds, descents := 0, 0
	splits := map[string]int{} // query -> checks that reached its split
	splitsShared := map[string]int{}
	bridgesBuilt := 0
	for g, res := range results {
		want, err := Check(context.Background(), rootDB(), runs[g].q, runs[g].opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Satisfied != want.Satisfied || fmt.Sprint(res.Witness) != fmt.Sprint(want.Witness) {
			t.Errorf("goroutine %d (%s, %+v): satisfied=%v witness=%v, serial: %v %v",
				g, runs[g].q, runs[g].opts, res.Satisfied, res.Witness, want.Satisfied, want.Witness)
		}
		if runs[g].opts.Algorithm == AlgoNaive || runs[g].q.IsAggregate() {
			builds += res.Stats.WorldsRebuilt - res.Stats.RootsShared
		} else {
			splits[runs[g].q.String()]++
			splitsShared[runs[g].q.String()] += res.Stats.SplitsShared
		}
		descents += res.Stats.WorldsIncremental
		if g >= 8 {
			if bridges[g] == nil {
				t.Fatalf("goroutine %d (%s): no state_bridge_closure span", g, runs[g].q)
			}
			if shared, _ := bridges[g].Attr("shared"); shared == false {
				bridgesBuilt++
			}
		}
	}
	if builds != 1 {
		t.Errorf("the live root was built %d times, want 1", builds)
	}
	if descents == 0 {
		t.Error("no search descended from the root")
	}
	for src, n := range splits {
		if built := n - splitsShared[src]; built != 1 {
			t.Errorf("%s: the split was built %d times by %d checks, want 1", src, built, n)
		}
	}
	if bridgesBuilt != 1 {
		t.Errorf("the state bridge was built %d times, want 1", bridgesBuilt)
	}
}

// TestMonitorConcurrentUnionRebuild: after each DropPending the
// Monitor's union is gone, and concurrent checks race to rebuild it.
// They must build one union between them and agree with a stateless
// check on a snapshot.
func TestMonitorConcurrentUnionRebuild(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	m := NewMonitor(bitcoinLikeDB(r))
	for i := int64(0); i < 6; i++ {
		if _, err := m.AddPending(relation.NewTransaction(fmt.Sprintf("R%d", i)).
			Add("TxOut", fixture.TxOut(300+i, 1, fmt.Sprintf("U%dPk", i%3), 1))); err != nil {
			t.Fatal(err)
		}
	}
	queries := []*query.Query{
		query.MustParse("q() :- TxOut(t, s, 'U1Pk', a)"),
		query.MustParse("q() :- TxIn(pt, ps, pk, a, nt, sig), TxOut(nt, s2, 'U2Pk', a2)"),
	}
	for round := 0; m.PendingCount() > 0; round++ {
		if err := m.DropPending(m.PendingIDs()[0]); err != nil {
			t.Fatal(err)
		}
		m.mu.RLock()
		snap := &possible.DB{State: m.db.State, Constraints: m.db.Constraints,
			Pending: append([]*relation.Transaction(nil), m.db.Pending...)}
		m.mu.RUnlock()
		unions := make([]*relation.Overlay, 4)
		var wg sync.WaitGroup
		for g := range unions {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				q := queries[g%len(queries)]
				res, err := m.Check(context.Background(), q, Options{Workers: 1 + g%2})
				if err != nil {
					t.Error(err)
					return
				}
				want, err := Check(context.Background(), snap, q, Options{Algorithm: AlgoExhaustive})
				if err != nil {
					t.Error(err)
					return
				}
				if res.Satisfied != want.Satisfied {
					t.Errorf("round %d: %s satisfied=%v on the Monitor, %v on a snapshot", round, q, res.Satisfied, want.Satisfied)
				}
				m.mu.RLock()
				unions[g] = m.union.Load()
				m.mu.RUnlock()
			}(g)
		}
		wg.Wait()
		for g, u := range unions {
			if u == nil || u != unions[0] {
				t.Fatalf("round %d: goroutine %d saw union %p, goroutine 0 %p", round, g, u, unions[0])
			}
		}
	}
}
