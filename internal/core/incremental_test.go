package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"blockchaindb/internal/fixture"
	"blockchaindb/internal/obs"
	"blockchaindb/internal/possible"
	"blockchaindb/internal/query"
	"blockchaindb/internal/relation"
)

// victimDB builds a deterministic two-component database: transaction
// "A" spends a committed output and pays VictimPk (the q-relevant
// component), transaction "Z" mints an unrelated output (a disjoint
// component the Covers filter skips for the victim query).
func victimDB(t *testing.T) *possible.DB {
	t.Helper()
	s := fixture.BitcoinSchema()
	cons := fixture.BitcoinConstraints(s)
	s.MustInsert("TxOut", fixture.TxOut(1, 1, "U0Pk", 1))
	s.MustInsert("TxOut", fixture.TxOut(1, 2, "U1Pk", 1))
	z := relation.NewTransaction("Z").
		Add("TxOut", fixture.TxOut(90, 1, "U3Pk", 1))
	a := relation.NewTransaction("A").
		Add("TxIn", fixture.TxIn(1, 1, "U0Pk", 1, 91, "U0Sig")).
		Add("TxOut", fixture.TxOut(91, 1, "VictimPk", 1))
	return possible.MustNew(s, cons, []*relation.Transaction{z, a})
}

var victimQuery = "q() :- TxOut(t, s, 'VictimPk', a)"

// checkWitnessWorld asserts the witness denotes a real violating world
// of the monitor's current database: the subset is reachable and its
// maximal world satisfies the query.
func checkWitnessWorld(t *testing.T, m *Monitor, q *query.Query, witness []int) {
	t.Helper()
	if !m.db.IsReachable(witness) {
		t.Fatalf("witness %v is not a reachable subset", witness)
	}
	world, _ := m.db.GetMaximal(witness)
	hit, err := query.Eval(q, world)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatalf("witness %v world does not satisfy %s", witness, q)
	}
}

// TestCacheHitReplaysWitnessAcrossCompaction: a violated component's
// verdict and witness replay from cache even after DropPending's
// swap-with-last compaction moved the witness transaction to a
// different slot — cached witnesses are external ids, not slot
// indexes.
func TestCacheHitReplaysWitnessAcrossCompaction(t *testing.T) {
	m := NewMonitor(victimDB(t))
	q := query.MustParse(victimQuery)
	opts := Options{Algorithm: AlgoOpt, DisablePrecheck: true}

	res1, err := m.Check(context.Background(), q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Satisfied {
		t.Fatal("expected a violation (A pays the victim)")
	}
	if res1.Stats.ComponentsCached != 0 {
		t.Fatalf("first check cached %d components, want 0", res1.Stats.ComponentsCached)
	}
	checkWitnessWorld(t, m, q, res1.Witness)

	// Drop Z (id 0, slot 0): A moves from slot 1 to slot 0.
	if err := m.DropPending(0); err != nil {
		t.Fatal(err)
	}
	res2, err := m.Check(context.Background(), q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Satisfied {
		t.Fatal("violation vanished after dropping an unrelated transaction")
	}
	if res2.Stats.ComponentsCached < 1 {
		t.Fatalf("second check cached %d components, want >=1 (A's component is untouched)",
			res2.Stats.ComponentsCached)
	}
	if len(res2.Witness) != 1 || res2.Witness[0] != 0 {
		t.Fatalf("witness = %v, want [0] (A compacted into slot 0)", res2.Witness)
	}
	checkWitnessWorld(t, m, q, res2.Witness)
}

// TestCommitInvalidatesCache: a commit mutates the state every cached
// verdict reads, so the whole cache is cleared — the next check misses,
// re-searches, and still agrees.
func TestCommitInvalidatesCache(t *testing.T) {
	m := NewMonitor(victimDB(t))
	q := query.MustParse(victimQuery)
	opts := Options{Algorithm: AlgoOpt, DisablePrecheck: true}

	if _, err := m.Check(context.Background(), q, opts); err != nil {
		t.Fatal(err)
	}
	res, err := m.Check(context.Background(), q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ComponentsCached < 1 {
		t.Fatalf("warm check cached %d components, want >=1", res.Stats.ComponentsCached)
	}
	cs := m.CacheStats()
	if cs.Generation != 0 || cs.Size == 0 {
		t.Fatalf("pre-commit cache stats: %+v", cs)
	}

	// Commit Z (id 0, a bare mint — always appendable).
	if err := m.Commit(0); err != nil {
		t.Fatal(err)
	}
	cs = m.CacheStats()
	if cs.Generation != 1 || cs.Size != 0 || cs.Invalidated == 0 {
		t.Fatalf("post-commit cache stats: %+v, want generation 1, empty, invalidated>0", cs)
	}
	res3, err := m.Check(context.Background(), q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Satisfied {
		t.Fatal("violation vanished after an unrelated commit")
	}
	if res3.Stats.ComponentsCached != 0 {
		t.Fatalf("post-commit check cached %d components, want 0 (cache was cleared)",
			res3.Stats.ComponentsCached)
	}
	checkWitnessWorld(t, m, q, res3.Witness)
}

// TestNonMonotonicQueryBypassesCache: a query with negation is not
// monotonic, routes to the exhaustive solver, and must never touch the
// verdict cache — per-component caching is only sound when the verdict
// decomposes over ind-q components, which requires monotonicity.
func TestNonMonotonicQueryBypassesCache(t *testing.T) {
	m := NewMonitor(victimDB(t))
	q := query.MustParse("q() :- TxOut(t, s, 'VictimPk', a), !TxOut(t, s, 'U0Pk', a)")
	if q.IsMonotonic() {
		t.Fatal("test query must be non-monotonic")
	}
	for i := 0; i < 2; i++ {
		res, err := m.Check(context.Background(), q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.ComponentsCached != 0 {
			t.Fatalf("non-monotonic check %d replayed %d cached components", i, res.Stats.ComponentsCached)
		}
	}
	cs := m.CacheStats()
	if cs.Hits != 0 || cs.Misses != 0 || cs.Stores != 0 {
		t.Fatalf("non-monotonic checks touched the cache: %+v", cs)
	}
}

// TestWithCacheDisabled: WithCache(0) turns caching off entirely.
func TestWithCacheDisabled(t *testing.T) {
	m := NewMonitor(victimDB(t), WithCache(0))
	q := query.MustParse(victimQuery)
	opts := Options{Algorithm: AlgoOpt, DisablePrecheck: true}
	for i := 0; i < 2; i++ {
		res, err := m.Check(context.Background(), q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Satisfied {
			t.Fatal("expected a violation")
		}
		if res.Stats.ComponentsCached != 0 {
			t.Fatalf("check %d cached %d components with caching disabled", i, res.Stats.ComponentsCached)
		}
	}
	if cs := m.CacheStats(); cs != (CacheStats{}) {
		t.Fatalf("disabled cache reports stats %+v", cs)
	}
}

// TestWithCacheEviction: WithCache bounds the number of per-query
// tables; a second query evicts the first query's table, verdicts and
// all, instead of growing the store without bound.
func TestWithCacheEviction(t *testing.T) {
	m := NewMonitor(victimDB(t), WithCache(1))
	opts := Options{Algorithm: AlgoOpt, DisablePrecheck: true}
	q1 := query.MustParse(victimQuery)
	q2 := query.MustParse("q() :- TxOut(t, s, 'U3Pk', a)")
	for i := 0; i < 2; i++ {
		if _, err := m.Check(context.Background(), q1, opts); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Check(context.Background(), q2, opts); err != nil {
			t.Fatal(err)
		}
	}
	cs := m.CacheStats()
	if cs.Tables != 1 || cs.Capacity != 1 {
		t.Fatalf("store holds %d tables at capacity %d, want 1 at 1", cs.Tables, cs.Capacity)
	}
	if cs.Evicted == 0 {
		t.Fatalf("no evictions under contention: %+v", cs)
	}
}

// TestSplitTableKeepsCurrentComponents: a split table (the query has an
// atom pair, so the sweep does not apply) keeps verdicts only for the
// query's current components. Dropping a member replaces its
// component's entry instead of leaving the old one behind.
func TestSplitTableKeepsCurrentComponents(t *testing.T) {
	s := fixture.BitcoinSchema()
	cons := fixture.BitcoinConstraints(s)
	var pending []*relation.Transaction
	for i := int64(1); i <= 3; i++ {
		s.MustInsert("TxOut", fixture.TxOut(1, i, "U0Pk", 1))
		pending = append(pending, relation.NewTransaction(fmt.Sprintf("T%d", i)).
			Add("TxIn", fixture.TxIn(1, i, "U0Pk", 1, 10+i, "U0Sig")).
			Add("TxOut", fixture.TxOut(10+i, 1, "U1Pk", 1)))
	}
	// B spends A's output, so A and B share one Θ_I component.
	pending = append(pending, relation.NewTransaction("B").
		Add("TxIn", fixture.TxIn(11, 1, "U1Pk", 1, 20, "U1Sig")).
		Add("TxOut", fixture.TxOut(20, 1, "U2Pk", 1)))
	m := NewMonitor(possible.MustNew(s, cons, pending))
	q := query.MustParse("q() :- TxIn(pt, ps, pk, a, nt, sig), TxOut(nt, s2, 'NoSuchPk', a2)")
	opts := Options{Algorithm: AlgoOpt, DisablePrecheck: true, DisableCoverFilter: true}
	check := func(step string) {
		t.Helper()
		res, err := m.Check(context.Background(), q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Satisfied || res.Stats.SweepReplays != 0 {
			t.Fatalf("%s: satisfied=%v sweep replays=%d, want a satisfied split check",
				step, res.Satisfied, res.Stats.SweepReplays)
		}
		if cs := m.CacheStats(); cs.Size != res.Stats.Components {
			t.Fatalf("%s: store holds %d verdicts for %d current components: %+v",
				step, cs.Size, res.Stats.Components, cs)
		}
	}
	check("cold")
	if err := m.DropPending(3); err != nil { // B
		t.Fatal(err)
	}
	check("after drop")
	if cs := m.CacheStats(); cs.Hits != 2 || cs.Evicted != 1 {
		t.Fatalf("after drop: %+v, want 2 hits (the untouched components) and 1 verdict dropped", cs)
	}
}

// TestSweepRecomputeSkipsSplitTable: a sweep table stores each
// recomputed root's verdict once, so the recompute after an AddPending
// neither looks up nor stores a split verdict.
func TestSweepRecomputeSkipsSplitTable(t *testing.T) {
	m := NewMonitor(victimDB(t))
	q := query.MustParse(victimQuery)
	opts := Options{Algorithm: AlgoOpt, DisablePrecheck: true}
	if _, err := m.Check(context.Background(), q, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddPending(relation.NewTransaction("N").
		Add("TxOut", fixture.TxOut(95, 1, "VictimPk", 1))); err != nil {
		t.Fatal(err)
	}
	res, err := m.Check(context.Background(), q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SweepReplays == 0 {
		t.Fatal("warm check replayed nothing: the sweep did not answer")
	}
	if res.Stats.CacheMisses != 0 || res.Stats.CacheHits != 0 {
		t.Fatalf("sweep recompute touched a split table: %d hits, %d misses",
			res.Stats.CacheHits, res.Stats.CacheMisses)
	}
	if cs := m.CacheStats(); cs.Tables != 1 || cs.Size != res.Stats.Components {
		t.Fatalf("store %+v, want one table holding %d verdicts", cs, res.Stats.Components)
	}
}

// TestSweepReplayRecomputesJoinedRoot: a transaction that joins an
// existing component changes that component's membership without
// changing its root. The sweep's journal replay must recompute the
// root, whose verdict it already holds, rather than replay it: here the
// new member completes a reachable chain to the watched payee, so the
// verdict flips to violated.
func TestSweepReplayRecomputesJoinedRoot(t *testing.T) {
	s := fixture.BitcoinSchema()
	cons := fixture.BitcoinConstraints(s)
	// P mints an output and C spends it: one Θ_I component of two.
	// Z is an unrelated component of one.
	p := relation.NewTransaction("P").
		Add("TxOut", fixture.TxOut(50, 1, "APk", 1))
	c := relation.NewTransaction("C").
		Add("TxIn", fixture.TxIn(50, 1, "APk", 1, 51, "ASig")).
		Add("TxOut", fixture.TxOut(51, 1, "BPk", 1))
	z := relation.NewTransaction("Z").
		Add("TxOut", fixture.TxOut(90, 1, "U3Pk", 1))
	m := NewMonitor(possible.MustNew(s, cons, []*relation.Transaction{p, c, z}))
	q := query.MustParse("q() :- TxOut(t, s, 'WatchPk', a)")
	if !sweepEligible(q) {
		t.Fatal("query is not sweep-eligible")
	}
	opts := Options{Algorithm: AlgoOpt, DisablePrecheck: true}
	check := func() *Result {
		t.Helper()
		res, err := m.Check(context.Background(), q, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, step := range []string{"cold", "warm"} {
		if res := check(); !res.Satisfied {
			t.Fatalf("%s: violated before the chain reaches WatchPk", step)
		}
	}
	m.mu.RLock()
	root, _ := m.parts.Root(0)
	m.mu.RUnlock()
	// N spends C's output and pays WatchPk: it joins {P, C}, whose root
	// absorbs it.
	nID, err := m.AddPending(relation.NewTransaction("N").
		Add("TxIn", fixture.TxIn(51, 1, "BPk", 1, 52, "BSig")).
		Add("TxOut", fixture.TxOut(52, 1, "WatchPk", 1)))
	if err != nil {
		t.Fatal(err)
	}
	m.mu.RLock()
	joined, _ := m.parts.Root(nID)
	m.mu.RUnlock()
	if joined != root {
		t.Fatalf("N's component root is %d, want the existing root %d", joined, root)
	}
	res := check()
	if res.Satisfied {
		t.Fatal("the check after N joined replayed the component's stale satisfied verdict")
	}
	if res.Stats.SweepReplays == 0 {
		t.Fatal("the check did not answer from a sweep replay")
	}
	checkWitnessWorld(t, m, q, res.Witness)
	if want := []int{0, 1, nID}; fmt.Sprint(res.WitnessIDs) != fmt.Sprint(want) {
		t.Fatalf("witness ids %v, want %v", res.WitnessIDs, want)
	}
}

// TestSplitMissBuildsKeyOnce: a split-table miss followed by the store
// of its verdict builds the component's key once. The key build
// allocates three times (the id slice, the encoded bytes and the
// string) and the entry once.
func TestSplitMissBuildsKeyOnce(t *testing.T) {
	m := NewMonitor(victimDB(t))
	// The atom pair keeps the query off the sweep.
	q := query.MustParse("q() :- TxIn(pt, ps, pk, a, nt, sig), TxOut(nt, s2, 'VictimPk', a2)")
	env := checkEnv{mon: m}
	if env.useTable(q, Options{}, true) {
		t.Fatal("query went to a sweep table")
	}
	comp := []int{0, 1}
	var stats Stats
	m.mu.RLock()
	defer m.mu.RUnlock()
	allocs := testing.AllocsPerRun(100, func() {
		_, key, ok := env.cached(comp, &stats)
		if ok {
			t.Fatal("lookup hit: the previous run's entry survived")
		}
		env.remember(key, nil)
		env.table.mu.Lock()
		delete(env.table.byIDs, key) // the next run misses again
		env.table.mu.Unlock()
	})
	if allocs > 4 {
		t.Fatalf("miss + store made %.0f allocations, want at most 4", allocs)
	}
}

// TestWithObserverRoutesMonitorEvents: lifecycle events land in the
// journal passed via WithObserver.
func TestWithObserverRoutesMonitorEvents(t *testing.T) {
	j := obs.NewJournal(64)
	m := NewMonitor(victimDB(t), WithObserver(j))
	tx := relation.NewTransaction("N").
		Add("TxOut", fixture.TxOut(95, 1, "U2Pk", 1))
	id, err := m.AddPending(tx)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.DropPending(id); err != nil {
		t.Fatal(err)
	}
	types := map[string]int{}
	for _, e := range j.Snapshot() {
		types[e.Type]++
	}
	if types["monitor_add"] == 0 || types["monitor_drop"] == 0 {
		t.Fatalf("observer journal missing lifecycle events: %v", types)
	}
}

// TestCachedCheckEmitsJournalEvents: a cache replay appends
// check_cached_component to the flight recorder, correlated with the
// check's ID.
func TestCachedCheckEmitsJournalEvents(t *testing.T) {
	m := NewMonitor(victimDB(t))
	q := query.MustParse(victimQuery)
	opts := Options{Algorithm: AlgoOpt, DisablePrecheck: true}
	if _, err := m.Check(context.Background(), q, opts); err != nil {
		t.Fatal(err)
	}
	before := obs.DefaultJournal.TotalAppended()
	if _, err := m.Check(context.Background(), q, opts); err != nil {
		t.Fatal(err)
	}
	var cached, finish *obs.Event
	for _, e := range obs.DefaultJournal.Snapshot() {
		if e.Seq < before {
			continue
		}
		e := e
		switch e.Type {
		case "check_cached_component":
			cached = &e
		case "check_finish":
			finish = &e
		}
	}
	if cached == nil {
		t.Fatal("no check_cached_component event for a warm check")
	}
	if finish == nil || cached.Trace == 0 || cached.Trace != finish.Trace {
		t.Fatalf("cached event not correlated with its check: cached=%v finish=%v", cached, finish)
	}
}

// storeVariants builds one Monitor per verdict-store configuration the
// oracles cover, each over its own copy of d's state: the default
// store, a store of one table (evicted between the checks of different
// queries, sweep, split and aggregate alike), and the default store
// checked with two workers.
func storeVariants(d *possible.DB) []storeVariant {
	mon := func(opts ...MonitorOption) *Monitor {
		return NewMonitor(possible.MustNew(d.State.Clone(), d.Constraints, d.Pending), opts...)
	}
	return []storeVariant{
		{"default", mon(), Options{}},
		{"one table", mon(WithCache(1)), Options{}},
		{"workers 2", mon(), Options{Workers: 2}},
	}
}

type storeVariant struct {
	name string
	mon  *Monitor
	opts Options
}

// TestIncrementalEquivalentToColdCheck is the tentpole property test:
// across randomized add/drop/commit interleavings (including the
// commit path that rewrites slot indexes), a warm incremental Check —
// run twice, so the second run replays from the verdict store — always
// agrees with a cold exhaustive Check over a freshly constructed
// database, and every violation witness denotes a real reachable
// violating world. Every storeVariants Monitor sees the same deltas.
func TestIncrementalEquivalentToColdCheck(t *testing.T) {
	queries := []string{
		"q() :- TxOut(t, s, 'U0Pk', a)",
		"q() :- TxOut(t, s, 'U2Pk', a)",
		"q() :- TxIn(pt, ps, 'U1Pk', a, nt, sig), TxOut(nt, s2, pk2, a2)",
		"q(sum(a)) > 2 :- TxIn(pt, ps, pk, a, nt, sig)",
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		base := bitcoinLikeDB(r)
		variants := storeVariants(base)
		mirror := base.State.Clone()
		type slot struct {
			id int
			tx *relation.Transaction
		}
		var pend []slot
		for i, tx := range base.Pending {
			pend = append(pend, slot{id: i, tx: tx})
		}
		nextID := len(base.Pending)
		nextTxNum := int64(100)

		freshDB := func() *possible.DB {
			txs := make([]*relation.Transaction, len(pend))
			for i, s := range pend {
				txs[i] = s.tx
			}
			return possible.MustNew(mirror.Clone(), base.Constraints, txs)
		}
		agree := func(step string) bool {
			fresh := freshDB()
			for _, src := range queries {
				q := query.MustParse(src)
				cold, err := Check(context.Background(), fresh, q, Options{Algorithm: AlgoExhaustive})
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range variants {
					warm1, err := v.mon.Check(context.Background(), q, v.opts)
					if err != nil {
						t.Fatal(err)
					}
					warm2, err := v.mon.Check(context.Background(), q, v.opts)
					if err != nil {
						t.Fatal(err)
					}
					if warm1.Satisfied != cold.Satisfied || warm2.Satisfied != cold.Satisfied {
						t.Logf("seed %d %s %s: %s warm=%v/%v cold=%v", seed, v.name, step, src,
							warm1.Satisfied, warm2.Satisfied, cold.Satisfied)
						return false
					}
					if !warm2.Satisfied {
						checkWitnessWorld(t, v.mon, q, warm2.Witness)
					}
				}
			}
			return true
		}
		mon := variants[0].mon

		if !agree("initial") {
			return false
		}
		for step := 0; step < 6; step++ {
			switch r.Intn(3) {
			case 0: // add
				owner := fmt.Sprintf("U%dPk", r.Intn(3))
				tx := relation.NewTransaction(fmt.Sprintf("N%d", nextID)).
					Add("TxIn", fixture.TxIn(1, int64(r.Intn(4)+1), owner, 1, nextTxNum, owner+"Sig")).
					Add("TxOut", fixture.TxOut(nextTxNum, 1, fmt.Sprintf("U%dPk", r.Intn(4)), 1))
				nextTxNum++
				norm, err := mirror.NormalizeTransaction(tx)
				if err != nil {
					t.Fatal(err)
				}
				id := nextID
				for _, v := range variants {
					if got, err := v.mon.AddPending(tx); err != nil || got != id {
						t.Fatalf("%s: AddPending = %d, %v; want id %d", v.name, got, err, id)
					}
				}
				pend = append(pend, slot{id: id, tx: norm})
				nextID++
			case 1: // drop (rewrites slots via swap-with-last)
				if len(pend) == 0 {
					continue
				}
				i := r.Intn(len(pend))
				for _, v := range variants {
					if err := v.mon.DropPending(pend[i].id); err != nil {
						t.Fatal(err)
					}
				}
				pend = append(pend[:i], pend[i+1:]...)
			case 2: // commit (rewrites slots AND clears the verdict store)
				if len(pend) == 0 {
					continue
				}
				i := r.Intn(len(pend))
				if !mon.Appendable(pend[i].id) {
					continue
				}
				for _, v := range variants {
					if err := v.mon.Commit(pend[i].id); err != nil {
						t.Fatal(err)
					}
				}
				if err := mirror.InsertTransaction(pend[i].tx); err != nil {
					t.Fatal(err)
				}
				pend = append(pend[:i], pend[i+1:]...)
			}
			if !agree(fmt.Sprintf("step %d", step)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestConcurrentCheckAddPendingWithCache hammers the verdict store with
// concurrent warm Checks (serial and parallel) racing mutations — run
// under -race in CI. Correctness of interleaved verdicts is covered by
// the property test; this one is about data races and deadlocks on the
// shared tables, a sweep table and a split table.
func TestConcurrentCheckAddPendingWithCache(t *testing.T) {
	mon := NewMonitor(victimDB(t))
	// VictimPk never appears in the committed state, so the verdict
	// hinges on the pending components and the search actually reaches
	// the store (a state-satisfied query is decided before it). The
	// join's atom pair sends it to a split table.
	queries := []*query.Query{
		query.MustParse(victimQuery),
		query.MustParse("q() :- TxIn(pt, ps, pk, a, nt, sig), TxOut(nt, s2, 'VictimPk', a2)"),
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		workers := 1 + 3*w // one serial checker, one parallel
		wg.Add(1)
		go func() {
			defer wg.Done()
			opts := Options{
				Algorithm: AlgoOpt, DisablePrecheck: true, Workers: workers,
			}
			for i := 0; i < 40; i++ {
				if _, err := mon.Check(context.Background(), queries[i%2], opts); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		nextTx := int64(500)
		var ids []int
		for i := 0; i < 60; i++ {
			switch {
			case len(ids) > 4 && i%3 == 0:
				if err := mon.DropPending(ids[0]); err != nil {
					t.Error(err)
					return
				}
				ids = ids[1:]
			case len(ids) > 0 && i%7 == 0:
				id := ids[len(ids)-1]
				if mon.Appendable(id) {
					if err := mon.Commit(id); err != nil {
						t.Error(err)
						return
					}
					ids = ids[:len(ids)-1]
				}
			default:
				tx := relation.NewTransaction(fmt.Sprintf("C%d", i)).
					Add("TxOut", fixture.TxOut(nextTx, 1, fmt.Sprintf("U%dPk", i%4), 1))
				nextTx++
				id, err := mon.AddPending(tx)
				if err != nil {
					t.Error(err)
					return
				}
				ids = append(ids, id)
			}
		}
	}()
	wg.Wait()
	// Sanity: the store actually saw traffic during the race, split
	// lookups included.
	if cs := mon.CacheStats(); cs.Stores == 0 || cs.Hits+cs.Misses == 0 {
		t.Fatalf("store saw no traffic: %+v", cs)
	}
}

// FuzzMonitorVerdicts drives a Monitor with a verdict store of one to
// three tables through fuzz-chosen add/drop/commit/check sequences over
// a bitcoinLikeDB. Every Monitor.Check verdict must equal the stateless
// Check on a snapshot of the same database, and every witness must be a
// reachable set on which q holds. The queries cover both selectors and
// an aggregate: two sweep-eligible single atoms, a join (split) and a
// sum.
func FuzzMonitorVerdicts(f *testing.F) {
	f.Add(int64(1), []byte{3, 7, 11, 15})
	f.Add(int64(7), []byte{1, 0, 4, 3, 7, 1, 3, 2, 11, 0, 8, 15, 3, 7, 11})
	f.Add(int64(42), []byte{2, 0, 0, 0, 3, 7, 11, 15, 1, 3, 7, 11, 15, 2, 3, 7, 11, 15})
	queries := []*query.Query{
		query.MustParse("q() :- TxOut(t, s, 'U0Pk', a)"),
		query.MustParse("q() :- TxOut(t, s, 'U2Pk', a)"),
		query.MustParse("q() :- TxIn(pt, ps, 'U1Pk', a, nt, sig), TxOut(nt, s2, pk2, a2)"),
		query.MustParse("q(sum(a)) > 2 :- TxIn(pt, ps, pk, a, nt, sig)"),
	}
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		capacity := 1
		if len(ops) > 0 {
			capacity += int(ops[0]) % 3
			ops = ops[1:]
		}
		mon := NewMonitor(bitcoinLikeDB(rand.New(rand.NewSource(seed))), WithCache(capacity))
		ids := mon.PendingIDs()
		nextTx := int64(100)
		for step, op := range ops {
			arg := int(op / 4)
			switch op % 4 {
			case 0: // add: spend a committed, a base pending or the previous new output
				owner := fmt.Sprintf("U%dPk", arg%3)
				prev := []int64{1, 2, 3, nextTx - 1}[arg/3%4]
				id, err := mon.AddPending(relation.NewTransaction(fmt.Sprintf("F%d", nextTx)).
					Add("TxIn", fixture.TxIn(prev, int64(arg%4+1), owner, 1, nextTx, owner+"Sig")).
					Add("TxOut", fixture.TxOut(nextTx, 1, fmt.Sprintf("U%dPk", arg%4), 1)))
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, id)
				nextTx++
			case 1: // drop
				if len(ids) == 0 {
					continue
				}
				i := arg % len(ids)
				if err := mon.DropPending(ids[i]); err != nil {
					t.Fatal(err)
				}
				ids = append(ids[:i], ids[i+1:]...)
			case 2: // commit an appendable transaction
				if len(ids) == 0 {
					continue
				}
				i := arg % len(ids)
				if !mon.Appendable(ids[i]) {
					continue
				}
				if err := mon.Commit(ids[i]); err != nil {
					t.Fatal(err)
				}
				ids = append(ids[:i], ids[i+1:]...)
			case 3: // check, serial or with two workers
				q := queries[arg%len(queries)]
				opts := Options{Workers: 1 + arg/len(queries)%2}
				got, err := mon.Check(context.Background(), q, opts)
				if err != nil {
					t.Fatal(err)
				}
				mon.mu.RLock()
				snap := &possible.DB{State: mon.db.State, Constraints: mon.db.Constraints, Pending: mon.db.Pending}
				want, err := Check(context.Background(), snap, q, opts)
				if err == nil && !got.Satisfied {
					err = checkViolation(snap, q, got.Witness)
				}
				mon.mu.RUnlock()
				if err != nil {
					t.Fatalf("step %d %s: %v", step, q, err)
				}
				if got.Satisfied != want.Satisfied {
					t.Fatalf("step %d %s: monitor satisfied=%v, stateless %v", step, q, got.Satisfied, want.Satisfied)
				}
			}
		}
	})
}
