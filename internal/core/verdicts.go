package core

import (
	"context"
	"encoding/binary"
	"sync"
	"sync/atomic"
	"time"

	"blockchaindb/internal/obs"
	"blockchaindb/internal/possible"
	"blockchaindb/internal/query"
)

// Per-component verdict reuse: the delta-aware layer over OptDCSat.
//
// A Monitor in steady state re-runs the same denial constraints after
// every mempool delta, but one added or dropped transaction changes the
// membership of at most a few ind-q components. Proposition 2 decides a
// monotone constraint one component at a time, so the Monitor keeps
// each component's verdict and replays it while the component is
// unchanged.
//
// The verdictStore holds one verdictTable per (simplified query,
// selector, DisableCoverFilter), and bounds the number of tables with
// FIFO eviction. A table keeps verdicts only for its query's current
// components. Two selectors decide how a check finds them:
//
//   - The sweep, for queries whose ind-q split provably equals the
//     maintained Θ_I partition (sweepEligible). Entries are keyed by
//     partition root and carry the root's membership stamp. A check
//     reconciles only the roots the mutation journal logged since the
//     table's last complete reconcile, so a warm single-delta check
//     touches the delta's component and nothing else, whatever |T| is.
//   - The split, for every other clique query. Entries are keyed by the
//     component's sorted live external ids, uvarint-encoded. Each check
//     takes an epoch from the table and stamps every entry it looks up
//     or stores. A check that ends without error re-stamps the groups it
//     never reached because it stopped at a violation, then drops every
//     entry with an older stamp: a table holds at most the query's
//     current component count.
//
// Soundness, in one place:
//
//   - Keys are exact. The Monitor never reuses an id and a pending
//     transaction is immutable once added, so equal ids mean equal
//     members; a root's stamp changes whenever its membership does.
//   - Commit and CommitExternal grow the state R that every search reads
//     (GetMaximal overlays, liveness, the R side of fd conflicts), so
//     they clear the whole store.
//   - Only cliqueDCSat consults the store, and it rejects non-monotonic
//     queries, whose verdicts do not decompose per component.
//   - The covers filter runs before a split lookup, so an entry always
//     records a real search, never a filtered skip.
//   - Verdicts come only from error-free searches: a component cut short
//     by cancellation has proven nothing and stores nothing. An
//     interrupted sweep leaves its table's seenSeq unadvanced, and
//     re-processing a logged root is idempotent thanks to the stamps.
//   - Witnesses are stored as external ids and mapped to the slots the
//     members occupy at answer time, so the swap-with-last compaction of
//     DropPending and Commit cannot stale them.
//   - Sweep eligibility: the simplified query is connected, contributes
//     no Θ_q equality constraints and has no atom pairs, so the ind-q
//     split adds no query edges and its state-bridge closure cannot run.
//     A dead transaction can still bridge two live groups that the
//     from-scratch split keeps apart; a coarser split only merges search
//     units, which Proposition 2 allows.

// defaultTableCap bounds the store when the Monitor is built without
// WithCache: room for dozens of standing queries.
const defaultTableCap = 64

// tableKey names one verdict table.
type tableKey struct {
	qfp     string // the simplified query's canonical text
	sweep   bool   // the sweep selector; otherwise the split
	noCover bool   // Options.DisableCoverFilter
}

// verdictStore is the Monitor's one verdict store. Its mutex guards
// the table map only: checks run under the Monitor's read lock and
// work inside a table under the table's own lock (lock order: store
// before table). Commits clear it under the Monitor's write lock.
type verdictStore struct {
	mu     sync.Mutex
	cap    int
	tables map[tableKey]*verdictTable
	order  []tableKey // insertion order of the keys in tables

	hits, misses, stores, evicted atomic.Uint64
	invalidated, generation       uint64 // guarded by mu
}

func newVerdictStore(capacity int) *verdictStore {
	return &verdictStore{cap: capacity, tables: make(map[tableKey]*verdictTable)}
}

// table returns the table for k, creating it and evicting the oldest
// tables past the bound. A check still holding an evicted table
// finishes on it; its verdicts are then dropped with it. The evicted
// verdicts are counted after the store's lock is released, so a long
// sweep in an evicted table stalls only this caller.
func (s *verdictStore) table(k tableKey) *verdictTable {
	s.mu.Lock()
	t := s.tables[k]
	var evicted []*verdictTable
	if t == nil {
		for len(s.order) >= s.cap {
			evicted = append(evicted, s.tables[s.order[0]])
			delete(s.tables, s.order[0])
			s.order = s.order[1:]
		}
		t = &verdictTable{}
		s.tables[k] = t
		s.order = append(s.order, k)
	}
	s.mu.Unlock()
	for _, old := range evicted {
		n := old.size()
		s.evicted.Add(uint64(n))
		mCacheInvalidated.Add(int64(n))
	}
	return t
}

// clear drops every table and returns how many verdicts went with them.
func (s *verdictStore) clear() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, t := range s.tables {
		n += t.size()
	}
	s.tables = make(map[tableKey]*verdictTable)
	s.order = s.order[:0]
	s.invalidated += uint64(n)
	s.generation++
	mCacheInvalidated.Add(int64(n))
	return n
}

func (s *verdictStore) snapshot() CacheStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	cs := CacheStats{
		Tables:      len(s.tables),
		Capacity:    s.cap,
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Stores:      s.stores.Load(),
		Evicted:     s.evicted.Load(),
		Invalidated: s.invalidated,
		Generation:  s.generation,
	}
	for _, t := range s.tables {
		cs.Size += t.size()
	}
	return cs
}

// CacheStats is a point-in-time snapshot of a Monitor's verdict store,
// for dashboards and the bcnode status output.
type CacheStats struct {
	Size        int    // verdicts held, over all tables
	Tables      int    // per-query tables held
	Capacity    int    // configured bound on tables
	Hits        uint64 // split lookups answered from the store
	Misses      uint64 // split lookups that fell through to a real search
	Stores      uint64 // verdicts written, by either selector
	Evicted     uint64 // verdicts dropped by the table bound or the split retention rule
	Invalidated uint64 // verdicts cleared by commits
	Generation  uint64 // number of commit clears so far
}

// verdictEntry is one component's verdict. witness holds external ids,
// set only when violated.
type verdictEntry struct {
	stamp    uint64 // sweep: the root's membership stamp; split: the epoch of its latest check
	searched bool   // sweep: the component passed the live and covers filters
	violated bool
	witness  []int
}

// verdictTable holds one query's verdicts for its current components.
// A sweep table keys them by partition root, a split table by sorted
// live ids; each table fills only the map of its selector.
type verdictTable struct {
	mu     sync.Mutex
	byRoot map[int]*verdictEntry
	byIDs  map[string]*verdictEntry

	// Sweep selector: m.logSeq as of the last complete reconcile, the
	// roots with violated verdicts, and the count of searched verdicts.
	seenSeq  uint64
	violated map[int]struct{}
	nCovered int

	// Split selector: the epoch handed to the latest check.
	epoch atomic.Uint64
}

func (t *verdictTable) size() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.byRoot) + len(t.byIDs)
}

// checkEnv bundles the per-check plumbing threaded from checkContext
// down through cliqueDCSat into the component search: the database's
// prepared view, the Monitor (nil for the stateless Check), the split
// table and this check's epoch in it (nil and zero when the check
// reuses no verdicts), the compiled query plan every per-world
// evaluation reuses with the simplified query's canonical text, and
// the check ID journal events correlate on. wholeLive is set when the
// check searches all of view.live() as one group, whose root the view
// may hold (preparedView.liveRoot).
type checkEnv struct {
	view      preparedView
	mon       *Monitor
	table     *verdictTable
	epoch     uint64
	plan      *query.Plan
	qtext     string
	checkID   uint64
	wholeLive bool
}

// buildGraph builds a component's fd graph from the view's conflict
// adjacency, timed as GraphBuildDur.
func (env checkEnv) buildGraph(comp []int, stats *Stats) *fdCompGraph {
	start := time.Now()
	cg := fdGraphFromConflicts(comp, env.view)
	stats.GraphBuildDur += time.Since(start)
	return cg
}

// useTable picks the check's verdict table once q is simplified and
// env.qtext set. It reports whether the table is a sweep table; a split
// table also hands the check its epoch.
func (env *checkEnv) useTable(q *query.Query, opts Options, optimized bool) (sweep bool) {
	if env.mon == nil || env.mon.store == nil {
		return false
	}
	sweep = optimized && sweepEligible(q)
	env.table = env.mon.store.table(tableKey{qfp: env.qtext, sweep: sweep, noCover: opts.DisableCoverFilter})
	if !sweep {
		env.epoch = env.table.epoch.Add(1)
	}
	return sweep
}

// splitKey is a component's sorted external ids, uvarint-encoded. The
// encoding is exact: a hash collision would replay another component's
// verdict.
func (env checkEnv) splitKey(comp []int) string {
	ids := env.mon.idsForSlotsLocked(comp)
	key := make([]byte, 0, 2*len(ids))
	for _, id := range ids {
		key = binary.AppendUvarint(key, uint64(id))
	}
	return string(key)
}

// stamp returns the split entry under key, stamping it with the check's
// epoch.
func (env checkEnv) stamp(key string) *verdictEntry {
	t := env.table
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.byIDs[key]
	if e != nil && e.stamp < env.epoch {
		e.stamp = env.epoch
	}
	return e
}

// cached replays a component's verdict from the split table (journaled
// as check_cached_component): ok reports a hit, and the outcome is nil
// for a satisfied component. On a miss it returns the component's key
// for remember. With no table every lookup misses uncounted.
func (env checkEnv) cached(comp []int, stats *Stats) (o *searchOutcome, key string, ok bool) {
	if env.table == nil {
		return nil, "", false
	}
	key = env.splitKey(comp)
	e := env.stamp(key)
	if e == nil {
		stats.CacheMisses++
		env.mon.store.misses.Add(1)
		mCacheMisses.Inc()
		return nil, key, false
	}
	stats.ComponentsCached++
	stats.CacheHits++
	env.mon.store.hits.Add(1)
	mCacheHits.Inc()
	obs.DefaultJournal.Append(obs.EvCachedComponent, env.checkID, "",
		obs.F("members", len(comp)),
		obs.F("violated", e.violated))
	if !e.violated {
		return nil, key, true
	}
	return &searchOutcome{hit: true, witness: env.mon.slotsForIDsLocked(e.witness)}, key, true
}

// remember stores a finished search's verdict in the split table under
// the key its cached lookup returned. A search that ended in an error,
// cancellation included, has proven nothing and stores nothing.
func (env checkEnv) remember(key string, o *searchOutcome) {
	if env.table == nil || (o != nil && o.err != nil) {
		return
	}
	e := &verdictEntry{stamp: env.epoch}
	if o != nil {
		e.violated = true
		e.witness = env.mon.idsForSlotsLocked(o.witness)
	}
	t := env.table
	t.mu.Lock()
	if t.byIDs == nil {
		t.byIDs = make(map[string]*verdictEntry)
	}
	t.byIDs[key] = e
	t.mu.Unlock()
	env.mon.store.stores.Add(1)
}

// restamp marks the groups a check never reached, because it stopped at
// a violation, as still current.
func (env checkEnv) restamp(groups [][]int) {
	if env.table == nil {
		return
	}
	for _, comp := range groups {
		env.stamp(env.splitKey(comp))
	}
}

// retain ends an error-free split check: every entry this check did not
// stamp belongs to a component that no longer exists, and is dropped.
func (env checkEnv) retain() {
	if env.table == nil {
		return
	}
	t := env.table
	t.mu.Lock()
	n := 0
	for k, e := range t.byIDs {
		if e.stamp < env.epoch {
			delete(t.byIDs, k)
			n++
		}
	}
	t.mu.Unlock()
	env.mon.store.evicted.Add(uint64(n))
	mCacheInvalidated.Add(int64(n))
}

// sweepEligible reports whether the simplified query's ind-q split
// equals the maintained Θ_I partition (see the soundness list above).
func sweepEligible(q *query.Query) bool {
	return q.IsConnected() && len(q.EqualityConstraints()) == 0 && len(q.AtomPairs()) == 0
}

// sweep answers a check from a sweep table, reconciling it with the
// mutation journal first. Called under the Monitor's read lock, after
// cliqueDCSat's R-only check; an error from the search is returned
// as-is.
func (t *verdictTable) sweep(ctx context.Context, d *possible.DB, q *query.Query, opts Options, env checkEnv, res *Result) error {
	m := env.mon
	var targets []atomFilter
	if !opts.DisableCoverFilter {
		targets = coverTargets(d, q)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	replayed, recomputed := 0, 0
	behind := m.logSeq - t.seenSeq
	switch {
	case t.byRoot == nil || behind > uint64(len(m.changeLog)):
		// Cold table, or the journal was trimmed past what this table
		// has seen: rebuild over every current root, reusing any verdict
		// whose stamp still matches. The fresh maps are swapped in only
		// on full success, so a cancelled rebuild leaves the table
		// exactly as it was.
		mSweepRebuilds.Inc()
		fresh := &verdictTable{byRoot: make(map[int]*verdictEntry, m.parts.Components()), violated: make(map[int]struct{})}
		var rerr error
		m.parts.Roots(func(r int) bool {
			if rerr = ctx.Err(); rerr != nil {
				return false
			}
			v := t.byRoot[r]
			if v != nil && v.stamp == m.parts.Stamp(r) {
				replayed++
			} else if v, rerr = computeRoot(ctx, d, q, r, targets, opts, env, &res.Stats); rerr != nil {
				return false
			} else {
				recomputed++
			}
			fresh.setRoot(r, v)
			return true
		})
		if rerr != nil {
			return rerr
		}
		t.byRoot, t.violated, t.nCovered = fresh.byRoot, fresh.violated, fresh.nCovered
	case behind > 0:
		// Replay: reconcile exactly the roots logged since this table's
		// last complete pass. Entries are checked against the current
		// partition, so processing order and duplicates are harmless,
		// and an interrupted replay re-processes idempotently.
		for _, r := range m.changeLog[len(m.changeLog)-int(behind):] {
			if err := ctx.Err(); err != nil {
				return err
			}
			old := t.byRoot[r]
			if !m.parts.IsRoot(r) {
				t.setRoot(r, nil)
				continue
			}
			if old != nil && old.stamp == m.parts.Stamp(r) {
				continue
			}
			v, err := computeRoot(ctx, d, q, r, targets, opts, env, &res.Stats)
			if err != nil {
				return err
			}
			recomputed++
			t.setRoot(r, v)
		}
		replayed = max(len(t.byRoot)-recomputed, 0)
	default:
		replayed = len(t.byRoot)
	}
	t.seenSeq = m.logSeq
	m.store.stores.Add(uint64(recomputed))
	res.Stats.Components = len(t.byRoot)
	res.Stats.ComponentsCovered = t.nCovered
	res.Stats.ComponentsCached += replayed
	res.Stats.SweepReplays += replayed
	res.Stats.LivePending = m.liveCount
	mSweepReplayed.Add(int64(replayed))
	mSweepRecomputed.Add(int64(recomputed))
	if replayed > 0 {
		// One summarizing replay event per check, never one per root: a
		// 100k-component mempool must not append 100k journal entries.
		obs.DefaultJournal.Append(obs.EvCachedComponent, env.checkID, "",
			obs.F("sweep", true),
			obs.F("components", replayed),
			obs.F("violated", len(t.violated) > 0))
	}
	if len(t.violated) > 0 {
		res.Satisfied = false
		res.Witness = t.chooseWitness(m)
	}
	return nil
}

// setRoot replaces root r's sweep verdict with v; nil drops it.
func (t *verdictTable) setRoot(r int, v *verdictEntry) {
	if old := t.byRoot[r]; old != nil {
		delete(t.byRoot, r)
		delete(t.violated, r)
		if old.searched {
			t.nCovered--
		}
	}
	if v == nil {
		return
	}
	t.byRoot[r] = v
	if v.violated {
		t.violated[r] = struct{}{}
	}
	if v.searched {
		t.nCovered++
	}
}

// chooseWitness picks, among the violated components, the one the cold
// path would have reported: groups are searched in ascending order of
// their smallest live member slot, first violation wins. The witness
// ids are mapped onto current slots.
func (t *verdictTable) chooseWitness(m *Monitor) []int {
	best, bestMin := -1, -1
	for r := range t.violated {
		minSlot := -1
		for _, id := range m.parts.Members(r) {
			if !m.live[id] {
				continue
			}
			if s := m.byID[id]; minSlot < 0 || s < minSlot {
				minSlot = s
			}
		}
		if minSlot >= 0 && (best < 0 || minSlot < bestMin) {
			best, bestMin = r, minSlot
		}
	}
	if best < 0 {
		return nil
	}
	return m.slotsForIDsLocked(t.byRoot[best].witness)
}

// computeRoot produces a fresh verdict for one component root: filter
// the members by maintained liveness, apply the covers filter, and
// search on survival. The search runs with no split table, so the
// verdict is stored once, in the sweep table.
func computeRoot(ctx context.Context, d *possible.DB, q *query.Query, root int, targets []atomFilter, opts Options, env checkEnv, stats *Stats) (*verdictEntry, error) {
	m := env.mon
	v := &verdictEntry{stamp: m.parts.Stamp(root)}
	var live []int
	for _, id := range m.parts.Members(root) {
		if m.live[id] {
			live = append(live, id)
		}
	}
	if len(live) == 0 {
		return v, nil // all members dead: only R ⊆ world, already checked upstream
	}
	comp := m.slotsForIDsLocked(live)
	if !opts.DisableCoverFilter && !covers(d, comp, targets) {
		return v, nil
	}
	v.searched = true
	// One worker: a sweep reconciles many small components one at a
	// time, and splitting each across a pool would cost more in
	// goroutines than its walk.
	env.table = nil
	o := searchComponents(ctx, d, q, [][]int{comp}, nil, 1, env, stats)
	if o != nil && o.err != nil {
		return nil, o.err
	}
	if o != nil {
		v.violated = true
		v.witness = m.idsForSlotsLocked(o.witness)
	}
	return v, nil
}
