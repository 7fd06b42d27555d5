package core

import (
	"encoding/binary"
	"sort"
	"sync"
	"time"

	"blockchaindb/internal/obs"
	"blockchaindb/internal/query"
)

// Incremental DCSat (the delta-aware layer over OptDCSat).
//
// A Monitor in steady state re-runs the same denial constraints after
// every mempool delta, but a single added or dropped transaction
// changes the membership of at most a few ind-q components — the rest
// re-enter cliqueDCSat only to redo a search whose inputs are
// byte-identical to the previous tick's. The incremental layer caches
// per-component verdicts under the key
//
//	key = query fingerprint × component member ids
//
// where the query fingerprint is the simplified query's canonical
// string and the member ids are the Monitor's external ids, sorted.
// Ids identify content: the Monitor never reuses an id and a pending
// transaction is immutable once added, so equal ids mean equal
// members. AddPending/DropPending therefore invalidate exactly the
// components whose membership changed — a changed component has a new
// id set and simply misses; the untouched components hit and skip
// graph build, clique enumeration, and world evaluation entirely.
// Commit mutates the state R that every per-component search reads
// (GetMaximal overlays, liveness, the R-side of fd conflicts), so it
// clears the cache outright rather than guess which verdicts survive.
//
// Soundness boundaries, in one place:
//
//   - Only cliqueDCSat consults the cache, and cliqueDCSat rejects
//     non-monotonic queries up front — so queries whose verdict could
//     not be decomposed per component (AlgoExhaustive, AlgoFDOnly)
//     structurally bypass the cache.
//   - The covers filter runs before the lookup, so a cached entry
//     always records a real search, never a filtered skip.
//   - Verdicts are stored only on error-free searches: a component cut
//     short by cancellation has proven nothing and caches nothing.
//   - Witnesses are stored as external ids, as the sweep stores them,
//     not as slot indexes — slots are rewritten by the
//     DropPending/Commit swap-with-last compaction, so a hit maps the
//     ids onto whatever slots the members occupy now.

// componentCache is what cliqueDCSat needs from a verdict cache: given
// the query fingerprint and a component (global pending indexes),
// either replay a previous verdict or record a fresh one. The Monitor
// supplies monitorCacheView; the stateless Check runs with nil.
type componentCache interface {
	lookup(qfp string, comp []int) (violated bool, witness []int, ok bool)
	store(qfp string, comp []int, violated bool, witness []int)
}

// checkEnv bundles the per-check plumbing threaded from checkContext
// down through cliqueDCSat into the component search: the fd-graph
// hook, the maintained component-split hook, the delta sweeper, the
// verdict cache, the query fingerprint, the compiled query plan every
// per-world evaluation reuses, and the check ID journal events
// correlate on.
type checkEnv struct {
	fdGraph    fdGraphFn
	components componentsFn
	sweep      *monitorSweeper
	cache      componentCache
	qfp        string
	plan       *query.Plan
	checkID    uint64
}

// verdictEntry is one cached per-component outcome. witness holds
// external ids, set only when violated.
type verdictEntry struct {
	violated bool
	witness  []int
}

// verdictCache is a bounded FIFO map guarded by its own mutex — Checks
// run under the Monitor's read lock, so concurrent Checks (and the
// workers they spawn) hit the cache concurrently. FIFO rather than LRU
// keeps the hot path to one short critical section; with a capacity in
// the thousands and tens of components per check, eviction order is
// noise.
type verdictCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]verdictEntry
	fifo    []string // insertion order of the keys in entries

	hits, misses, stores, evicted, invalidated uint64
	generation                                 uint64 // bumped on every invalidateAll
}

// defaultCacheCap bounds the verdict cache when the Monitor is built
// without WithCache: ~room for hundreds of queries × tens of
// components, at a few dozen bytes per entry.
const defaultCacheCap = 4096

func newVerdictCache(capacity int) *verdictCache {
	return &verdictCache{
		cap:     capacity,
		entries: make(map[string]verdictEntry, capacity),
	}
}

func (c *verdictCache) get(key string) (verdictEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return e, ok
}

func (c *verdictCache) put(key string, e verdictEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stores++
	if _, exists := c.entries[key]; exists {
		c.entries[key] = e // refresh in place; fifo already lists the key
		return
	}
	for len(c.entries) >= c.cap && len(c.fifo) > 0 {
		oldest := c.fifo[0]
		c.fifo = c.fifo[1:]
		if _, ok := c.entries[oldest]; ok {
			delete(c.entries, oldest)
			c.evicted++
			mCacheInvalidated.Inc()
		}
	}
	c.entries[key] = e
	c.fifo = append(c.fifo, key)
}

// invalidateAll drops every entry and bumps the generation. Called
// under the Monitor's write lock on Commit (and external commits):
// state mutations stale every per-component verdict at once.
func (c *verdictCache) invalidateAll() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.entries)
	if n > 0 {
		c.entries = make(map[string]verdictEntry, c.cap)
		c.fifo = c.fifo[:0]
	}
	c.invalidated += uint64(n)
	c.generation++
	mCacheInvalidated.Add(int64(n))
	return n
}

func (c *verdictCache) snapshot() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Size:        len(c.entries),
		Capacity:    c.cap,
		Hits:        c.hits,
		Misses:      c.misses,
		Stores:      c.stores,
		Evicted:     c.evicted,
		Invalidated: c.invalidated,
		Generation:  c.generation,
	}
}

// CacheStats is a point-in-time snapshot of the Monitor's incremental
// verdict cache, for dashboards and the bcnode status output.
type CacheStats struct {
	Size        int    // entries currently cached
	Capacity    int    // configured bound
	Hits        uint64 // lookups answered from cache
	Misses      uint64 // lookups that fell through to a real search
	Stores      uint64 // verdicts written (including refreshes)
	Evicted     uint64 // entries dropped by the FIFO bound
	Invalidated uint64 // entries cleared by commits
	Generation  uint64 // number of full invalidations so far
}

// monitorCacheView adapts a Monitor to the componentCache interface.
// It is created per Check under the read lock, so m.ids, m.byID and the
// slot layout are frozen for its lifetime; only the verdictCache
// itself (internally locked) is shared across concurrent Checks.
type monitorCacheView struct {
	m *Monitor
}

// cacheKey is the query fingerprint followed by the component's
// external ids, sorted and uvarint-encoded. The encoding is exact — a
// hash collision would replay another component's verdict.
func (v monitorCacheView) cacheKey(qfp string, comp []int) string {
	ids := make([]int, len(comp))
	for i, slot := range comp {
		ids[i] = v.m.ids[slot]
	}
	sort.Ints(ids)
	key := append(make([]byte, 0, len(qfp)+1+2*len(ids)), qfp...)
	key = append(key, 0)
	for _, id := range ids {
		key = binary.AppendUvarint(key, uint64(id))
	}
	return string(key)
}

func (v monitorCacheView) lookup(qfp string, comp []int) (bool, []int, bool) {
	e, ok := v.m.cache.get(v.cacheKey(qfp, comp))
	if !ok || !e.violated {
		return false, nil, ok
	}
	witness := make([]int, len(e.witness))
	for i, id := range e.witness {
		witness[i] = v.m.byID[id]
	}
	sort.Ints(witness)
	return true, witness, true
}

func (v monitorCacheView) store(qfp string, comp []int, violated bool, witness []int) {
	var ids []int
	if violated {
		ids = make([]int, len(witness))
		for i, slot := range witness {
			ids[i] = v.m.ids[slot]
		}
	}
	v.m.cache.put(v.cacheKey(qfp, comp), verdictEntry{violated: violated, witness: ids})
}

// cached replays a component's verdict from the cache (journaled as
// check_cached_component): ok reports a hit, and the outcome is nil for
// a satisfied component. With no cache in the env every lookup misses
// uncounted.
func (env checkEnv) cached(comp []int, stats *Stats) (o *searchOutcome, ok bool) {
	if env.cache == nil {
		return nil, false
	}
	violated, witness, ok := env.cache.lookup(env.qfp, comp)
	if !ok {
		stats.CacheMisses++
		mCacheMisses.Inc()
		return nil, false
	}
	stats.ComponentsCached++
	stats.CacheHits++
	mCacheHits.Inc()
	obs.DefaultJournal.Append(obs.EvCachedComponent, env.checkID, "",
		obs.F("members", len(comp)),
		obs.F("violated", violated))
	if violated {
		return &searchOutcome{hit: true, witness: witness}, true
	}
	return nil, true
}

// remember stores a finished search's verdict. A search that ended in
// an error, cancellation included, has proven nothing and stores
// nothing.
func (env checkEnv) remember(comp []int, o *searchOutcome) {
	if env.cache == nil || (o != nil && o.err != nil) {
		return
	}
	if o == nil {
		env.cache.store(env.qfp, comp, false, nil)
		return
	}
	env.cache.store(env.qfp, comp, true, o.witness)
}

// buildGraph builds a component's fd graph, timed as GraphBuildDur.
func (env checkEnv) buildGraph(comp []int, stats *Stats) *fdCompGraph {
	start := time.Now()
	cg := env.fdGraph(comp)
	stats.GraphBuildDur += time.Since(start)
	return cg
}
