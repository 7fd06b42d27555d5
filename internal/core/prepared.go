package core

import (
	"sync"

	"blockchaindb/internal/possible"
	"blockchaindb/internal/query"
	"blockchaindb/internal/relation"
)

// preparedView is what a clique check reads about its database before
// it looks at the query: the structures Section 6.3 of the paper
// precomputes. The stateless Check gets a dbView, built once per
// database version and kept on the possible.DB; Monitor.Check gets a
// monitorView over the structures the Monitor maintains under its
// mutations. Either way the check reads the database's union, liveness,
// Θ_I partition, fd conflicts, live root and OptDCSat splits only
// through this interface.
type preparedView interface {
	// union returns R ∪ ∪T, which contains every possible world. It is
	// shared by concurrent checks and must not be modified.
	union() *relation.Overlay
	// live returns the fd-live pending slots, ascending: the
	// transactions that are fd-consistent internally and with R.
	live() []int
	// seeds returns groups of live transactions, as indexes into live(),
	// that are connected in G^ind_T. Groups of one are left out. The
	// partition they induce may be coarser than the Θ_I components of
	// the live transactions, never finer (see newIndQSplit).
	seeds() [][]int
	// appendConflicts appends to dst, once each, the pending slots whose
	// transactions fd-conflict with the one at slot.
	appendConflicts(dst []int, slot int) []int
	// liveRoot returns the root world of a clique search over all of
	// live(): the getMaximal fixpoint over the members of live() that
	// fd-conflict with no other live member. built reports whether this
	// call built it. A view that keeps no root returns nil.
	liveRoot() (root *possible.Root, built bool)
	// split returns OptDCSat's ind-q split of live() for the simplified
	// query q, whose canonical text is qtext. shared reports whether an
	// earlier check built it. The split is structure only: no part of
	// it evaluates q.
	split(q *query.Query, qtext string) (s *querySplit, shared bool)
}

// splitMemoCap bounds a dbView's memoized splits; at the cap the whole
// memo is dropped, as the plan cache does (query.PlanFor): a database
// is checked against a handful of standing queries, and a dropped split
// costs one rebuild.
const splitMemoCap = 256

// dbView is the stateless Check's prepared view. It is built from a
// snapshot of one database version (possible.DB.Prepared) and fills
// each part on first use, so the check that first needs a part pays for
// it inside the stage the part replaces: the union in the precheck,
// liveness in the live filter, the seeds in the component split, the
// conflicts in the fd-graph build, the live root in the world
// evaluation, a query's split in the component split. Concurrent checks
// build each part once.
type dbView struct {
	d *possible.DB // the snapshot the view is prepared from

	unionOnce, liveOnce, seedsOnce, adjOnce, rootOnce sync.Once

	unionOv    *relation.Overlay
	liveSlots  []int
	seedGroups [][]int
	adj        [][]int // pending slot -> its fd-conflicting slots
	root       *possible.Root

	splitMu sync.Mutex
	splits  map[string]*splitEntry // simplified query text -> its split; at most splitMemoCap
}

// splitEntry is one memoized split, built once under its own Once so
// that concurrent first checks of a query build it once.
type splitEntry struct {
	once sync.Once
	s    *querySplit
}

// prepare returns d's prepared view for its current version, creating
// it on the first check after a change.
func prepare(d *possible.DB) *dbView {
	return d.Prepared(func(snap *possible.DB) any { return &dbView{d: snap} }).(*dbView)
}

func (v *dbView) union() *relation.Overlay {
	v.unionOnce.Do(func() { v.unionOv = relation.NewOverlay(v.d.State, v.d.Pending...) })
	return v.unionOv
}

func (v *dbView) live() []int {
	v.liveOnce.Do(func() { v.liveSlots = liveTransactions(v.d) })
	return v.liveSlots
}

func (v *dbView) seeds() [][]int {
	v.seedsOnce.Do(func() { v.seedGroups = thetaISeeds(v.d, v.live()) })
	return v.seedGroups
}

func (v *dbView) appendConflicts(dst []int, slot int) []int {
	v.adjOnce.Do(func() {
		all := allPending(v.d)
		v.adj = make([][]int, len(all))
		for _, p := range fdConflictPairs(v.d, all) {
			v.adj[p[0]] = append(v.adj[p[0]], p[1])
			v.adj[p[1]] = append(v.adj[p[1]], p[0])
		}
	})
	return append(dst, v.adj[slot]...)
}

// liveRoot depends on the database alone: every maximal clique of the
// live set's fd graph contains its universal members, so the root world
// NaiveDCSat walks from is the same for every query.
func (v *dbView) liveRoot() (root *possible.Root, built bool) {
	v.rootOnce.Do(func() {
		built = true
		v.root = possible.NewRoot(v.d, fdGraphFromConflicts(v.live(), v).universal)
	})
	return v.root, built
}

// split memoizes each query's direct split for the view's database
// version: a query checked again on an unchanged database finds its
// groups without re-bucketing the live set.
func (v *dbView) split(q *query.Query, qtext string) (*querySplit, bool) {
	v.splitMu.Lock()
	e := v.splits[qtext]
	if e == nil {
		if v.splits == nil || len(v.splits) >= splitMemoCap {
			v.splits = make(map[string]*splitEntry)
		}
		e = &splitEntry{}
		v.splits[qtext] = e
	}
	v.splitMu.Unlock()
	shared := true
	e.once.Do(func() {
		shared = false
		e.s = newQuerySplit(newIndQSplit(v.d, v.live(), q, v.seeds()))
	})
	return e.s, shared
}

// monitorView is Monitor.Check's prepared view. It lives for one check,
// under the Monitor's read lock: the union is the Monitor's own (kept
// across checks, see Monitor.unionOverlay), liveness comes from m.live,
// the seeds from the maintained partition m.parts, and the conflicts
// from the maintained adjacency m.conflictAdj. live and seeds are
// filled on first use; it keeps no live root and memoizes no split.
type monitorView struct {
	m *Monitor

	liveOnce, seedsOnce sync.Once

	liveSlots  []int
	seedGroups [][]int
}

func (v *monitorView) union() *relation.Overlay { return v.m.unionOverlay() }

func (v *monitorView) live() []int {
	v.liveOnce.Do(func() {
		m := v.m
		v.liveSlots = make([]int, 0, m.liveCount)
		for slot, id := range m.ids {
			if m.live[id] {
				v.liveSlots = append(v.liveSlots, slot)
			}
		}
	})
	return v.liveSlots
}

// seeds groups the live slots by their component in the maintained
// partition. The partition covers ALL pending transactions while the
// seeds cover the live ones, so a dead transaction can bridge two live
// groups that a from-scratch pass would keep apart: coarser, never
// finer, as the seeds contract allows.
func (v *monitorView) seeds() [][]int {
	v.seedsOnce.Do(func() {
		m := v.m
		live := v.live()
		byRoot := make(map[int][]int, len(live))
		for local, slot := range live {
			// Every pending id has a partition entry.
			r, _ := m.parts.Root(m.ids[slot])
			byRoot[r] = append(byRoot[r], local)
		}
		for _, g := range byRoot {
			if len(g) > 1 {
				v.seedGroups = append(v.seedGroups, g)
			}
		}
	})
	return v.seedGroups
}

// liveRoot keeps no root: a Monitor's pending set changes between
// checks, so its searches build their roots as they go.
func (v *monitorView) liveRoot() (*possible.Root, bool) { return nil, false }

// split builds afresh on every call, for the same reason: the pending
// set a split was built over may be gone by the next check. The split
// is the check's own, so it keeps its indQSplit for the bridge.
func (v *monitorView) split(q *query.Query, _ string) (*querySplit, bool) {
	full := newIndQSplit(v.m.db, v.live(), q, v.seeds())
	s := newQuerySplit(full)
	s.full = full
	return s, false
}

func (v *monitorView) appendConflicts(dst []int, slot int) []int {
	m := v.m
	for oid := range m.conflictAdj[m.ids[slot]] {
		dst = append(dst, m.byID[oid])
	}
	return dst
}

// fdGraphFromConflicts assembles a component's fd graph from the
// view's conflict adjacency, sparsely: O(|comp| + conflicts incident
// to it). A component none of whose members has a conflict costs one
// adjacency probe per member.
func fdGraphFromConflicts(comp []int, view preparedView) *fdCompGraph {
	var (
		local map[int]int // slot -> index into comp, built at the first conflict
		pairs [][2]int
		buf   []int
	)
	for l, slot := range comp {
		buf = view.appendConflicts(buf[:0], slot)
		if len(buf) == 0 {
			continue
		}
		if local == nil {
			local = make(map[int]int, len(comp))
			for i, s := range comp {
				local[s] = i
			}
		}
		for _, o := range buf {
			if ol, ok := local[o]; ok && ol > l {
				pairs = append(pairs, [2]int{l, ol})
			}
		}
	}
	return newFDCompGraph(comp, pairs)
}
