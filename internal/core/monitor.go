package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"blockchaindb/internal/graph"
	"blockchaindb/internal/obs"
	"blockchaindb/internal/possible"
	"blockchaindb/internal/query"
	"blockchaindb/internal/relation"
)

// Monitor maintains a blockchain database in steady state, as a node
// would (Section 6.3 of the paper): pending transactions arrive, blocks
// commit some of them, and denial constraints are checked repeatedly.
// It keeps the paper's precomputed structures incrementally up to date:
//
//   - per-transaction status "can T be appended to R" and
//     fd-liveness (self-consistent, no fd-conflict with the state);
//   - the fd-conflict pairs backing G^fd_T, via per-FD hash buckets and
//     a symmetric adjacency, so a Check serves component subgraphs
//     without rescanning unrelated transactions;
//   - the Θ_I buckets and the connected-component partition of the
//     ind-transaction graph G^ind_T, via per-IND hash buckets over a
//     dynamic union-find (graph.DynamicPartition); the query-specific
//     Θ_q edges and the state-bridge closure are added per Check, as in
//     the paper, seeded from the maintained partition;
//   - the union R ∪ ∪T the precheck evaluates on, extended in place by
//     AddPending and rebuilt by the first check after a drop or commit;
//   - the stable external ids of the pending transactions and a journal
//     of the partition roots each mutation touched, which key the
//     verdict store (verdicts.go): one table per standing query that
//     lets a Check replay the verdicts of components the latest deltas
//     left untouched.
//
// Every mutation costs O(touched component): AddPending and DropPending
// update only the hash buckets their keys land in and the partition
// component they touch, and Commit/CommitExternal refresh appendability
// only for the transactions whose FD/IND keys intersect the committed
// tuples — never the whole pending set.
//
// Concurrency contract: every Monitor method is safe for concurrent
// use. Check holds the read lock for its entire duration (parallel
// search workers included), so it observes an atomic snapshot of the
// pending set; AddPending, DropPending, Commit, and CommitExternal
// take the write lock and therefore serialize against in-flight
// Checks rather than race them. Concurrent Checks run in parallel
// with each other and share the verdict store, whose tables carry
// their own locks. A Check never blocks for longer than its own
// search: mutations queue behind it, not inside it.
type Monitor struct {
	mu   sync.RWMutex
	db   *possible.DB
	ids  []int // stable external id per pending slot; never reused
	next int
	byID map[int]int // external id -> slot in db.Pending

	// Maintained fd-conflict structure: per-FD lhs-key buckets for
	// discovery, and the symmetric conflict adjacency (id -> id ->
	// #conflicting bucket pairs) the sparse component graphs are served
	// from. conflictPairs counts distinct conflicting pairs.
	bucketsFD     []map[string][]fdOccupant
	conflictAdj   map[int]map[int]int
	conflictPairs int

	// Maintained Θ_I structure: per-IND key buckets (both sides of the
	// inclusion dependency hash into the same key space) and the
	// connected-component partition they induce, over external ids.
	bucketsIND []map[string]*indBucket
	parts      *graph.DynamicPartition

	// Maintained per-transaction statuses.
	appendable map[int]bool // id -> can be appended to R directly
	selfOK     map[int]bool // id -> fd-self-consistent (immutable per tx)
	live       map[int]bool // id -> selfOK && no fd conflict with state
	liveCount  int

	// union is R ∪ ∪T, or nil until a check needs it. AddPending extends
	// it in place under the write lock; DropPending, Commit and
	// CommitExternal drop it, since an overlay cannot shed tuples and a
	// grown state would duplicate them. Checks, which hold only the read
	// lock, rebuild it under unionMu (see unionOverlay).
	unionMu sync.Mutex
	union   atomic.Pointer[relation.Overlay]

	// Mutation journal for the sweep tables: gen counts mutations (and
	// stamps the partition), changeLog records the component roots each
	// mutation touched, logSeq counts entries ever appended (so a table
	// can tell how far behind it is even after the log is trimmed).
	gen       uint64
	changeLog []int
	logSeq    uint64

	// appendRefreshes counts CanAppend recomputations done by the
	// commit-path targeted refresh — the regression instrument for the
	// old O(|pending|) commit stall.
	appendRefreshes uint64

	store *verdictStore // nil when verdict reuse is disabled

	journal *obs.Journal // lifecycle event sink (never nil)

	// tenant, when set, is the attribution principal injected into every
	// Check whose context does not already carry one (WithTenant).
	tenant string
}

type fdOccupant struct {
	id     int
	rhsKey string
}

// indBucket is one Θ_I hash bucket: the pending transactions holding a
// tuple whose projection equals the bucket's key, split by which side
// of the inclusion dependency the tuple is on, with per-id tuple
// counts (a transaction can hold several tuples with the same key).
// The bucket connects ALL its occupants into one component exactly
// when both sides are non-empty.
type indBucket struct {
	lhs     map[int]int // id -> #tuples on the referencing (Rel) side
	rhs     map[int]int // id -> #tuples on the referenced (RefRel) side
	visited uint64      // last mutation generation that re-unioned this bucket
}

func (b *indBucket) active() bool { return len(b.lhs) > 0 && len(b.rhs) > 0 }

// maxChangeLog bounds the mutation journal; overflowing drops the
// oldest half, which forces sweep tables further behind than the
// retained suffix into a full rebuild.
const maxChangeLog = 16384

// MonitorOption configures NewMonitor.
type MonitorOption func(*Monitor)

// WithCache bounds the verdict store at capacity per-query tables,
// evicting the oldest table past the bound; each table holds one
// verdict per current component of its query. Zero or negative
// disables verdict reuse entirely: every Check re-searches every
// component. Without this option the store holds defaultTableCap
// tables.
func WithCache(capacity int) MonitorOption {
	return func(m *Monitor) {
		if capacity <= 0 {
			m.store = nil
			return
		}
		m.store = newVerdictStore(capacity)
	}
}

// WithObserver routes the Monitor's lifecycle events (monitor_add,
// monitor_drop, monitor_commit, monitor_cache_clear) to the given
// journal instead of obs.DefaultJournal. Check-pipeline events are
// unaffected — they follow the obs trace on the Check context.
func WithObserver(j *obs.Journal) MonitorOption {
	return func(m *Monitor) {
		if j != nil {
			m.journal = j
		}
	}
}

// WithTenant bills every Check run through this Monitor to the named
// tenant (obs cost attribution) unless the Check's own context already
// carries a principal — an explicit obs.WithPrincipal wins.
func WithTenant(name string) MonitorOption {
	return func(m *Monitor) { m.tenant = name }
}

// NewMonitor wraps the database. The pending transactions already in
// the database are registered and indexed. Options tune the verdict
// store and observability; the defaults (defaultTableCap tables, events
// to obs.DefaultJournal) suit steady mempool monitoring.
func NewMonitor(d *possible.DB, opts ...MonitorOption) *Monitor {
	m := &Monitor{
		db:          &possible.DB{State: d.State, Constraints: d.Constraints},
		byID:        make(map[int]int),
		conflictAdj: make(map[int]map[int]int),
		appendable:  make(map[int]bool),
		selfOK:      make(map[int]bool),
		live:        make(map[int]bool),
		bucketsFD:   make([]map[string][]fdOccupant, len(d.Constraints.FDs)),
		bucketsIND:  make([]map[string]*indBucket, len(d.Constraints.INDs)),
		parts:       graph.NewDynamicPartition(),
		store:       newVerdictStore(defaultTableCap),
		journal:     obs.DefaultJournal,
	}
	for i := range m.bucketsFD {
		m.bucketsFD[i] = make(map[string][]fdOccupant)
	}
	for i := range m.bucketsIND {
		m.bucketsIND[i] = make(map[string]*indBucket)
	}
	for _, o := range opts {
		o(m)
	}
	for _, tx := range d.Pending {
		m.addLocked(tx)
	}
	return m
}

// AddPending registers a newly gossiped transaction and returns its
// stable id. The transaction is normalized against the schemas.
func (m *Monitor) AddPending(tx *relation.Transaction) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	norm, err := m.db.State.NormalizeTransaction(tx)
	if err != nil {
		return 0, err
	}
	id := m.addLocked(norm)
	m.journal.Append(obs.EvMonitorAdd, 0, "",
		obs.F("id", id),
		obs.F("pending", len(m.db.Pending)),
		obs.F("appendable", m.appendable[id]))
	return id, nil
}

func (m *Monitor) addLocked(tx *relation.Transaction) int {
	m.gen++
	id := m.next
	m.next++
	m.byID[id] = len(m.db.Pending)
	m.db.Pending = append(m.db.Pending, tx)
	m.ids = append(m.ids, id)
	if u := m.union.Load(); u != nil {
		u.Add(tx)
	}
	// Update fd buckets and conflict pairs.
	for fdIdx := range m.db.Constraints.FDs {
		lhsKeys, rhsKeys := m.db.Constraints.FDKeys(fdIdx, tx)
		for i := range lhsKeys {
			bucket := m.bucketsFD[fdIdx][lhsKeys[i]]
			for _, occ := range bucket {
				if occ.id != id && occ.rhsKey != rhsKeys[i] {
					m.bumpConflict(occ.id, id, +1)
				}
			}
			m.bucketsFD[fdIdx][lhsKeys[i]] = append(bucket, fdOccupant{id, rhsKeys[i]})
		}
	}
	// Register in the component partition, then thread through the Θ_I
	// buckets: each key the transaction hashes into may union it with
	// the bucket's occupants.
	m.parts.Add(id, m.gen)
	for indIdx := range m.db.Constraints.INDs {
		lhsKeys, refKeys := m.db.Constraints.INDKeys(indIdx, tx)
		for _, k := range lhsKeys {
			m.indEnter(indIdx, k, id, false)
		}
		for _, k := range refKeys {
			m.indEnter(indIdx, k, id, true)
		}
	}
	if r, ok := m.parts.Root(id); ok {
		m.noteComp(r)
	}
	m.appendable[id] = m.db.Constraints.CanAppend(m.db.State, tx)
	selfOK := m.db.Constraints.FDSelfConsistent(tx)
	m.selfOK[id] = selfOK
	isLive := selfOK && !fdConflictsWithState(m.db, tx)
	m.live[id] = isLive
	if isLive {
		m.liveCount++
	}
	m.updateGraphGauges()
	return id
}

// indEnter records one tuple of transaction id on one side of one Θ_I
// bucket and performs the unions the bucket now implies. Invariant
// used throughout: an ACTIVE bucket's occupants all belong to one
// component — so when the bucket was already active, connecting id to
// any single occupant suffices; when this insertion activates it, all
// occupants (until now possibly in different components) are unioned.
func (m *Monitor) indEnter(indIdx int, key string, id int, refSide bool) {
	bs := m.bucketsIND[indIdx]
	b := bs[key]
	if b == nil {
		b = &indBucket{lhs: make(map[int]int), rhs: make(map[int]int)}
		bs[key] = b
	}
	wasActive := b.active()
	side := b.lhs
	if refSide {
		side = b.rhs
	}
	side[id]++
	if !b.active() {
		return
	}
	if wasActive {
		for o := range b.lhs {
			if o != id {
				m.unionComp(id, o)
				return
			}
		}
		for o := range b.rhs {
			if o != id {
				m.unionComp(id, o)
				return
			}
		}
		return
	}
	for o := range b.lhs {
		m.unionComp(id, o)
	}
	for o := range b.rhs {
		m.unionComp(id, o)
	}
}

// indLeave removes one tuple of transaction id from one side of one
// Θ_I bucket. It performs no unions — the caller rebuilds the touched
// component after all of the transaction's keys are gone.
func (m *Monitor) indLeave(indIdx int, key string, id int, refSide bool) {
	b := m.bucketsIND[indIdx][key]
	if b == nil {
		return
	}
	side := b.lhs
	if refSide {
		side = b.rhs
	}
	if side[id] <= 1 {
		delete(side, id)
	} else {
		side[id]--
	}
	if len(b.lhs) == 0 && len(b.rhs) == 0 {
		delete(m.bucketsIND[indIdx], key)
	}
}

// unionComp unions two ids in the maintained partition, logging the
// absorbed root so sweep tables reconcile the disappeared component.
func (m *Monitor) unionComp(a, b int) {
	if _, loser, merged := m.parts.Union(a, b, m.gen); merged {
		m.noteComp(loser)
	}
}

// noteComp appends a touched component root to the mutation journal.
func (m *Monitor) noteComp(root int) {
	if len(m.changeLog) >= maxChangeLog {
		half := len(m.changeLog) / 2
		m.changeLog = append(m.changeLog[:0], m.changeLog[half:]...)
	}
	m.changeLog = append(m.changeLog, root)
	m.logSeq++
}

func (m *Monitor) bumpConflict(a, b int, delta int) {
	m.bumpConflictDir(a, b, delta)
	m.bumpConflictDir(b, a, delta)
}

// bumpConflictDir adjusts one direction of the symmetric adjacency;
// the a->b call tracks the distinct-pair count.
func (m *Monitor) bumpConflictDir(a, b int, delta int) {
	adj := m.conflictAdj[a]
	old := adj[b]
	count := old + delta
	if count <= 0 {
		if adj != nil {
			delete(adj, b)
			if len(adj) == 0 {
				delete(m.conflictAdj, a)
			}
		}
	} else {
		if adj == nil {
			adj = make(map[int]int)
			m.conflictAdj[a] = adj
		}
		adj[b] = count
	}
	if a < b {
		if old <= 0 && count > 0 {
			m.conflictPairs++
		} else if old > 0 && count <= 0 {
			m.conflictPairs--
		}
	}
}

// setLive flips a transaction's maintained liveness status.
func (m *Monitor) setLive(id int, v bool) {
	if m.live[id] == v {
		return
	}
	m.live[id] = v
	if v {
		m.liveCount++
	} else {
		m.liveCount--
	}
}

// DropPending removes a pending transaction (e.g. evicted from the
// mempool).
func (m *Monitor) DropPending(id int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.removeLocked(id); err != nil {
		return err
	}
	m.journal.Append(obs.EvMonitorDrop, 0, "",
		obs.F("id", id),
		obs.F("pending", len(m.db.Pending)))
	return nil
}

func (m *Monitor) removeLocked(id int) error {
	slot, ok := m.byID[id]
	if !ok {
		return fmt.Errorf("core: unknown pending transaction %d", id)
	}
	m.gen++
	m.union.Store(nil)
	tx := m.db.Pending[slot]
	for fdIdx := range m.db.Constraints.FDs {
		lhsKeys, rhsKeys := m.db.Constraints.FDKeys(fdIdx, tx)
		for i := range lhsKeys {
			bucket := m.bucketsFD[fdIdx][lhsKeys[i]]
			kept := bucket[:0]
			removedOne := false
			for _, occ := range bucket {
				if !removedOne && occ.id == id && occ.rhsKey == rhsKeys[i] {
					removedOne = true
					continue
				}
				kept = append(kept, occ)
			}
			for _, occ := range kept {
				if occ.id != id && occ.rhsKey != rhsKeys[i] {
					m.bumpConflict(occ.id, id, -1)
				}
			}
			if len(kept) == 0 {
				delete(m.bucketsFD[fdIdx], lhsKeys[i])
			} else {
				m.bucketsFD[fdIdx][lhsKeys[i]] = kept
			}
		}
	}
	// Remove the transaction's Θ_I occupancy before touching the
	// partition, so the rebuild below sees only surviving edges.
	for indIdx := range m.db.Constraints.INDs {
		lhsKeys, refKeys := m.db.Constraints.INDKeys(indIdx, tx)
		for _, k := range lhsKeys {
			m.indLeave(indIdx, k, id, false)
		}
		for _, k := range refKeys {
			m.indLeave(indIdx, k, id, true)
		}
	}
	// Compact the pending slice. The verdict store is untouched: slot
	// indexes never appear in its keys or stored witnesses (both hold
	// external ids), so the swap-with-last rewrite below cannot stale
	// an entry. Components that lost this member miss naturally — their
	// key no longer includes its id, and their root's stamp moved.
	last := len(m.db.Pending) - 1
	if slot != last {
		m.db.Pending[slot] = m.db.Pending[last]
		m.ids[slot] = m.ids[last]
		m.byID[m.ids[slot]] = slot
	}
	m.db.Pending = m.db.Pending[:last]
	m.ids = m.ids[:last]
	delete(m.byID, id)
	delete(m.appendable, id)
	delete(m.selfOK, id)
	if m.live[id] {
		m.liveCount--
	}
	delete(m.live, id)
	m.rebuildComponentAfterDetach(id)
	m.updateGraphGauges()
	return nil
}

// rebuildComponentAfterDetach removes id from the maintained partition
// and re-unions the remainder of its component from the surviving Θ_I
// buckets — the per-component deletion strategy: O(touched component)
// work, every other component untouched. Correctness rests on the
// active-bucket invariant (an active bucket's occupants share one
// component): every bucket a remaining member occupies that is still
// active lies entirely within the remaining set, so re-unioning along
// those buckets reconstructs exactly the surviving edges.
func (m *Monitor) rebuildComponentAfterDetach(id int) {
	oldRoot, remaining, ok := m.parts.Detach(id, m.gen)
	if !ok {
		return
	}
	m.noteComp(oldRoot)
	if len(remaining) == 0 {
		return
	}
	for _, mid := range remaining {
		tx := m.db.Pending[m.byID[mid]]
		for indIdx := range m.db.Constraints.INDs {
			lhsKeys, refKeys := m.db.Constraints.INDKeys(indIdx, tx)
			for _, keys := range [2][]string{lhsKeys, refKeys} {
				for _, k := range keys {
					b := m.bucketsIND[indIdx][k]
					if b == nil || b.visited == m.gen || !b.active() {
						continue
					}
					b.visited = m.gen
					anchor := -1
					for o := range b.lhs {
						if anchor < 0 {
							anchor = o
						} else {
							m.parts.Union(anchor, o, m.gen)
						}
					}
					for o := range b.rhs {
						if anchor < 0 {
							anchor = o
						} else {
							m.parts.Union(anchor, o, m.gen)
						}
					}
				}
			}
		}
	}
	// Log the distinct roots the component split into. Intermediate
	// rebuild unions need no logging of their own: every participant
	// was a fresh singleton out of Detach, so the only pre-existing
	// verdict key affected is oldRoot, already logged above.
	logged := make(map[int]struct{}, len(remaining))
	for _, mid := range remaining {
		if r, ok := m.parts.Root(mid); ok {
			if _, dup := logged[r]; !dup {
				logged[r] = struct{}{}
				m.noteComp(r)
			}
		}
	}
}

// Commit applies a pending transaction to the current state — a block
// accepted it — and removes it from the pending set. Committing a
// transaction that cannot be appended is an error (the chain would be
// inconsistent). Appendability and liveness are refreshed only for the
// transactions whose FD/IND keys intersect the committed tuples — the
// only ones a grown state can affect — never the whole pending set.
func (m *Monitor) Commit(id int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	slot, ok := m.byID[id]
	if !ok {
		return fmt.Errorf("core: unknown pending transaction %d", id)
	}
	tx := m.db.Pending[slot]
	if !m.db.Constraints.CanAppend(m.db.State, tx) {
		return fmt.Errorf("core: transaction %d cannot be appended to the current state", id)
	}
	if err := m.removeLocked(id); err != nil {
		return err
	}
	if err := m.db.State.InsertTransaction(tx); err != nil {
		return err
	}
	refreshed := m.refreshAfterCommitLocked(tx)
	m.clearVerdictsLocked("commit")
	m.journal.Append(obs.EvMonitorCommit, 0, "",
		obs.F("id", id),
		obs.F("pending", len(m.db.Pending)),
		obs.F("refreshed", refreshed))
	return nil
}

// CommitExternal applies a transaction that was never pending — a
// block brought it in from outside the monitored mempool (a coinbase,
// a transaction this node never gossiped). The chain has already
// accepted it, so no appendability gate applies: the transaction is
// normalized, inserted into the state, and the cached structures that
// read the state (appendability and liveness of the key-intersecting
// transactions, the verdict store) are refreshed, exactly as for
// Commit.
func (m *Monitor) CommitExternal(tx *relation.Transaction) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	norm, err := m.db.State.NormalizeTransaction(tx)
	if err != nil {
		return err
	}
	if err := m.db.State.InsertTransaction(norm); err != nil {
		return err
	}
	m.union.Store(nil)
	refreshed := m.refreshAfterCommitLocked(norm)
	m.clearVerdictsLocked("commit_external")
	m.journal.Append(obs.EvMonitorCommitExternal, 0, "",
		obs.F("pending", len(m.db.Pending)),
		obs.F("refreshed", refreshed))
	return nil
}

// refreshAfterCommitLocked recomputes appendability and fd-liveness
// for exactly the pending transactions the committed transaction can
// affect, and returns how many were touched. The state only grows, so
// a commit can flip a pending transaction only through tuples sharing
// a key with the committed ones:
//
//   - appendable true->false and live->dead require an FD conflict
//     with a new state tuple, i.e. a pending tuple with the same FD
//     lhs projection — exactly the occupants of the committed tuples'
//     lhs-key buckets;
//   - appendable false->true requires a previously missing IND
//     reference now supplied by a committed RefRel tuple, i.e. a
//     pending transaction on the lhs side of that tuple's Θ_I bucket;
//   - live->dead cannot happen through INDs (liveness is fd-only), and
//     dead->live / appendable IND-true->false cannot happen at all
//     (references never disappear from an append-only state).
//
// Every other pending transaction shares no key with the committed
// tuples, so CanAppend and liveness are unchanged for it by
// construction of those predicates (they only ever probe the state at
// the transaction's own keys).
func (m *Monitor) refreshAfterCommitLocked(tx *relation.Transaction) int {
	cand := make(map[int]struct{})
	for fdIdx := range m.db.Constraints.FDs {
		lhsKeys, _ := m.db.Constraints.FDKeys(fdIdx, tx)
		for _, k := range lhsKeys {
			for _, occ := range m.bucketsFD[fdIdx][k] {
				cand[occ.id] = struct{}{}
			}
		}
	}
	for indIdx := range m.db.Constraints.INDs {
		_, refKeys := m.db.Constraints.INDKeys(indIdx, tx)
		for _, k := range refKeys {
			if b := m.bucketsIND[indIdx][k]; b != nil {
				for oid := range b.lhs {
					cand[oid] = struct{}{}
				}
			}
		}
	}
	for oid := range cand {
		ptx := m.db.Pending[m.byID[oid]]
		m.appendable[oid] = m.db.Constraints.CanAppend(m.db.State, ptx)
		m.setLive(oid, m.selfOK[oid] && !fdConflictsWithState(m.db, ptx))
		m.appendRefreshes++
		mCommitRefreshes.Inc()
	}
	return len(cand)
}

// clearVerdictsLocked clears the verdict store after a state mutation:
// every per-component verdict reads the state (GetMaximal overlays,
// liveness, the R side of fd conflicts), so none survives a grown R.
// It also trims the mutation journal: with no sweep table left to
// replay it, the retained suffix serves no one. logSeq stays monotone,
// so new sweep tables start in sync. Caller holds the write lock.
func (m *Monitor) clearVerdictsLocked(reason string) {
	m.changeLog = m.changeLog[:0]
	if m.store == nil {
		return
	}
	if n := m.store.clear(); n > 0 {
		m.journal.Append(obs.EvMonitorCacheClear, 0, "",
			obs.F("reason", reason),
			obs.F("entries", n))
	}
}

// updateGraphGauges publishes the maintained graph sizes. Last writer
// wins across monitors — the gauges describe the most recently mutated
// one, which is the one a single-node deployment runs.
func (m *Monitor) updateGraphGauges() {
	gMonitorComponents.Set(int64(m.parts.Components()))
	gMonitorConflicts.Set(int64(m.conflictPairs))
}

// PendingCount returns the number of pending transactions.
func (m *Monitor) PendingCount() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.db.Pending)
}

// Appendable reports the precomputed "can be included in R" status.
func (m *Monitor) Appendable(id int) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.appendable[id]
}

// ConflictCount returns the number of conflicting pending pairs — the
// non-edges of G^fd_T maintained incrementally.
func (m *Monitor) ConflictCount() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.conflictPairs
}

// GraphStats is a point-in-time snapshot of the Monitor's maintained
// graph structures, for dashboards and tests.
type GraphStats struct {
	Pending         int    // pending transactions
	Live            int    // fd-live pending transactions
	Components      int    // Θ_I connected components over the pending set
	ConflictPairs   int    // distinct fd-conflicting pairs
	AppendRefreshes uint64 // CanAppend recomputations by commit refreshes
}

// GraphStatsSnapshot returns the current maintained-graph sizes.
func (m *Monitor) GraphStatsSnapshot() GraphStats {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return GraphStats{
		Pending:         len(m.db.Pending),
		Live:            m.liveCount,
		Components:      m.parts.Components(),
		ConflictPairs:   m.conflictPairs,
		AppendRefreshes: m.appendRefreshes,
	}
}

// Check decides D |= ¬q over the monitored database, with the context
// as the cancellation and tracing handle (mirroring the package-level
// Check). Monotone clique algorithms reuse the incrementally
// maintained conflict pairs, the Θ_I component partition, and the
// verdict store; other algorithm choices fall through to the stateless
// pipeline — in particular, non-monotonic queries route to the
// exhaustive solver and never touch the store, because their verdicts
// do not decompose per component. Either way the check runs through
// the same front door and instrumentation as the stateless
// Check: query validation, the Boolean guard, schema checking,
// Simplify, per-stage spans and durations, and the registry metrics.
func (m *Monitor) Check(ctx context.Context, q *query.Query, opts Options) (*Result, error) {
	if m.tenant != "" {
		if _, ok := obs.PrincipalFrom(ctx); !ok {
			ctx = obs.WithPrincipal(ctx, m.tenant, "")
		}
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	snapshot := &possible.DB{
		State:       m.db.State,
		Constraints: m.db.Constraints,
		Pending:     m.db.Pending,
	}
	// Resolve auto-routing for monotonic queries here rather than in
	// checkContext: the monitor prefers the clique algorithms even when
	// the fd-only solver would apply, because only they can reuse the
	// incrementally maintained conflict pairs and the verdict store.
	algo := opts.Algorithm
	if algo == AlgoAuto && q.IsMonotonic() {
		if q.IsConnected() {
			algo = AlgoOpt
		} else {
			algo = AlgoNaive
		}
	}
	if algo == AlgoNaive || algo == AlgoOpt {
		opts.Algorithm = algo
	}
	// The clique search reads m.ids, m.byID, m.live, m.conflictAdj,
	// m.parts and the union through the monitorView; the read lock held
	// for the duration of the check keeps them stable, including for the
	// parallel workers (all of which finish inside this call). The
	// verdict tables have their own locks, so concurrent Checks share
	// them safely; the store is only cleared under the write lock, which
	// cannot run while we hold read.
	res, err := checkContext(ctx, snapshot, q, opts, checkEnv{view: &monitorView{m: m}, mon: m})
	if res != nil && len(res.Witness) > 0 {
		res.WitnessIDs = m.idsForSlotsLocked(res.Witness)
	}
	return res, err
}

// CacheStats snapshots the verdict store's counters. The zero
// CacheStats is returned when verdict reuse is disabled.
func (m *Monitor) CacheStats() CacheStats {
	if m.store == nil {
		return CacheStats{}
	}
	return m.store.snapshot()
}

// unionOverlay returns R ∪ ∪T over the monitored database, building
// it if a mutation dropped it. Callers hold the read lock; unionMu
// makes concurrent checks after a drop build it once.
func (m *Monitor) unionOverlay() *relation.Overlay {
	if u := m.union.Load(); u != nil {
		return u
	}
	m.unionMu.Lock()
	defer m.unionMu.Unlock()
	if u := m.union.Load(); u != nil {
		return u
	}
	u := relation.NewOverlay(m.db.State, m.db.Pending...)
	m.union.Store(u)
	return u
}

// IDsForSlots maps pending slots to stable ids, sorted. Slots shift
// under DropPending and Commit, so the answer is only meaningful if no
// mutation ran since the slots were read; for a check's witness use
// Result.WitnessIDs, which Monitor.Check maps under its own lock.
func (m *Monitor) IDsForSlots(slots []int) []int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.idsForSlotsLocked(slots)
}

// PendingIDs returns the stable ids of every pending transaction,
// sorted, read under one lock.
func (m *Monitor) PendingIDs() []int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := append([]int(nil), m.ids...)
	sort.Ints(out)
	return out
}

func (m *Monitor) idsForSlotsLocked(slots []int) []int {
	out := make([]int, len(slots))
	for i, s := range slots {
		out[i] = m.ids[s]
	}
	sort.Ints(out)
	return out
}

// slotsForIDsLocked maps stable ids to their current pending slots,
// sorted: the inverse of idsForSlotsLocked.
func (m *Monitor) slotsForIDsLocked(ids []int) []int {
	out := make([]int, len(ids))
	for i, id := range ids {
		out[i] = m.byID[id]
	}
	sort.Ints(out)
	return out
}
