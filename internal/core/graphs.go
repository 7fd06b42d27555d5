// Package core implements the paper's contribution: deciding denial
// constraint satisfaction over a blockchain database. It provides the
// paper's NaiveDCSat and OptDCSat (Section 6) with the monotone
// pre-check and the precomputed transaction graphs, a parallel variant
// of OptDCSat, PTIME solvers for the tractable fragments of Theorems 1
// and 2, a complexity classifier implementing those theorems, an
// exhaustive ground-truth checker, and the paper's future-work
// extensions (contradicting-transaction derivation and Monte-Carlo
// likelihood estimation).
package core

import (
	"bytes"
	"sort"
	"sync"

	"blockchaindb/internal/graph"
	"blockchaindb/internal/possible"
	"blockchaindb/internal/query"
	"blockchaindb/internal/relation"
	"blockchaindb/internal/value"
)

// fdCompGraph is the fd-transaction graph G^fd_T of one component,
// represented sparsely by its conflict pairs (non-edges). Because the
// graph is the COMPLEMENT of the conflict relation, any member with no
// in-component conflict is a universal vertex — adjacent to everything
// — and every maximal clique of the full graph is exactly
// (universal ∪ K) for K a maximal clique of the subgraph induced on
// the conflicted members. The bitset graph g is therefore built only
// over the conflicted members, so the common conflict-free case costs
// O(n) instead of the O(n²) bitset `graph.NewComplete` used to
// allocate up front.
type fdCompGraph struct {
	g          *graph.Undirected // complement graph over conflicted members only
	members    []int             // the component (global pending indexes), as given
	conflicted []int             // globals with ≥1 in-component conflict, in g's vertex order
	universal  []int             // globals with no in-component conflict
	pairs      [][2]int          // conflict pairs as local indexes into members (deduplicated)
}

// newFDCompGraph assembles the split representation from the member
// list and its deduplicated conflict pairs (local indexes into
// members).
func newFDCompGraph(members []int, pairs [][2]int) *fdCompGraph {
	deg := make([]int, len(members))
	for _, p := range pairs {
		deg[p[0]]++
		deg[p[1]]++
	}
	cg := &fdCompGraph{members: members, pairs: pairs}
	remap := make([]int, len(members)) // local -> conflicted vertex index
	for local, global := range members {
		if deg[local] > 0 {
			remap[local] = len(cg.conflicted)
			cg.conflicted = append(cg.conflicted, global)
		} else {
			cg.universal = append(cg.universal, global)
		}
	}
	cg.g = graph.NewComplete(len(cg.conflicted))
	for _, p := range pairs {
		cg.g.RemoveEdge(remap[p[0]], remap[p[1]])
	}
	return cg
}

// dense materializes the classic bitset form over ALL members: vertex
// i corresponds to members[i]. For tooling and benchmarks that want
// the paper's graph verbatim.
func (cg *fdCompGraph) dense() *graph.Undirected {
	g := graph.NewComplete(len(cg.members))
	for _, p := range cg.pairs {
		g.RemoveEdge(p[0], p[1])
	}
	return g
}

// maximalCliques enumerates the maximal cliques of the full component
// graph as slices of GLOBAL pending indexes: each maximal clique of
// the conflicted subgraph, completed with every universal member. The
// slice passed to yield is reused across calls; returning false stops
// the enumeration. A component with no conflicts yields exactly one
// clique — all members (the empty conflicted graph contributes its
// single empty clique).
func (cg *fdCompGraph) maximalCliques(yield func(members []int) bool) {
	out := make([]int, 0, len(cg.members))
	graph.MaximalCliques(cg.g, func(clique []int) bool {
		out = append(out[:0], cg.universal...)
		for _, v := range clique {
			out = append(out, cg.conflicted[v])
		}
		return yield(out)
	})
}

// fdConflictPairs finds the conflict pairs (non-edges) of the paper's
// fd-transaction graph G^fd_T restricted to the pending transactions at
// the given (global) indexes, as deduplicated pairs of local indexes
// into subset.
//
// Rather than testing all O(n²) pairs, conflicts are discovered by
// hashing: for every FD, transactions are bucketed by the LHS
// projections of their tuples; only buckets holding two different RHS
// projections produce conflict pairs.
func fdConflictPairs(d *possible.DB, subset []int) [][2]int {
	// Occupants carry the tuple, not a materialized RHS key: bucketing
	// then only allocates the map key string on the first insert per
	// distinct LHS projection (map reads use the non-allocating
	// map[string(buf)] form), and the rare multi-occupant buckets
	// compare RHS projections through reused buffers.
	type occupant struct {
		local int
		tup   value.Tuple
	}
	var pairs [][2]int
	var seen map[[2]int]struct{} // allocated on the first conflict only
	addPair := func(a, b int) {
		if a > b {
			a, b = b, a
		}
		if seen == nil {
			seen = make(map[[2]int]struct{})
		}
		if _, dup := seen[[2]int{a, b}]; dup {
			return
		}
		seen[[2]int{a, b}] = struct{}{}
		pairs = append(pairs, [2]int{a, b})
	}
	var lbuf, ibuf, jbuf []byte
	for fdIdx, fd := range d.Constraints.FDs {
		lhs, rhs := d.Constraints.FDColumns(fdIdx)
		buckets := make(map[string][]occupant)
		for local, global := range subset {
			for _, t := range d.Pending[global].Tuples(fd.Rel) {
				lbuf = t.AppendProjectKey(lbuf[:0], lhs)
				if occ, ok := buckets[string(lbuf)]; ok {
					buckets[string(lbuf)] = append(occ, occupant{local, t})
				} else {
					buckets[string(lbuf)] = []occupant{{local, t}}
				}
			}
		}
		for _, occ := range buckets {
			if len(occ) < 2 {
				continue
			}
			for i := 0; i < len(occ); i++ {
				ibuf = occ[i].tup.AppendProjectKey(ibuf[:0], rhs)
				for j := i + 1; j < len(occ); j++ {
					if occ[i].local == occ[j].local {
						continue
					}
					jbuf = occ[j].tup.AppendProjectKey(jbuf[:0], rhs)
					if !bytes.Equal(ibuf, jbuf) {
						addPair(occ[i].local, occ[j].local)
					}
				}
			}
		}
	}
	return pairs
}

// FDGraph exposes the fd-transaction graph over all pending
// transactions for tooling and benchmarks; vertex i corresponds to
// Pending[i].
func FDGraph(d *possible.DB) *graph.Undirected {
	return fdGraphFromConflicts(allPending(d), prepare(d)).dense()
}

// liveTransactions returns the indexes of pending transactions that
// could appear in some possible world as far as functional dependencies
// are concerned: internally fd-consistent and fd-compatible with the
// current state. Transactions failing either test are dead — R is a
// subset of every world, so they can never be appended — and dropping
// them shrinks the clique enumeration without changing the answer.
// (This materializes the paper's precomputed "can T be included in R"
// status from Section 6.3.) The stateless prepared view calls it once
// per database version; the Monitor maintains the same status per
// transaction.
func liveTransactions(d *possible.DB) []int {
	live := make([]int, 0, len(d.Pending))
	for i, tx := range d.Pending {
		if !d.Constraints.FDSelfConsistent(tx) {
			continue
		}
		if fdConflictsWithState(d, tx) {
			continue
		}
		live = append(live, i)
	}
	return live
}

// fdConflictsWithState reports whether some tuple of the transaction
// violates a functional dependency against the current state.
func fdConflictsWithState(d *possible.DB, tx *relation.Transaction) bool {
	var lbuf, rbuf, ebuf []byte
	for i, fd := range d.Constraints.FDs {
		lhs, rhs := d.Constraints.FDColumns(i)
		for _, t := range tx.Tuples(fd.Rel) {
			lbuf = t.AppendProjectKey(lbuf[:0], lhs)
			rbuf = t.AppendProjectKey(rbuf[:0], rhs)
			conflict := false
			d.State.LookupKey(fd.Rel, lhs, lbuf, func(existing value.Tuple) bool {
				ebuf = existing.AppendProjectKey(ebuf[:0], rhs)
				if !bytes.Equal(ebuf, rbuf) {
					conflict = true
					return false
				}
				return true
			})
			if conflict {
				return true
			}
		}
	}
	return false
}

// indQSplit is OptDCSat's split of the live pending transactions into
// groups that no satisfying assignment of q straddles. It runs in two
// phases over one union-find, because the phases answer different
// questions.
//
// The direct phase (newIndQSplit) builds the paper's
// ind-q-transaction graph G^{q,ind}_T: for every equality constraint
// θ = R[X̄] = S[Ȳ] in Θ_I ∪ Θ_q, two pending transactions holding
// matching tuples on opposite sides of θ are connected (through hash
// buckets, not materialized edges). Θ_q is taken per atom pair
// (query.AtomPairs), and a pending tuple enters a side's bucket only
// if it matches that atom's constants: no assignment can map the atom
// to it otherwise. The connected components are the direct groups.
//
// A violation found inside any direct group is real: the search only
// evaluates maximal worlds of fd-compatible cliques, and those are
// possible worlds whatever subset the clique was drawn from. What the
// direct groups cannot prove alone is "satisfied". An assignment may
// map an intermediate query atom to a COMMITTED tuple, bridging two
// pending transactions that share no direct θ edge; Proposition 2 as
// stated in the paper misses this case (see
// TestProp2StateBridgeCounterexample). The bridge phase (bridge)
// closes the connection through the state, on the same union-find and
// the same pending buckets, and returns the coarse groups that merged
// two or more direct groups: the only places a violation the direct
// search missed can live.
type indQSplit struct {
	d      *possible.DB
	subset []int
	uf     *graph.UnionFind
	atoms  []atomFilter // per positive atom of q
	pairs  []query.AtomPair
	// pendingI[p] (pendingJ[p]) maps the projection on pair p's
	// columns to the local subset indexes whose tuples can stand for
	// the pair's atom I (J).
	pendingI, pendingJ []map[string][]int
	dirRoot            []int   // local index -> its direct group's union-find root
	direct             [][]int // global pending indexes, each sorted, ordered by first member
}

// atomFilter is one positive query atom's relation and constants,
// normalized to the column kinds: a tuple can stand for the atom only
// if its projection on constCols encodes to constKey.
type atomFilter struct {
	rel       string
	constCols []int
	constKey  string
}

// newAtomFilter normalizes the atom's constants to its relation's
// column kinds.
func newAtomFilter(d *possible.DB, atom query.Atom) atomFilter {
	cols, consts := query.AtomConstants(atom)
	sc := d.State.Schema(atom.Rel)
	norm := consts.Clone()
	for i, c := range cols {
		norm[i] = sc.NormalizeValue(consts[i], c)
	}
	return atomFilter{rel: atom.Rel, constCols: cols, constKey: norm.Key()}
}

// matches reports whether t can stand for the atom; buf is a reusable
// key buffer.
func (f *atomFilter) matches(t value.Tuple, buf *[]byte) bool {
	if len(f.constCols) == 0 {
		return true
	}
	*buf = t.AppendProjectKey((*buf)[:0], f.constCols)
	return string(*buf) == f.constKey
}

// newIndQSplit runs the direct phase over the pending transactions at
// the given (global) indexes. The Θ_I side is given as seed groups of
// LOCAL subset indexes already known to be connected, which are
// pre-unioned; only the query's Θ_q edges are found here. Seeding with
// a COARSER-or-equal partition than the true Θ_I one is sound (groups
// may only grow, never split), which is what the Monitor provides: its
// partition is over all pending transactions, while the subset here is
// the live ones, so a dead transaction can act as a bridge and merge
// two groups that thetaISeeds would keep apart. A nil q yields the
// seeded partition alone.
func newIndQSplit(d *possible.DB, subset []int, q *query.Query, seedGroups [][]int) *indQSplit {
	s := &indQSplit{d: d, subset: subset, uf: graph.NewUnionFind(len(subset))}
	for _, g := range seedGroups {
		for _, l := range g[1:] {
			s.uf.Union(g[0], l)
		}
	}
	if q != nil {
		pos := q.Positives()
		s.atoms = make([]atomFilter, len(pos))
		for ai, atom := range pos {
			s.atoms[ai] = newAtomFilter(d, atom)
		}
		s.pairs = q.AtomPairs()
		s.pendingI = make([]map[string][]int, len(s.pairs))
		s.pendingJ = make([]map[string][]int, len(s.pairs))
		for pi, pr := range s.pairs {
			s.pendingI[pi] = s.buckets(pos[pr.I].Rel, pr.Cols, &s.atoms[pr.I])
			s.pendingJ[pi] = s.buckets(pos[pr.J].Rel, pr.RefCols, &s.atoms[pr.J])
			s.unionMatching(s.pendingI[pi], s.pendingJ[pi])
		}
	}
	s.dirRoot = make([]int, len(subset))
	for local := range subset {
		s.dirRoot[local] = s.uf.Find(local)
	}
	s.direct = s.groups(nil)
	return s
}

// querySplit is what a check keeps of an indQSplit: its direct groups
// and, once a check first needs it, the state-bridge outcome. A dbView
// memoizes one per query for its database version and shares it with
// every check of that query, so it holds int data only, never the
// split's string-keyed buckets. A monitorView builds one per check and
// keeps the indQSplit in full for that check's bridge.
type querySplit struct {
	direct      [][]int // global pending slots, each sorted, ordered by first member
	needsBridge bool    // indQSplit.needsBridge

	bridgeOnce sync.Once
	full       *indQSplit // the split the groups came from; nil on a memoized split
	merged     [][]int
	overflow   bool
}

// newQuerySplit keeps split's direct groups.
func newQuerySplit(split *indQSplit) *querySplit {
	return &querySplit{direct: split.direct, needsBridge: split.needsBridge()}
}

// bridge returns the state-bridge closure's outcome (indQSplit.bridge),
// computed by the first call; shared reports that an earlier call did.
// The closure extends its split's union-find, so a memoized split, which
// keeps none, runs it on a private rebuild of the direct phase over d,
// live, q and seeds, the inputs the groups came from.
func (s *querySplit) bridge(d *possible.DB, live []int, q *query.Query, seeds [][]int) (merged [][]int, overflow, shared bool) {
	shared = true
	s.bridgeOnce.Do(func() {
		shared = false
		full := s.full
		if full == nil {
			full = newIndQSplit(d, live, q, seeds)
		}
		s.merged, s.overflow = full.bridge()
		s.full = nil
	})
	return s.merged, s.overflow, shared
}

// thetaISeeds is the from-scratch Θ_I pass: the connected components
// of the ind-transaction graph G^ind_T over the pending transactions at
// the given (global) indexes, found by bucketing both sides of every
// inclusion dependency. Components are returned as groups of local
// indexes into subset, in the form newIndQSplit takes as seeds; groups
// of one are left out. The stateless prepared view calls it once per
// database version.
func thetaISeeds(d *possible.DB, subset []int) [][]int {
	s := &indQSplit{d: d, subset: subset, uf: graph.NewUnionFind(len(subset))}
	for i, ind := range d.Constraints.INDs {
		cols, refCols := d.Constraints.INDColumns(i)
		s.unionMatching(s.buckets(ind.Rel, cols, nil), s.buckets(ind.RefRel, refCols, nil))
	}
	byRoot := make(map[int][]int)
	var roots []int
	for local := range subset {
		r := s.uf.Find(local)
		if byRoot[r] == nil {
			roots = append(roots, r)
		}
		byRoot[r] = append(byRoot[r], local)
	}
	var seeds [][]int
	for _, r := range roots {
		if g := byRoot[r]; len(g) > 1 {
			seeds = append(seeds, g)
		}
	}
	return seeds
}

// buckets maps each projection on cols of the subset's rel tuples that
// can stand for the atom f (nil: every tuple) to the local indexes of
// the transactions holding one, ascending and deduplicated (locals are
// visited in order, so a repeat can only be the last entry).
//
// Keys are built in one reused buffer, so only a key's first occurrence
// allocates its string. Without constants to filter on, every tuple
// may open a bucket, and the map is sized for that up front.
func (s *indQSplit) buckets(rel string, cols []int, f *atomFilter) map[string][]int {
	hint := 0
	if f == nil || len(f.constCols) == 0 {
		for _, global := range s.subset {
			hint += len(s.d.Pending[global].Tuples(rel))
		}
	}
	m := make(map[string][]int, hint)
	var buf, kbuf []byte
	for local, global := range s.subset {
		for _, t := range s.d.Pending[global].Tuples(rel) {
			if f != nil && !f.matches(t, &buf) {
				continue
			}
			kbuf = t.AppendProjectKey(kbuf[:0], cols)
			if ls, ok := m[string(kbuf)]; !ok {
				m[string(kbuf)] = []int{local}
			} else if ls[len(ls)-1] != local {
				m[string(kbuf)] = append(ls, local)
			}
		}
	}
	return m
}

// unionMatching connects the holders of matching tuples on opposite
// sides of one equality constraint (pending↔pending edges, the paper's
// graph).
func (s *indQSplit) unionMatching(lhs, rhs map[string][]int) {
	for k, ls := range lhs {
		rs := rhs[k]
		if len(rs) == 0 {
			continue
		}
		anchor := rs[0]
		for _, l := range ls {
			s.uf.Union(anchor, l)
		}
		for _, r := range rs[1:] {
			s.uf.Union(anchor, r)
		}
	}
}

// groups projects the union-find onto the subset: one group of global
// pending indexes per root, each sorted, ordered by first member. keep,
// when non-nil, selects which groups (by their local members) to
// return.
func (s *indQSplit) groups(keep func(locals []int) bool) [][]int {
	byRoot := make([][]int, s.uf.Len())
	var roots []int
	for local := range s.subset {
		r := s.uf.Find(local)
		if byRoot[r] == nil {
			roots = append(roots, r)
		}
		byRoot[r] = append(byRoot[r], local)
	}
	out := make([][]int, 0, len(roots))
	for _, r := range roots {
		locals := byRoot[r]
		if keep != nil && !keep(locals) {
			continue
		}
		comp := make([]int, len(locals))
		for i, l := range locals {
			comp[i] = s.subset[l]
		}
		sort.Ints(comp)
		out = append(out, comp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// needsBridge reports whether a "satisfied" verdict over the direct
// groups still needs the bridge phase to be sound. A bridge path
// passes through at most |positive atoms|-2 committed tuples, so a
// query with fewer than three positive atoms has none; a single direct
// group has nothing to merge.
func (s *indQSplit) needsBridge() bool {
	return len(s.atoms) >= 3 && len(s.direct) >= 2
}

// bridge runs the state-bridge closure on the direct phase's
// union-find and returns the coarse groups that merged two or more
// direct groups. The closure is atom-aware: it explores state tuples
// that could stand for a specific query atom (so they must match that
// atom's constants) along the atom-pair constraints, to a depth
// bounded by the query shape: an assignment has at most
// k = |positive atoms| tuples, so a bridge path passes through at most
// k-2 committed tuples. Each state tuple reached becomes a shared node
// in the union-find. Past maxStateBridgeNodes nodes it degrades
// soundly to the one group of every subset transaction (NaiveDCSat
// semantics) and reports overflow.
func (s *indQSplit) bridge() (merged [][]int, overflow bool) {
	d, uf := s.d, s.uf
	budget := maxStateBridgeNodes(len(s.subset))
	maxDepth := len(s.atoms) - 2
	var buf []byte
	nodeByTuple := make(map[string]int) // rel+tuple key -> node id
	seen := make(map[string]bool)       // atom|tuple expansion marker
	type workItem struct {
		node  int
		atom  int
		tup   value.Tuple
		depth int
	}
	var queue []workItem
	// reach looks up state tuples standing for atom `ai` whose
	// projection on cols equals key, unioning them with `from` and
	// scheduling their expansion. Once the node budget overflows the
	// result is already decided (single group), so further state scans
	// are pure waste — every call degrades to a no-op.
	reach := func(from, ai int, cols []int, key string, depth int) {
		if overflow {
			return
		}
		f := &s.atoms[ai]
		d.State.Lookup(f.rel, cols, key, func(t value.Tuple) bool {
			if !f.matches(t, &buf) {
				return true
			}
			tk := f.rel + "\x00" + t.Key()
			id, ok := nodeByTuple[tk]
			if !ok {
				if len(nodeByTuple) >= budget {
					overflow = true
					return false
				}
				id = uf.Add()
				nodeByTuple[tk] = id
			}
			uf.Union(from, id)
			ak := string(rune(ai)) + tk
			if !seen[ak] {
				seen[ak] = true
				queue = append(queue, workItem{node: id, atom: ai, tup: t, depth: depth})
			}
			return true
		})
	}
	// Seed: pending tuples standing for one side of a pair reach the
	// state on the other side (depth 1). The loops stop as soon as
	// overflow fires — the result is final at that point.
seed:
	for pi, pr := range s.pairs {
		for key, members := range s.pendingI[pi] {
			for _, l := range members {
				reach(l, pr.J, pr.RefCols, key, 1)
				if overflow {
					break seed
				}
			}
		}
		for key, members := range s.pendingJ[pi] {
			for _, l := range members {
				reach(l, pr.I, pr.Cols, key, 1)
				if overflow {
					break seed
				}
			}
		}
	}
	// Close breadth-first along the atom-pair structure.
	for qi := 0; qi < len(queue) && !overflow; qi++ {
		item := queue[qi]
		for pi, pr := range s.pairs {
			if pr.I == item.atom {
				key := item.tup.ProjectKey(pr.Cols)
				for _, l := range s.pendingJ[pi][key] {
					uf.Union(item.node, l)
				}
				if item.depth < maxDepth {
					reach(item.node, pr.J, pr.RefCols, key, item.depth+1)
				}
			}
			if pr.J == item.atom {
				key := item.tup.ProjectKey(pr.RefCols)
				for _, l := range s.pendingI[pi][key] {
					uf.Union(item.node, l)
				}
				if item.depth < maxDepth {
					reach(item.node, pr.I, pr.Cols, key, item.depth+1)
				}
			}
		}
	}
	if overflow {
		all := append([]int(nil), s.subset...)
		sort.Ints(all)
		return [][]int{all}, true
	}
	return s.groups(func(locals []int) bool {
		for _, l := range locals[1:] {
			if s.dirRoot[l] != s.dirRoot[locals[0]] {
				return true
			}
		}
		return false
	}), false
}

// maxStateBridgeNodes bounds the state-bridge closure: generous enough
// for realistic join fan-outs, small enough that pathological state
// self-joins degrade to NaiveDCSat instead of stalling.
func maxStateBridgeNodes(pending int) int {
	n := 16 * pending
	if n < 4096 {
		n = 4096
	}
	return n
}

// coverTargets prepares the paper's Covers(R, T', q) test: for each
// positive atom with constants, normalize the constants to the column
// kinds and probe the state once. Atoms the state already covers pass
// for every component and are dropped; each remaining target is an
// atom only pending transactions can supply, so it can discriminate
// between components. This hoists the per-check work out of the
// per-component loop (the state probe is by far the bigger share when
// there are hundreds of components).
func coverTargets(d *possible.DB, q *query.Query) []atomFilter {
	var targets []atomFilter
	for _, atom := range q.Positives() {
		f := newAtomFilter(d, atom)
		if len(f.constCols) == 0 {
			continue
		}
		inState := false
		d.State.Lookup(f.rel, f.constCols, f.constKey, func(value.Tuple) bool {
			inState = true
			return false
		})
		if !inState {
			targets = append(targets, f)
		}
	}
	return targets
}

// covers reports whether the component's transactions supply every
// cover target — Covers(R, T', q) with the state-covered atoms already
// discharged by coverTargets.
func covers(d *possible.DB, subset []int, targets []atomFilter) bool {
	var buf []byte
	for i := range targets {
		tg := &targets[i]
		found := false
		for _, global := range subset {
			for _, t := range d.Pending[global].Tuples(tg.rel) {
				if tg.matches(t, &buf) {
					found = true
					break
				}
			}
			if found {
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
