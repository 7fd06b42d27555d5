package core

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"blockchaindb/internal/obs"
	"blockchaindb/internal/possible"
	"blockchaindb/internal/query"
)

// Per-query delta sweep (the O(delta) warm-Check path).
//
// The per-component verdict cache (incremental.go) makes an
// untouched component's SEARCH free, but a cold Check still pays O(n)
// before searching anything: the liveness filter, the Θ-bucket pass of
// the ind-q split (indQSplit), and a cache lookup per component. The sweep removes
// that last O(n): for queries whose ind-q split provably equals the
// Monitor's maintained Θ_I partition, it keeps a per-query map from
// component root to verdict and, on each Check, reconciles only the
// roots the mutation journal logged since the previous Check of the
// same query. A warm single-delta Check then touches the delta's
// component and nothing else, whatever |T| is.
//
// Eligibility is decided on the SIMPLIFIED query (Simplify can change
// the atom structure): the query must be connected, contribute no Θ_q
// equality constraints, and have no atom pairs — so the ind-q split
// would add no query edges and its state-bridge closure (gated on ≥3
// positive atoms reachable only through atom pairs) cannot run. Under
// those conditions the ind-q components of the live subset are exactly
// the maintained partition restricted to live members — except that a
// dead transaction can bridge two live groups the from-scratch pass
// would keep apart, making the sweep's components possibly coarser:
// sound, per Proposition 2 (a coarser split only merges search units).
//
// Verdict lifecycle mirrors the verdict cache's soundness rules:
// verdicts are keyed by component root and stamped with the
// partition's membership generation, so a replay is taken only when
// the component's membership is byte-identical to when the verdict was
// computed; commits clear every sweep outright (state mutations stale
// everything); reconciliation interrupted by cancellation leaves
// seenSeq unadvanced — re-processing a logged root is idempotent
// thanks to the stamps. Witnesses are stored as external ids and
// mapped to whatever slots the members occupy at answer time, immune
// to the swap-with-last compaction.

// maxSweeps bounds the per-monitor sweep states (FIFO eviction): each
// distinct (query fingerprint, ablation options) pair costs O(current
// components) memory.
const maxSweeps = 8

// monitorSweeper is the checkEnv hook connecting cliqueDCSat to the
// Monitor's sweep states. Created per Check under the read lock.
type monitorSweeper struct {
	m *Monitor
}

// sweepVerdict is one component's cached outcome. searched means the
// component passed the live and covers filters and was actually
// searched; witness holds external ids (only when violated).
type sweepVerdict struct {
	stamp    uint64
	searched bool
	violated bool
	witness  []int
}

// sweepState is the per-(query, options) verdict map. Guarded by its
// own mutex so concurrent Checks of the same query serialize their
// reconciliation without blocking Checks of other queries; mutators
// never take it (they clear whole states under sweepMu instead).
type sweepState struct {
	mu       sync.Mutex
	seenSeq  uint64                // m.logSeq as of the last complete reconcile
	verdicts map[int]*sweepVerdict // component root -> verdict
	violated map[int]struct{}      // roots with violated verdicts
	nCovered int                   // verdicts with searched=true
}

func (st *sweepState) drop(r int, old *sweepVerdict) {
	delete(st.verdicts, r)
	delete(st.violated, r)
	if old.searched {
		st.nCovered--
	}
}

func (st *sweepState) set(r int, v *sweepVerdict) {
	st.verdicts[r] = v
	if v.violated {
		if st.violated == nil {
			st.violated = make(map[int]struct{})
		}
		st.violated[r] = struct{}{}
	}
	if v.searched {
		st.nCovered++
	}
}

// sweepFor returns (creating if needed) the sweep state for a key,
// evicting the oldest state when the FIFO bound is hit.
func (m *Monitor) sweepFor(key string) *sweepState {
	m.sweepMu.Lock()
	defer m.sweepMu.Unlock()
	if m.sweeps == nil {
		m.sweeps = make(map[string]*sweepState)
	}
	st := m.sweeps[key]
	if st == nil {
		if len(m.sweepOrder) >= maxSweeps {
			oldest := m.sweepOrder[0]
			m.sweepOrder = m.sweepOrder[1:]
			delete(m.sweeps, oldest)
		}
		st = &sweepState{}
		m.sweeps[key] = st
		m.sweepOrder = append(m.sweepOrder, key)
	}
	return st
}

// sweepOptsKey folds the ablation options that change per-component
// verdicts into the sweep key. Workers is excluded: the sweep
// reconciles serially regardless, and verdicts do not depend on it.
func sweepOptsKey(opts Options) string {
	return fmt.Sprintf("|c%v", opts.DisableCoverFilter)
}

// eligible reports whether the (simplified) query's ind-q split equals
// the maintained Θ_I partition — the soundness condition spelled out
// in the package comment above.
func (sw *monitorSweeper) eligible(q *query.Query) bool {
	return q.IsConnected() && len(q.EqualityConstraints()) == 0 && len(q.AtomPairs()) == 0
}

// run answers the check from the sweep state, reconciling it with the
// mutation journal first. Returns swept=false only on a cancellation
// error; an error from the underlying search is returned as-is. Called
// under the Monitor's read lock, after cliqueDCSat's R-only check.
func (sw *monitorSweeper) run(ctx context.Context, d *possible.DB, q *query.Query, opts Options, env checkEnv, res *Result) (bool, error) {
	m := sw.m
	var targets []atomFilter
	if !opts.DisableCoverFilter {
		targets = coverTargets(d, q)
	}
	st := m.sweepFor(env.qfp + sweepOptsKey(opts))
	st.mu.Lock()
	defer st.mu.Unlock()
	replayed, recomputed := 0, 0
	behind := m.logSeq - st.seenSeq
	switch {
	case st.verdicts == nil || behind > uint64(len(m.changeLog)):
		// Cold sweep, or the journal was trimmed past what this state
		// has seen: rebuild over every current root, reusing any verdict
		// whose stamp still matches. The fresh maps are swapped in only
		// on full success, so a cancelled rebuild leaves the state
		// exactly as it was.
		mSweepRebuilds.Inc()
		fresh := make(map[int]*sweepVerdict, m.parts.Components())
		freshViolated := make(map[int]struct{})
		nCovered := 0
		var rerr error
		m.parts.Roots(func(r int) bool {
			if rerr = ctx.Err(); rerr != nil {
				return false
			}
			var v *sweepVerdict
			if old := st.verdicts[r]; old != nil && old.stamp == m.parts.Stamp(r) {
				v = old
				replayed++
			} else {
				v, rerr = sw.computeRoot(ctx, d, q, r, targets, opts, env, &res.Stats)
				if rerr != nil {
					return false
				}
				recomputed++
			}
			fresh[r] = v
			if v.violated {
				freshViolated[r] = struct{}{}
			}
			if v.searched {
				nCovered++
			}
			return true
		})
		if rerr != nil {
			return false, rerr
		}
		st.verdicts = fresh
		st.violated = freshViolated
		st.nCovered = nCovered
		st.seenSeq = m.logSeq
	case behind > 0:
		// Replay: reconcile exactly the roots logged since this state's
		// last complete pass. Entries are checked against CURRENT
		// partition state, so processing order and duplicates are
		// harmless, and an interrupted replay (seenSeq unadvanced)
		// re-processes idempotently.
		tail := m.changeLog[len(m.changeLog)-int(behind):]
		for _, r := range tail {
			if err := ctx.Err(); err != nil {
				return false, err
			}
			old := st.verdicts[r]
			if !m.parts.IsRoot(r) {
				if old != nil {
					st.drop(r, old)
				}
				continue
			}
			if old != nil && old.stamp == m.parts.Stamp(r) {
				continue
			}
			v, err := sw.computeRoot(ctx, d, q, r, targets, opts, env, &res.Stats)
			if err != nil {
				return false, err
			}
			recomputed++
			if old != nil {
				st.drop(r, old)
			}
			st.set(r, v)
		}
		st.seenSeq = m.logSeq
		if replayed = len(st.verdicts) - recomputed; replayed < 0 {
			replayed = 0
		}
	default:
		replayed = len(st.verdicts)
	}
	res.Stats.Components = len(st.verdicts)
	res.Stats.ComponentsCovered = st.nCovered
	res.Stats.ComponentsCached += replayed
	res.Stats.SweepReplays += replayed
	res.Stats.LivePending = m.liveCount
	mSweepReplayed.Add(int64(replayed))
	mSweepRecomputed.Add(int64(recomputed))
	if replayed > 0 {
		// One summarizing replay event per check (never per root: a
		// 100k-component mempool must not append 100k journal entries).
		obs.DefaultJournal.Append(obs.EvCachedComponent, env.checkID, "",
			obs.F("sweep", true),
			obs.F("components", replayed),
			obs.F("violated", len(st.violated) > 0))
	}
	if len(st.violated) > 0 {
		res.Satisfied = false
		res.Witness = sw.chooseWitness(st)
	}
	return true, nil
}

// chooseWitness picks, among the violated components, the one the cold
// path would have reported: groups are searched in ascending order of
// their smallest (filtered) member slot, first violation wins. The
// witness ids are mapped onto current slots.
func (sw *monitorSweeper) chooseWitness(st *sweepState) []int {
	m := sw.m
	best, bestMin := -1, -1
	for r := range st.violated {
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
	w := st.verdicts[best].witness
	slots := make([]int, len(w))
	for i, id := range w {
		slots[i] = m.byID[id]
	}
	sort.Ints(slots)
	return slots
}

// computeRoot produces a fresh verdict for one component root: filter
// the members by maintained liveness, apply the covers filter, and
// search (through the per-component verdict cache) on survival.
func (sw *monitorSweeper) computeRoot(ctx context.Context, d *possible.DB, q *query.Query, root int, targets []atomFilter, opts Options, env checkEnv, stats *Stats) (*sweepVerdict, error) {
	m := sw.m
	v := &sweepVerdict{stamp: m.parts.Stamp(root)}
	members := m.parts.Members(root)
	comp := make([]int, 0, len(members))
	for _, id := range members {
		if !m.live[id] {
			continue
		}
		comp = append(comp, m.byID[id])
	}
	if len(comp) == 0 {
		return v, nil // all members dead: only R ⊆ world, already checked upstream
	}
	sort.Ints(comp)
	if !opts.DisableCoverFilter && !covers(d, comp, targets) {
		return v, nil
	}
	v.searched = true
	// One worker: a sweep reconciles many small components one at a
	// time, and splitting each across a pool would cost more in
	// goroutines than its walk.
	o := searchComponents(ctx, d, q, [][]int{comp}, nil, 1, env, stats)
	if o != nil && o.err != nil {
		return nil, o.err
	}
	if o != nil {
		v.violated = true
		v.witness = make([]int, len(o.witness))
		for i, s := range o.witness {
			v.witness[i] = m.ids[s]
		}
	}
	return v, nil
}
