package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"blockchaindb/internal/fixture"
	"blockchaindb/internal/possible"
	"blockchaindb/internal/query"
	"blockchaindb/internal/relation"
	"blockchaindb/internal/value"
)

// assertMonitorGraphs is the differential oracle for the Monitor's
// persistent structures: after any mutation sequence, the maintained
// conflict adjacency, Θ_I component partition, liveness map, and
// appendability statuses must equal what a from-scratch pass over the
// same pending set computes. Returns false (with diagnostics) on the
// first divergence.
func assertMonitorGraphs(t testing.TB, m *Monitor, step string) bool {
	t.Helper()
	m.mu.RLock()
	defer m.mu.RUnlock()
	d := m.db
	all := allPending(d)

	// Conflict pairs: maintained adjacency vs the from-scratch bucket
	// build — the exact construction Checks are served from.
	fresh := buildFDGraph(d, all)
	want := make(map[[2]int]bool)
	for _, p := range fresh.pairs {
		a, b := m.ids[all[p[0]]], m.ids[all[p[1]]]
		if a > b {
			a, b = b, a
		}
		want[[2]int{a, b}] = true
	}
	got := make(map[[2]int]bool)
	for a, adj := range m.conflictAdj {
		for b := range adj {
			if a < b {
				got[[2]int{a, b}] = true
			}
		}
	}
	if len(got) != len(want) || m.conflictPairs != len(want) {
		t.Logf("%s: conflict pairs maintained %d (counter %d), fresh %d", step, len(got), m.conflictPairs, len(want))
		return false
	}
	for p := range want {
		if !got[p] {
			t.Logf("%s: conflict pair %v missing from maintained adjacency", step, p)
			return false
		}
	}

	// Secondary oracle: for self-consistent transactions — the only
	// ones the liveness filter ever lets into a graph — a recorded
	// conflict pair must coincide with pairwise FD incompatibility.
	// (An fd-self-inconsistent transaction makes FDCompatible false
	// against everything while the bucket builds only record actual key
	// collisions; such transactions are dead and never searched.)
	for i := 0; i < len(d.Pending); i++ {
		for j := i + 1; j < len(d.Pending); j++ {
			a, b := m.ids[i], m.ids[j]
			if !m.selfOK[a] || !m.selfOK[b] {
				continue
			}
			if a > b {
				a, b = b, a
			}
			if compat := d.Constraints.FDCompatible(d.Pending[i], d.Pending[j]); compat == want[[2]int{a, b}] {
				t.Logf("%s: FDCompatible(%d,%d)=%v disagrees with conflict pair set", step, a, b, compat)
				return false
			}
		}
	}

	// Θ_I partition: maintained components vs the direct split with no
	// query (q = nil adds no Θ_q edges, so the from-scratch direct
	// groups are exactly the Θ_I partition).
	canon := func(groups [][]int) []string {
		keys := make([]string, 0, len(groups))
		for _, g := range groups {
			ids := make([]int, len(g))
			copy(ids, g)
			sort.Ints(ids)
			keys = append(keys, fmt.Sprintf("%v", ids))
		}
		sort.Strings(keys)
		return keys
	}
	freshGroups := newIndQSplit(d, all, nil, thetaISeeds(d, all)).direct
	wantParts := make([][]int, 0, len(freshGroups))
	for _, g := range freshGroups {
		ids := make([]int, len(g))
		for i, local := range g {
			ids[i] = m.ids[all[local]]
		}
		wantParts = append(wantParts, ids)
	}
	byRoot := make(map[int][]int)
	for _, id := range m.ids {
		r, ok := m.parts.Root(id)
		if !ok {
			t.Logf("%s: id %d missing from maintained partition", step, id)
			return false
		}
		byRoot[r] = append(byRoot[r], id)
	}
	gotParts := make([][]int, 0, len(byRoot))
	for _, g := range byRoot {
		gotParts = append(gotParts, g)
	}
	wc, gc := canon(wantParts), canon(gotParts)
	if strings.Join(wc, ";") != strings.Join(gc, ";") {
		t.Logf("%s: partition maintained %v, fresh %v", step, gc, wc)
		return false
	}
	if m.parts.Len() != len(d.Pending) || m.parts.Components() != len(wantParts) {
		t.Logf("%s: partition size %d/%d components %d/%d", step,
			m.parts.Len(), len(d.Pending), m.parts.Components(), len(wantParts))
		return false
	}

	// Liveness and appendability statuses.
	liveSlots := liveTransactions(d)
	wantLive := make(map[int]bool, len(liveSlots))
	for _, s := range liveSlots {
		wantLive[m.ids[s]] = true
	}
	if m.liveCount != len(wantLive) {
		t.Logf("%s: liveCount %d, fresh %d", step, m.liveCount, len(wantLive))
		return false
	}
	for slot, id := range m.ids {
		if m.live[id] != wantLive[id] {
			t.Logf("%s: live(%d) maintained %v, fresh %v", step, id, m.live[id], wantLive[id])
			return false
		}
		if want := d.Constraints.CanAppend(d.State, d.Pending[slot]); m.appendable[id] != want {
			t.Logf("%s: appendable(%d) maintained %v, fresh %v", step, id, m.appendable[id], want)
			return false
		}
	}
	return assertMonitorView(t, m, step)
}

// assertMonitorView is the differential oracle for the prepared view a
// Monitor check reads (monitorView): its live slots, its union's tuples
// per relation, its Θ_I seeds and its conflict adjacency must equal
// from-scratch builds over the same database. Seeds may be coarser
// than the Θ_I components of the live slots, but only through
// connections the Θ_I components of ALL pending transactions make.
// Callers hold the read lock. Reading the union builds it when a
// mutation dropped it, so the AddPending that follows extends it in
// place.
func assertMonitorView(t testing.TB, m *Monitor, step string) bool {
	t.Helper()
	d := m.db
	v := &monitorView{m: m}

	live := v.live()
	if want := liveTransactions(d); fmt.Sprint(live) != fmt.Sprint(want) {
		t.Logf("%s: view live slots %v, fresh %v", step, live, want)
		return false
	}

	fresh := relation.NewOverlay(d.State, d.Pending...)
	union := v.union()
	for _, rel := range d.State.Names() {
		got, want := overlayKeys(union, rel), overlayKeys(fresh, rel)
		if strings.Join(got, ";") != strings.Join(want, ";") {
			t.Logf("%s: view union %s holds %d tuples %v, fresh %d %v", step, rel, len(got), got, len(want), want)
			return false
		}
	}

	// Seeds, as a component label per local index into live.
	label := func(groups [][]int) []int {
		l := make([]int, len(live))
		for i := range l {
			l[i] = -1 - i // ungrouped: a group of its own
		}
		for gi, g := range groups {
			for _, local := range g {
				l[local] = gi
			}
		}
		return l
	}
	got, finer := label(v.seeds()), label(thetaISeeds(d, live))
	all := allPending(d)
	coarsest := make([]int, len(all))
	for _, g := range thetaISeeds(d, all) {
		for _, slot := range g {
			coarsest[slot] = g[0] + 1
		}
	}
	for i := range live {
		for j := i + 1; j < len(live); j++ {
			if finer[i] == finer[j] && got[i] != got[j] {
				t.Logf("%s: view seeds split live slots %d and %d, which Θ_I connects", step, live[i], live[j])
				return false
			}
			if got[i] == got[j] && (coarsest[live[i]] == 0 || coarsest[live[i]] != coarsest[live[j]]) {
				t.Logf("%s: view seeds join live slots %d and %d, which no Θ_I path connects", step, live[i], live[j])
				return false
			}
		}
	}

	adj := make([]map[int]bool, len(all))
	for i := range adj {
		adj[i] = make(map[int]bool)
	}
	for _, p := range fdConflictPairs(d, all) {
		adj[p[0]][p[1]] = true
		adj[p[1]][p[0]] = true
	}
	for slot := range all {
		conf := v.appendConflicts(nil, slot)
		gotSet := make(map[int]bool, len(conf))
		for _, o := range conf {
			gotSet[o] = true
		}
		if len(gotSet) != len(conf) || fmt.Sprint(gotSet) != fmt.Sprint(adj[slot]) {
			t.Logf("%s: view conflicts of slot %d %v, fresh %v", step, slot, conf, adj[slot])
			return false
		}
	}
	return true
}

// overlayKeys lists the view's tuples of one relation as text, sorted,
// duplicates kept.
func overlayKeys(v relation.View, rel string) []string {
	var keys []string
	v.Scan(rel, func(t value.Tuple) bool {
		keys = append(keys, t.String())
		return true
	})
	sort.Strings(keys)
	return keys
}

// driveMonitorGraphs runs one randomized mutation sequence against the
// differential oracle. The op mix deliberately includes the tricky
// shapes: transactions holding several tuples with the same FD lhs
// (fd-self-inconsistent), duplicate tuples, double-spends conflicting
// with other pending transactions, drops that exercise the
// swap-with-last compaction and the per-component partition rebuild,
// and both commit flavors.
func driveMonitorGraphs(t testing.TB, seed int64, steps int) bool {
	r := rand.New(rand.NewSource(seed))
	mon := NewMonitor(bitcoinLikeDB(r))
	if !assertMonitorGraphs(t, mon, fmt.Sprintf("seed %d initial", seed)) {
		return false
	}
	var ids []int
	mon.mu.RLock()
	ids = append(ids, mon.ids...)
	mon.mu.RUnlock()
	nextTxNum := int64(500)
	add := func(tx *relation.Transaction) {
		id, err := mon.AddPending(tx)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for step := 0; step < steps; step++ {
		switch r.Intn(7) {
		case 0: // chain transaction: spend a (possibly pending) output, mint a new one
			owner := fmt.Sprintf("U%dPk", r.Intn(3))
			add(relation.NewTransaction(fmt.Sprintf("C%d", nextTxNum)).
				Add("TxIn", fixture.TxIn(int64(r.Intn(4)+1), int64(r.Intn(3)+1), owner, 1, nextTxNum, owner+"Sig")).
				Add("TxOut", fixture.TxOut(nextTxNum, 1, fmt.Sprintf("U%dPk", r.Intn(4)), 1)))
			nextTxNum++
		case 1: // fd-self-inconsistent: two TxOut tuples with the same key, different pk
			add(relation.NewTransaction(fmt.Sprintf("X%d", nextTxNum)).
				Add("TxOut", fixture.TxOut(nextTxNum, 1, "U0Pk", 1)).
				Add("TxOut", fixture.TxOut(nextTxNum, 1, "U1Pk", 2)))
			nextTxNum++
		case 2: // duplicate tuple: same FD lhs AND rhs twice in one transaction
			add(relation.NewTransaction(fmt.Sprintf("D%d", nextTxNum)).
				Add("TxOut", fixture.TxOut(nextTxNum, 1, "U2Pk", 1)).
				Add("TxOut", fixture.TxOut(nextTxNum, 1, "U2Pk", 1)))
			nextTxNum++
		case 3: // double-spend of a fixed state output: conflicts with its siblings
			add(relation.NewTransaction(fmt.Sprintf("S%d", nextTxNum)).
				Add("TxIn", fixture.TxIn(3, 1, "U3Pk", 1, nextTxNum, "U3Sig")).
				Add("TxOut", fixture.TxOut(nextTxNum, 1, "U3Pk", 1)))
			nextTxNum++
		case 4: // drop: swap-with-last compaction + component rebuild
			if len(ids) == 0 {
				continue
			}
			i := r.Intn(len(ids))
			if err := mon.DropPending(ids[i]); err != nil {
				t.Fatal(err)
			}
			ids = append(ids[:i], ids[i+1:]...)
		case 5: // commit an appendable pending transaction
			if len(ids) == 0 {
				continue
			}
			i := r.Intn(len(ids))
			if !mon.Appendable(ids[i]) {
				continue
			}
			if err := mon.Commit(ids[i]); err != nil {
				t.Fatal(err)
			}
			ids = append(ids[:i], ids[i+1:]...)
		case 6: // external commit: a block transaction this node never saw
			if err := mon.CommitExternal(relation.NewTransaction(fmt.Sprintf("E%d", nextTxNum)).
				Add("TxOut", fixture.TxOut(nextTxNum, 1, "U1Pk", 2))); err != nil {
				t.Fatal(err)
			}
			nextTxNum++
		}
		if !assertMonitorGraphs(t, mon, fmt.Sprintf("seed %d step %d", seed, step)) {
			return false
		}
	}
	return true
}

// TestMonitorGraphsMatchFromScratch is the randomized differential
// property test: maintained conflict pairs ≡ pairwise FD compatibility,
// maintained partition ≡ from-scratch Θ_I components, maintained
// liveness/appendability ≡ recomputation, and the prepared view a check
// reads ≡ from-scratch builds, after every mutation of a random
// Add/Drop/Commit/CommitExternal sequence.
func TestMonitorGraphsMatchFromScratch(t *testing.T) {
	f := func(seed int64) bool { return driveMonitorGraphs(t, seed, 10) }
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// FuzzMonitorGraphs keeps the differential oracle available as a fuzz
// target: go test -fuzz=FuzzMonitorGraphs ./internal/core/
func FuzzMonitorGraphs(f *testing.F) {
	for _, seed := range []int64{0, 1, 42, 9000} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		if !driveMonitorGraphs(t, seed, 8) {
			t.Fail()
		}
	})
}

// TestCommitRefreshTargeted is the regression test for the commit-path
// write-lock stall: committing one transaction among many unrelated
// pending ones must re-validate only the transactions whose FD/IND keys
// intersect the committed tuples — not the whole pending set. The old
// implementation recomputed CanAppend for every pending transaction
// under the write lock, stalling every concurrent Check behind an
// O(|pending|) pass.
func TestCommitRefreshTargeted(t *testing.T) {
	s := fixture.BitcoinSchema()
	cons := fixture.BitcoinConstraints(s)
	mon := NewMonitor(possible.MustNew(s, cons, nil))
	const unrelated = 10_000
	for i := 0; i < unrelated; i++ {
		if _, err := mon.AddPending(relation.NewTransaction(fmt.Sprintf("M%d", i)).
			Add("TxOut", fixture.TxOut(int64(i), 1, fmt.Sprintf("Pk%d", i), 1))); err != nil {
			t.Fatal(err)
		}
	}
	// A: an appendable mint. B: spends A's output, so B is appendable
	// only once A commits.
	aID, err := mon.AddPending(relation.NewTransaction("A").
		Add("TxOut", fixture.TxOut(500_000, 1, "APk", 2)))
	if err != nil {
		t.Fatal(err)
	}
	bID, err := mon.AddPending(relation.NewTransaction("B").
		Add("TxIn", fixture.TxIn(500_000, 1, "APk", 2, 500_001, "ASig")).
		Add("TxOut", fixture.TxOut(500_001, 1, "BPk", 2)))
	if err != nil {
		t.Fatal(err)
	}
	if mon.Appendable(bID) {
		t.Fatal("B appendable before its input exists")
	}
	before := mon.GraphStatsSnapshot().AppendRefreshes
	if err := mon.Commit(aID); err != nil {
		t.Fatal(err)
	}
	refreshed := mon.GraphStatsSnapshot().AppendRefreshes - before
	if refreshed >= unrelated/2 {
		t.Fatalf("commit refreshed %d pending transactions (want O(touched), have %d unrelated)", refreshed, unrelated)
	}
	if refreshed == 0 {
		t.Fatal("commit refreshed nothing: B's appendability was not recomputed")
	}
	if !mon.Appendable(bID) {
		t.Fatal("B not appendable after its input committed")
	}
}

// TestMonitorGraphHammer drives the persistent structures from
// concurrent mutators, sweep-eligible checkers, and stats readers; under
// -race this is the regression test for the new maintained graphs and
// the per-query delta sweeps. A final differential assertion verifies
// the structures survived the contention intact.
func TestMonitorGraphHammer(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	mon := NewMonitor(bitcoinLikeDB(r))
	sweepable := query.MustParse("q() :- TxOut(t, s, 'HMPk', a)")
	join := query.MustParse("q() :- TxIn(pt, ps, 'U1Pk', a, nt, sig), TxOut(nt, s2, pk2, a2)")
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 40; n++ {
				if _, err := mon.Check(context.Background(), sweepable, Options{Algorithm: AlgoOpt}); err != nil {
					t.Errorf("sweep check: %v", err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 0; n < 25; n++ {
			if _, err := mon.Check(context.Background(), join, Options{Workers: 2}); err != nil {
				t.Errorf("join check: %v", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 0; n < 100; n++ {
			_ = mon.GraphStatsSnapshot()
			_ = mon.ConflictCount()
		}
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 30; n++ {
				txNum := int64(2000 + g*1000 + n)
				tx := relation.NewTransaction(fmt.Sprintf("H%dN%d", g, n)).
					Add("TxOut", fixture.TxOut(txNum, 1, "HMPk", 1))
				id, err := mon.AddPending(tx)
				if err != nil {
					t.Errorf("add: %v", err)
					return
				}
				switch n % 3 {
				case 0:
					if err := mon.DropPending(id); err != nil {
						t.Errorf("drop: %v", err)
						return
					}
				case 1:
					if mon.Appendable(id) {
						if err := mon.Commit(id); err != nil {
							t.Errorf("commit: %v", err)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if !assertMonitorGraphs(t, mon, "after hammer") {
		t.Fatal("maintained graphs diverged from from-scratch rebuild")
	}
}
