package core

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"blockchaindb/internal/fixture"
	"blockchaindb/internal/graph"
	"blockchaindb/internal/possible"
	"blockchaindb/internal/relation"
)

// maximalWorldsByCliques enumerates the worlds NaiveDCSat evaluates:
// getMaximal over each maximal clique of G^fd_T (live transactions):
// each maximal clique of the conflicted members completed with the
// universal ones, deduplicated by included set.
func maximalWorldsByCliques(d *possible.DB) map[string][]int {
	live := liveTransactions(d)
	cg := buildFDGraph(d, live)
	out := make(map[string][]int)
	for _, clique := range graph.AllMaximalCliques(cg.g) {
		subset := append([]int(nil), cg.universal...)
		for _, v := range clique {
			subset = append(subset, cg.conflicted[v])
		}
		_, included := d.GetMaximal(subset)
		sort.Ints(included)
		out[supportKey(included)] = included
	}
	return out
}

// maximalWorldsByDefinition computes the ⊆-maximal elements of Poss(D)
// by exhaustive enumeration.
func maximalWorldsByDefinition(d *possible.DB) map[string][]int {
	var worlds [][]int
	d.EnumerateWorlds(func(included []int, _ *relation.Overlay) bool {
		worlds = append(worlds, append([]int(nil), included...))
		return true
	})
	isSubset := func(a, b []int) bool {
		if len(a) > len(b) {
			return false
		}
		set := make(map[int]bool, len(b))
		for _, x := range b {
			set[x] = true
		}
		for _, x := range a {
			if !set[x] {
				return false
			}
		}
		return true
	}
	out := make(map[string][]int)
	for i, w := range worlds {
		maximal := true
		for j, other := range worlds {
			if i != j && len(other) > len(w) && isSubset(w, other) {
				maximal = false
				break
			}
		}
		if maximal {
			out[supportKey(w)] = w
		}
	}
	return out
}

// TestMaximalWorldsMatchDefinition is the structural claim behind
// NaiveDCSat: the worlds produced by clique enumeration + getMaximal
// cover exactly the ⊆-maximal possible worlds. (The clique route may
// also emit a few non-maximal worlds — a clique can close over a
// proper subset when dependencies bind across cliques — so the check is
// that every definitional maximal world is produced, which is what
// monotone completeness needs.)
func TestMaximalWorldsMatchDefinition(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := bitcoinLikeDB(r)
		byCliques := maximalWorldsByCliques(d)
		byDef := maximalWorldsByDefinition(d)
		for key, w := range byDef {
			if _, ok := byCliques[key]; !ok {
				t.Logf("seed %d: maximal world %v not produced by clique enumeration", seed, w)
				return false
			}
		}
		// Every clique world must at least be a possible world.
		for _, w := range byCliques {
			if !d.IsReachable(w) {
				t.Logf("seed %d: clique world %v unreachable", seed, w)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestPaperMaximalWorlds: the running example's maximal worlds are
// exactly R∪{T1,T2,T3,T4} and R∪{T3,T5} (from Example 3's Poss(D)).
func TestPaperMaximalWorlds(t *testing.T) {
	d := fixture.PaperDB()
	byDef := maximalWorldsByDefinition(d)
	if len(byDef) != 2 {
		t.Fatalf("maximal worlds = %d, want 2", len(byDef))
	}
	want := map[string]bool{
		supportKey([]int{0, 1, 2, 3}): true,
		supportKey([]int{2, 4}):       true,
	}
	for key, w := range byDef {
		if !want[key] {
			t.Errorf("unexpected maximal world %v", w)
		}
	}
	byCliques := maximalWorldsByCliques(d)
	for key := range byDef {
		if _, ok := byCliques[key]; !ok {
			t.Errorf("clique enumeration missed a maximal world")
		}
	}
}
