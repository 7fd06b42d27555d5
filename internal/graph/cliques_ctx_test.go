package graph

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

func cliqueKey(c []int) string {
	return fmt.Sprint(c)
}

// TestCliqueBranchesPartition is the load-bearing property of the
// parallel Bron–Kerbosch: the subtrees returned by CliqueBranches
// enumerate exactly the graph's maximal cliques, each exactly once, for
// any requested branch count — otherwise parallel runs would duplicate
// or lose work.
func TestCliqueBranchesPartition(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		n := 1 + r.Intn(14)
		var p float64
		switch trial % 3 {
		case 0:
			p = 0.95 // dense, like real fd graphs
		case 1:
			p = 0.5
		default:
			p = 0.15
		}
		g := randomGraph(r, n, p)
		want := map[string]bool{}
		for _, c := range bruteMaximalCliques(g) {
			want[cliqueKey(c)] = true
		}
		for _, min := range []int{1, 2, 4, 16, 64} {
			branches := CliqueBranches(g, min)
			got := map[string]int{}
			for _, b := range branches {
				err := MaximalCliquesBranchVisit(context.Background(), g, b, sortedLeaves(func(c []int) bool {
					got[cliqueKey(c)]++
					return true
				}))
				if err != nil {
					t.Fatalf("branch enumeration error: %v", err)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("n=%d p=%.2f min=%d: %d distinct cliques across %d branches, brute force found %d",
					n, p, min, len(got), len(branches), len(want))
			}
			for k, cnt := range got {
				if !want[k] {
					t.Fatalf("n=%d p=%.2f min=%d: branch clique %s not maximal", n, p, min, k)
				}
				if cnt != 1 {
					t.Fatalf("n=%d p=%.2f min=%d: clique %s enumerated %d times", n, p, min, k, cnt)
				}
			}
		}
	}
}

// TestCliqueBranchesDeterministic: same graph, same min → identical
// branch list (the parallel scheduler's determinism builds on this).
func TestCliqueBranchesDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	g := randomGraph(r, 12, 0.6)
	a := CliqueBranches(g, 8)
	b := CliqueBranches(g, 8)
	if len(a) != len(b) {
		t.Fatalf("branch counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		as, bs := fmt.Sprint(a[i].r), fmt.Sprint(b[i].r)
		if as != bs {
			t.Fatalf("branch %d differs: %s vs %s", i, as, bs)
		}
	}
}

// TestMaximalCliquesCtxCancelled: a cancelled context stops the walk
// promptly and surfaces the context's error; leaves stop arriving.
// Whole-tree and branch walks share the poll.
func TestMaximalCliquesCtxCancelled(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(3)), 30, 0.9)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	count := sortedLeaves(func([]int) bool {
		calls++
		return true
	})
	if err := MaximalCliquesVisit(ctx, g, count); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if err := MaximalCliquesBranchVisit(ctx, g, CliqueBranches(g, 4)[0], count); err != context.Canceled {
		t.Fatalf("branch err = %v, want context.Canceled", err)
	}
	if calls != 0 {
		t.Fatalf("Leaf called %d times after pre-cancelled context", calls)
	}

	// Cancel mid-walk: the error surfaces and leaves cease soon after
	// (within the poll interval).
	for _, walk := range []func(context.Context, MaximalCliquesVisitor) error{
		func(ctx context.Context, vis MaximalCliquesVisitor) error { return MaximalCliquesVisit(ctx, g, vis) },
		func(ctx context.Context, vis MaximalCliquesVisitor) error {
			return MaximalCliquesBranchVisit(ctx, g, RootBranch(g), vis)
		},
	} {
		ctx2, cancel2 := context.WithCancel(context.Background())
		afterCancel := 0
		cancelled := false
		err := walk(ctx2, sortedLeaves(func([]int) bool {
			if cancelled {
				afterCancel++
			}
			if !cancelled {
				cancelled = true
				cancel2()
			}
			return true
		}))
		if err != context.Canceled {
			t.Fatalf("mid-flight err = %v, want context.Canceled", err)
		}
		// The poll interval allows a bounded number of leaves to slip
		// through; it must not run to completion (this graph has
		// thousands of maximal cliques).
		if afterCancel > 2*ctxCheckInterval {
			t.Fatalf("%d cliques visited after cancellation", afterCancel)
		}
	}
}

// TestMaximalCliquesCtxComplete: a live context changes nothing — the
// walk returns nil and visits the same leaves, in the same order, as a
// walk under context.Background, and those leaves are exactly the
// brute-force maximal cliques.
func TestMaximalCliquesCtxComplete(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(5)), 10, 0.5)
	collect := func(ctx context.Context) ([][]int, error) {
		var out [][]int
		err := MaximalCliquesVisit(ctx, g, sortedLeaves(func(c []int) bool {
			out = append(out, c)
			return true
		}))
		return out, err
	}
	background, err := collect(context.Background())
	if err != nil {
		t.Fatalf("err = %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	live, err := collect(ctx)
	if err != nil {
		t.Fatalf("err = %v", err)
	}
	if fmt.Sprint(background) != fmt.Sprint(live) {
		t.Fatalf("clique lists differ:\n%v\n%v", background, live)
	}
	if got, want := canonicalize(live), canonicalize(bruteMaximalCliques(g)); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("cliques %v, brute force %v", got, want)
	}
}

// TestMaximalCliquesEmptyGraphYield: the empty graph's single maximal
// clique (the empty set) must respect yield's stop signal — both
// variants used to ignore the return value on this path.
func TestMaximalCliquesEmptyGraphYield(t *testing.T) {
	for name, enum := range map[string]func(*Undirected, func([]int) bool){
		"pivot":   MaximalCliques,
		"nopivot": MaximalCliquesNoPivot,
	} {
		g := NewUndirected(0)
		calls := 0
		enum(g, func(c []int) bool {
			calls++
			if len(c) != 0 {
				t.Errorf("%s: empty graph yielded clique %v", name, c)
			}
			return false // stop immediately; must not panic or re-yield
		})
		if calls != 1 {
			t.Errorf("%s: empty graph yielded %d times, want 1", name, calls)
		}
	}
}

func sortedCliques(g *Undirected) [][]int {
	out := AllMaximalCliques(g)
	sort.Slice(out, func(i, j int) bool { return fmt.Sprint(out[i]) < fmt.Sprint(out[j]) })
	return out
}

// TestCliqueBranchesSingleVertex and degenerate shapes.
func TestCliqueBranchesDegenerate(t *testing.T) {
	// Empty graph: one branch, one empty clique.
	g0 := NewUndirected(0)
	bs := CliqueBranches(g0, 4)
	total := 0
	for _, b := range bs {
		_ = MaximalCliquesBranchVisit(context.Background(), g0, b, sortedLeaves(func(c []int) bool {
			total++
			return true
		}))
	}
	if total != 1 {
		t.Fatalf("empty graph: %d cliques via branches, want 1", total)
	}
	// Complete graph: the tree is one chain; the split cannot widen and
	// must still cover the single maximal clique.
	gc := NewComplete(6)
	bs = CliqueBranches(gc, 8)
	var got [][]int
	for _, b := range bs {
		_ = MaximalCliquesBranchVisit(context.Background(), gc, b, sortedLeaves(func(c []int) bool {
			got = append(got, c)
			return true
		}))
	}
	if len(got) != 1 || len(got[0]) != 6 {
		t.Fatalf("complete graph via branches: %v", got)
	}
	if want := sortedCliques(gc); fmt.Sprint(want) != fmt.Sprint(got) {
		t.Fatalf("complete graph: want %v got %v", want, got)
	}
}
