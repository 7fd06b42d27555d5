package graph

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// stackVisitor reconstructs leaves purely from Descend/Ascend/Leaf,
// checking at each Leaf that the tracked stack matches the r the walk
// passes in — the property the incremental world evaluation depends on.
type stackVisitor struct {
	t        *testing.T
	stack    []int
	leaves   map[string]int
	maxDepth int
	stopAt   int // stop on the n-th Leaf when > 0
	seen     int
}

func (v *stackVisitor) Descend(x int) bool {
	v.stack = append(v.stack, x)
	if len(v.stack) > v.maxDepth {
		v.maxDepth = len(v.stack)
	}
	return true
}

func (v *stackVisitor) Ascend() {
	if len(v.stack) == 0 {
		v.t.Fatal("Ascend on an empty stack")
	}
	v.stack = v.stack[:len(v.stack)-1]
}

func (v *stackVisitor) Leaf(r []int) bool {
	if fmt.Sprint(r) != fmt.Sprint(v.stack) {
		v.t.Fatalf("Leaf r %v does not match the Descend stack %v", r, v.stack)
	}
	c := append([]int(nil), r...)
	sort.Ints(c)
	v.leaves[cliqueKey(c)]++
	v.seen++
	return v.stopAt == 0 || v.seen < v.stopAt
}

// TestVisitLeavesMatchMaximalCliques: the visitor walk's leaves are
// exactly the brute-force maximal cliques, and a completed walk leaves
// the Descend/Ascend stack balanced.
func TestVisitLeavesMatchMaximalCliques(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 80; trial++ {
		n := r.Intn(14) // includes the empty graph
		g := randomGraph(r, n, []float64{0.1, 0.5, 0.9}[trial%3])
		want := map[string]int{}
		for _, c := range bruteMaximalCliques(g) {
			want[cliqueKey(c)]++
		}
		vis := &stackVisitor{t: t, leaves: map[string]int{}}
		if err := MaximalCliquesVisit(context.Background(), g, vis); err != nil {
			t.Fatal(err)
		}
		if len(vis.stack) != 0 {
			t.Fatalf("trial %d: unbalanced walk, %d Descends left", trial, len(vis.stack))
		}
		if fmt.Sprint(vis.leaves) != fmt.Sprint(want) {
			t.Fatalf("trial %d (n=%d): visitor leaves %v, want %v", trial, n, vis.leaves, want)
		}
	}
}

// TestVisitBranchesPartition: branch walks replay the branch prefix as
// Descends, unwind it on completion, and together cover every maximal
// clique exactly once — the contract the branch-parallel incremental
// search builds on.
func TestVisitBranchesPartition(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		n := 1 + r.Intn(13)
		g := randomGraph(r, n, []float64{0.2, 0.6, 0.95}[trial%3])
		want := map[string]int{}
		for _, c := range bruteMaximalCliques(g) {
			want[cliqueKey(c)]++
		}
		for _, min := range []int{2, 8, 32} {
			got := map[string]int{}
			for _, b := range CliqueBranches(g, min) {
				vis := &stackVisitor{t: t, leaves: got}
				if err := MaximalCliquesBranchVisit(context.Background(), g, b, vis); err != nil {
					t.Fatal(err)
				}
				if len(vis.stack) != 0 {
					t.Fatalf("branch %v: unbalanced walk, stack %v", b.r, vis.stack)
				}
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("n=%d min=%d: branch-visit leaves %v, want %v", n, min, got, want)
			}
		}
	}
}

// TestVisitEarlyStop: a stopping Leaf halts the walk with no further
// callbacks, leaving the stack exactly at the stopping path.
func TestVisitEarlyStop(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	g := randomGraph(r, 12, 0.7)
	total := len(AllMaximalCliques(g))
	if total < 3 {
		t.Skip("graph too small for the stop test")
	}
	vis := &stackVisitor{t: t, leaves: map[string]int{}, stopAt: 2}
	if err := MaximalCliquesVisit(context.Background(), g, vis); err != nil {
		t.Fatal(err)
	}
	if vis.seen != 2 {
		t.Fatalf("saw %d leaves after stopping at 2", vis.seen)
	}
	if len(vis.stack) == 0 {
		t.Fatal("stopped walk should leave the violating path on the stack")
	}
}

// descendStopper stops the walk on the k-th Descend.
type descendStopper struct {
	k, descends, leaves int
}

func (v *descendStopper) Descend(int) bool { v.descends++; return v.descends < v.k }
func (v *descendStopper) Ascend()          {}
func (v *descendStopper) Leaf([]int) bool  { v.leaves++; return true }

// TestVisitDescendStop: Descend returning false stops the whole walk.
func TestVisitDescendStop(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	g := randomGraph(r, 12, 0.7)
	vis := &descendStopper{k: 3}
	if err := MaximalCliquesVisit(context.Background(), g, vis); err != nil {
		t.Fatal(err)
	}
	if vis.descends != 3 {
		t.Fatalf("descends = %d, want exactly 3", vis.descends)
	}
	// A branch prefix that refuses to descend also stops cleanly.
	for _, b := range CliqueBranches(g, 8) {
		if len(b.r) == 0 {
			continue
		}
		stop := &descendStopper{k: 1}
		if err := MaximalCliquesBranchVisit(context.Background(), g, b, stop); err != nil {
			t.Fatal(err)
		}
		if stop.leaves != 0 {
			t.Fatalf("prefix-stopped branch still reached %d leaves", stop.leaves)
		}
	}
}

// TestVisitCancellation: a cancelled context stops the walk and
// surfaces the context's error.
func TestVisitCancellation(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	g := randomGraph(r, 18, 0.9)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	vis := &stackVisitor{t: t, leaves: map[string]int{}}
	if err := MaximalCliquesVisit(ctx, g, vis); err == nil {
		t.Fatal("cancelled visit returned nil error")
	}
	if vis.seen != 0 {
		t.Fatalf("cancelled visit still saw %d leaves", vis.seen)
	}
}
