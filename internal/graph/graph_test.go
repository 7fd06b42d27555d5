package graph

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestBitsetBasics(t *testing.T) {
	b := NewBitset(130)
	for _, i := range []int{0, 63, 64, 129} {
		b.Set(i)
	}
	if b.Count() != 4 {
		t.Errorf("Count = %d", b.Count())
	}
	if !b.Has(64) || b.Has(65) {
		t.Error("Has wrong")
	}
	b.Clear(64)
	if b.Has(64) || b.Count() != 3 {
		t.Error("Clear wrong")
	}
	if got := b.Elements(); !reflect.DeepEqual(got, []int{0, 63, 129}) {
		t.Errorf("Elements = %v", got)
	}
	if b.First() != 0 {
		t.Errorf("First = %d", b.First())
	}
	if NewBitset(10).First() != -1 {
		t.Error("First of empty should be -1")
	}
	if !NewBitset(5).Empty() || b.Empty() {
		t.Error("Empty wrong")
	}
}

func TestBitsetOps(t *testing.T) {
	a, b := NewBitset(100), NewBitset(100)
	a.Set(1)
	a.Set(70)
	a.Set(99)
	b.Set(70)
	b.Set(99)
	b.Set(2)
	if got := a.And(b).Elements(); !reflect.DeepEqual(got, []int{70, 99}) {
		t.Errorf("And = %v", got)
	}
	if got := a.AndNot(b).Elements(); !reflect.DeepEqual(got, []int{1}) {
		t.Errorf("AndNot = %v", got)
	}
	if a.IntersectCount(b) != 2 {
		t.Errorf("IntersectCount = %d", a.IntersectCount(b))
	}
	c := a.Clone()
	c.Clear(1)
	if !a.Has(1) {
		t.Error("Clone aliases the original")
	}
}

func TestUndirectedBasics(t *testing.T) {
	g := NewUndirected(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(3, 3) // self loop ignored
	if !g.HasEdge(1, 0) || !g.HasEdge(2, 1) {
		t.Error("symmetry broken")
	}
	if g.HasEdge(3, 3) {
		t.Error("self loop stored")
	}
	if edgeCount(g) != 2 {
		t.Errorf("edge count = %d", edgeCount(g))
	}
	if g.Neighbors(1).Count() != 2 || g.Neighbors(4).Count() != 0 {
		t.Error("degrees wrong")
	}
	comps := ufComponents(g)
	if len(comps) != 3 {
		t.Fatalf("components = %v", comps)
	}
	if !reflect.DeepEqual(comps[0], []int{0, 1, 2}) {
		t.Errorf("first component = %v", comps[0])
	}
}

// edgeCount counts the undirected edges of g.
func edgeCount(g *Undirected) int {
	total := 0
	for v := 0; v < g.Len(); v++ {
		total += g.Neighbors(v).Count()
	}
	return total / 2
}

// ufComponents returns g's connected components through UnionFind,
// each sorted ascending, ordered by smallest member.
func ufComponents(g *Undirected) [][]int {
	uf := NewUnionFind(g.Len())
	for u := 0; u < g.Len(); u++ {
		g.Neighbors(u).ForEach(func(v int) { uf.Union(u, v) })
	}
	return ufGroups(uf)
}

// ufGroups returns the sets of uf as sorted slices, ordered by smallest
// member.
func ufGroups(uf *UnionFind) [][]int {
	byRoot := make(map[int][]int)
	var roots []int
	for i := 0; i < uf.Len(); i++ {
		r := uf.Find(i)
		if _, ok := byRoot[r]; !ok {
			roots = append(roots, r)
		}
		byRoot[r] = append(byRoot[r], i)
	}
	out := make([][]int, len(roots))
	for i, r := range roots {
		out[i] = byRoot[r] // ascending: members were appended in order
	}
	return out
}

func TestSubgraph(t *testing.T) {
	g := NewUndirected(5)
	g.AddEdge(0, 2)
	g.AddEdge(2, 4)
	g.AddEdge(1, 3)
	sub, back := g.Subgraph([]int{0, 2, 4})
	if sub.Len() != 3 || edgeCount(sub) != 2 {
		t.Fatalf("subgraph: %d vertices %d edges", sub.Len(), edgeCount(sub))
	}
	if !sub.HasEdge(0, 1) || !sub.HasEdge(1, 2) || sub.HasEdge(0, 2) {
		t.Error("subgraph edges wrong")
	}
	if !reflect.DeepEqual(back, []int{0, 2, 4}) {
		t.Errorf("back map = %v", back)
	}
}

// bruteMaximalCliques enumerates maximal cliques by subset search —
// exponential, for cross-validation on small graphs only.
func bruteMaximalCliques(g *Undirected) [][]int {
	n := g.Len()
	isClique := func(mask int) bool {
		for u := 0; u < n; u++ {
			if mask&(1<<u) == 0 {
				continue
			}
			for v := u + 1; v < n; v++ {
				if mask&(1<<v) != 0 && !g.HasEdge(u, v) {
					return false
				}
			}
		}
		return true
	}
	var maximal [][]int
	for m := 0; m < 1<<n; m++ {
		if !isClique(m) {
			continue
		}
		// Cliques are closed under subsets, so a clique is maximal
		// exactly when no single outside vertex extends it.
		isMax := true
		for v := 0; v < n && isMax; v++ {
			if m&(1<<v) == 0 && isClique(m|1<<v) {
				isMax = false
			}
		}
		if isMax {
			var members []int
			for v := 0; v < n; v++ {
				if m&(1<<v) != 0 {
					members = append(members, v)
				}
			}
			maximal = append(maximal, members)
		}
	}
	return maximal
}

func canonicalize(cliques [][]int) []string {
	out := make([]string, 0, len(cliques))
	for _, c := range cliques {
		s := ""
		for _, v := range c {
			s += string(rune('a' + v))
		}
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

func randomGraph(r *rand.Rand, n int, p float64) *Undirected {
	g := NewUndirected(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Float64() < p {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

// TestMaximalCliquesAgainstBruteForce cross-validates both the pivoted
// and unpivoted Bron–Kerbosch against subset enumeration on random
// graphs of up to 10 vertices and varying densities.
func TestMaximalCliquesAgainstBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(10)
		g := randomGraph(r, n, []float64{0.1, 0.3, 0.5, 0.8, 1.0}[r.Intn(5)])
		want := canonicalize(bruteMaximalCliques(g))
		got := canonicalize(AllMaximalCliques(g))
		var gotNoPivot [][]int
		MaximalCliquesNoPivot(g, func(c []int) bool {
			gotNoPivot = append(gotNoPivot, c)
			return true
		})
		return reflect.DeepEqual(got, want) &&
			reflect.DeepEqual(canonicalize(gotNoPivot), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMaximalCliquesEdgeless(t *testing.T) {
	// Edgeless graph: each vertex is its own maximal clique.
	g := NewUndirected(4)
	got := AllMaximalCliques(g)
	if len(got) != 4 {
		t.Errorf("edgeless cliques = %v", got)
	}
	// Empty graph: single empty clique.
	empty := AllMaximalCliques(NewUndirected(0))
	if len(empty) != 1 || len(empty[0]) != 0 {
		t.Errorf("empty graph cliques = %v", empty)
	}
	var n int
	MaximalCliquesNoPivot(NewUndirected(0), func(c []int) bool { n++; return true })
	if n != 1 {
		t.Errorf("no-pivot empty graph cliques = %d", n)
	}
}

func TestMaximalCliquesComplete(t *testing.T) {
	g := NewUndirected(6)
	for u := 0; u < 6; u++ {
		for v := u + 1; v < 6; v++ {
			g.AddEdge(u, v)
		}
	}
	got := AllMaximalCliques(g)
	if len(got) != 1 || len(got[0]) != 6 {
		t.Errorf("complete graph cliques = %v", got)
	}
}

func TestMaximalCliquesEarlyStop(t *testing.T) {
	g := NewUndirected(8) // edgeless: 8 maximal cliques
	n := 0
	MaximalCliques(g, func([]int) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Errorf("early stop visited %d cliques", n)
	}
	n = 0
	MaximalCliquesNoPivot(g, func([]int) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Errorf("no-pivot early stop visited %d cliques", n)
	}
}

func TestUnionFind(t *testing.T) {
	uf := NewUnionFind(5)
	if uf.Len() != 5 {
		t.Fatal("initial state wrong")
	}
	if !uf.Union(0, 1) || !uf.Union(1, 2) {
		t.Error("unions should report merges")
	}
	if uf.Union(0, 2) {
		t.Error("redundant union should report false")
	}
	uf.Union(3, 4)
	if id := uf.Add(); id != 5 || uf.Len() != 6 || uf.Find(id) != id {
		t.Fatalf("Add = %d (Len %d): want a new singleton 5", id, uf.Len())
	}
	if uf.Find(0) != uf.Find(2) || uf.Find(0) == uf.Find(3) || uf.Find(5) == uf.Find(4) {
		t.Error("connectivity wrong")
	}
	comps := ufGroups(uf)
	want := [][]int{{0, 1, 2}, {3, 4}, {5}}
	if !reflect.DeepEqual(comps, want) {
		t.Errorf("groups = %v, want %v", comps, want)
	}
	uf.Add()
	uf.Union(6, 3)
	if want := [][]int{{0, 1, 2}, {3, 4, 6}, {5}}; !reflect.DeepEqual(ufGroups(uf), want) {
		t.Errorf("after Add and Union: groups = %v, want %v", ufGroups(uf), want)
	}
}

// TestUnionFindAgainstBFS cross-validates union-find components against
// graph BFS components on random graphs.
func TestUnionFindAgainstBFS(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(30)
		g := randomGraph(r, n, 0.1)
		fromGraph := ufComponents(g)
		// BFS reference.
		visited := make([]bool, n)
		var bfsComps [][]int
		for s := 0; s < n; s++ {
			if visited[s] {
				continue
			}
			var comp []int
			queue := []int{s}
			visited[s] = true
			for len(queue) > 0 {
				v := queue[0]
				queue = queue[1:]
				comp = append(comp, v)
				g.Neighbors(v).ForEach(func(u int) {
					if !visited[u] {
						visited[u] = true
						queue = append(queue, u)
					}
				})
			}
			sort.Ints(comp)
			bfsComps = append(bfsComps, comp)
		}
		sort.Slice(bfsComps, func(i, j int) bool { return bfsComps[i][0] < bfsComps[j][0] })
		return reflect.DeepEqual(fromGraph, bfsComps)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
