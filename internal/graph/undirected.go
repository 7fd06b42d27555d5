package graph

// Undirected is a simple undirected graph over vertices 0..n-1 with
// bitset adjacency rows, sized for the dense neighborhood queries of
// Bron–Kerbosch.
type Undirected struct {
	n   int
	adj []Bitset
}

// NewUndirected returns an edgeless graph on n vertices.
func NewUndirected(n int) *Undirected {
	g := &Undirected{n: n, adj: make([]Bitset, n)}
	for i := range g.adj {
		g.adj[i] = NewBitset(n)
	}
	return g
}

// NewComplete returns the complete graph on n vertices (every pair
// adjacent, no self-loops), filling adjacency words directly so that
// construction is O(n²/64) rather than O(n²).
func NewComplete(n int) *Undirected {
	g := NewUndirected(n)
	for v := 0; v < n; v++ {
		row := g.adj[v]
		for i := range row {
			row[i] = ^uint64(0)
		}
		if rem := uint(n) & 63; rem != 0 {
			row[len(row)-1] = (1 << rem) - 1
		}
		row.Clear(v)
	}
	return g
}

// RemoveEdge deletes the undirected edge {u, v} if present.
func (g *Undirected) RemoveEdge(u, v int) {
	if u == v {
		return
	}
	g.adj[u].Clear(v)
	g.adj[v].Clear(u)
}

// Len returns the number of vertices.
func (g *Undirected) Len() int { return g.n }

// AddEdge inserts the undirected edge {u, v}. Self-loops are ignored.
func (g *Undirected) AddEdge(u, v int) {
	if u == v {
		return
	}
	g.adj[u].Set(v)
	g.adj[v].Set(u)
}

// HasEdge reports whether {u, v} is an edge.
func (g *Undirected) HasEdge(u, v int) bool { return g.adj[u].Has(v) }

// Neighbors returns the adjacency bitset of v. The caller must not
// modify it.
func (g *Undirected) Neighbors(v int) Bitset { return g.adj[v] }

// Subgraph returns the induced subgraph on the given vertices together
// with the mapping from new vertex index to original vertex.
func (g *Undirected) Subgraph(vertices []int) (*Undirected, []int) {
	idx := make(map[int]int, len(vertices))
	for i, v := range vertices {
		idx[v] = i
	}
	sub := NewUndirected(len(vertices))
	for i, v := range vertices {
		g.adj[v].ForEach(func(u int) {
			if j, ok := idx[u]; ok && j > i {
				sub.AddEdge(i, j)
			}
		})
	}
	return sub, append([]int(nil), vertices...)
}
