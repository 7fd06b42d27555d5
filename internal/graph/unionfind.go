package graph

// UnionFind is a disjoint-set forest with union by rank and path
// halving that can grow after construction. OptDCSat uses it to split
// pending transactions into the connected components of the
// ind-q-transaction graph without materializing that graph's edges;
// the state-bridge phase adds committed tuples as nodes as it discovers
// them.
type UnionFind struct {
	parent []int
	rank   []uint8
}

// NewUnionFind returns n singleton sets.
func NewUnionFind(n int) *UnionFind {
	uf := &UnionFind{parent: make([]int, n), rank: make([]uint8, n)}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

// Len returns the number of elements.
func (uf *UnionFind) Len() int { return len(uf.parent) }

// Add appends a new singleton set and returns its element.
func (uf *UnionFind) Add() int {
	id := len(uf.parent)
	uf.parent = append(uf.parent, id)
	uf.rank = append(uf.rank, 0)
	return id
}

// Find returns the canonical representative of x's set.
func (uf *UnionFind) Find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

// Union merges the sets of a and b, returning true if they were
// distinct.
func (uf *UnionFind) Union(a, b int) bool {
	ra, rb := uf.Find(a), uf.Find(b)
	if ra == rb {
		return false
	}
	if uf.rank[ra] < uf.rank[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	if uf.rank[ra] == uf.rank[rb] {
		uf.rank[ra]++
	}
	return true
}
