// Package graph provides the graph500 substrate for the BFS study
// (§V.E): a Kronecker (R-MAT) edge generator with the official
// parameters, CSR construction, 1D vertex partitioning, and a BFS-tree
// validator in the spirit of the graph500 specification.
package graph

import (
	"fmt"
	"math/rand"
)

// Kronecker parameters from the graph500 reference (A,B,C,D).
const (
	ParamA = 0.57
	ParamB = 0.19
	ParamC = 0.19
	// ParamD = 1 - A - B - C = 0.05
)

// EdgeList is a list of directed edge endpoints (undirected graphs store
// each input edge once; CSR construction adds both directions).
type EdgeList struct {
	NumVertices int32
	Src, Dst    []int32
}

// Kronecker generates edgefactor*2^scale R-MAT edges over 2^scale
// vertices, deterministically from seed. Self-loops and duplicates are
// kept, like the reference generator (the CSR keeps them too; BFS is
// insensitive).
func Kronecker(scale, edgefactor int, seed int64) *EdgeList {
	if scale < 1 || scale > 30 {
		panic(fmt.Sprintf("graph: unreasonable scale %d", scale))
	}
	n := int32(1) << scale
	m := edgefactor << scale
	rng := rand.New(rand.NewSource(seed))
	el := &EdgeList{
		NumVertices: n,
		Src:         make([]int32, m),
		Dst:         make([]int32, m),
	}
	for e := 0; e < m; e++ {
		var u, v int32
		for bit := 0; bit < scale; bit++ {
			// The draw picks one quadrant: below A neither bit, below
			// A+B the v bit, below A+B+C the u bit, else both. Three
			// comparisons set the bits without a branch, which a random
			// draw would mispredict.
			r := rng.Float64()
			a, ab, abc := b2i(r >= ParamA), b2i(r >= ParamA+ParamB), b2i(r >= ParamA+ParamB+ParamC)
			u |= ab << bit
			v |= (a ^ ab ^ abc) << bit
		}
		el.Src[e], el.Dst[e] = u, v
	}
	// Permute vertex labels so high-degree vertices are not clustered at
	// low indices (the reference generator does the same).
	perm := rng.Perm(int(n))
	for e := range el.Src {
		el.Src[e] = int32(perm[el.Src[e]])
		el.Dst[e] = int32(perm[el.Dst[e]])
	}
	return el
}

// b2i is 1 for true and 0 for false; the compiler emits it as a flag
// set, not a branch.
func b2i(b bool) int32 {
	var i int32
	if b {
		i = 1
	}
	return i
}

// NumEdges returns the number of input (undirected) edges.
func (el *EdgeList) NumEdges() int { return len(el.Src) }

// CSR is a compressed sparse row adjacency structure with both edge
// directions stored.
type CSR struct {
	N      int32
	RowPtr []int64
	Col    []int32
}

// BuildCSR symmetrizes the edge list into CSR form.
func BuildCSR(el *EdgeList) *CSR {
	n := el.NumVertices
	deg := make([]int64, n+1)
	for i := range el.Src {
		deg[el.Src[i]+1]++
		deg[el.Dst[i]+1]++
	}
	for v := int32(0); v < n; v++ {
		deg[v+1] += deg[v]
	}
	g := &CSR{N: n, RowPtr: deg, Col: make([]int32, deg[n])}
	fill := make([]int64, n)
	for i := range el.Src {
		u, v := el.Src[i], el.Dst[i]
		g.Col[g.RowPtr[u]+fill[u]] = v
		fill[u]++
		g.Col[g.RowPtr[v]+fill[v]] = u
		fill[v]++
	}
	return g
}

// Degree returns the out-degree of v.
func (g *CSR) Degree(v int32) int64 { return g.RowPtr[v+1] - g.RowPtr[v] }

// Neighbors returns the adjacency slice of v (do not modify).
func (g *CSR) Neighbors(v int32) []int32 { return g.Col[g.RowPtr[v]:g.RowPtr[v+1]] }

// MaxDegreeVertex returns a vertex of maximal degree — a good BFS root
// for benchmarking (reaches the giant component immediately).
func (g *CSR) MaxDegreeVertex() int32 {
	var best int32
	var bestDeg int64 = -1
	for v := int32(0); v < g.N; v++ {
		if d := g.Degree(v); d > bestDeg {
			best, bestDeg = v, d
		}
	}
	return best
}

// Partition is a contiguous 1D block of vertices owned by one rank.
type Partition struct {
	Rank, NP int
	Lo, Hi   int32 // owned vertex range [Lo, Hi)
}

// Partition1D splits n vertices into np near-equal contiguous blocks.
func Partition1D(n int32, np int) []Partition {
	parts := make([]Partition, np)
	base := n / int32(np)
	rem := n % int32(np)
	lo := int32(0)
	for r := 0; r < np; r++ {
		sz := base
		if int32(r) < rem {
			sz++
		}
		parts[r] = Partition{Rank: r, NP: np, Lo: lo, Hi: lo + sz}
		lo += sz
	}
	return parts
}

// Owner returns the rank owning vertex v under the same splitting rule.
func Owner(n int32, np int, v int32) int { return NewSplit(n, np).Owner(v) }

// Split is Partition1D's splitting rule for one vertex and rank count,
// worked out once so that finding an owner costs one division.
type Split struct {
	base, rem, cut int32
}

// NewSplit returns the split of n vertices over np ranks.
func NewSplit(n int32, np int) Split {
	base := n / int32(np)
	rem := n % int32(np)
	// First `rem` ranks own base+1 vertices.
	return Split{base: base, rem: rem, cut: rem * (base + 1)}
}

// Owner returns the rank owning vertex v.
func (s Split) Owner(v int32) int {
	if v < s.cut {
		return int(v / (s.base + 1))
	}
	return int(s.rem + (v-s.cut)/s.base)
}

// ValidateBFSTree checks a parent array against the graph, graph500
// style: the root is its own parent; every reached vertex's parent edge
// exists in the graph; levels increase by exactly one along parent
// links; and the reached set matches want (if want >= 0).
func ValidateBFSTree(g *CSR, root int32, parent []int32, wantReached int64) error {
	if parent[root] != root {
		return fmt.Errorf("graph: root %d has parent %d", root, parent[root])
	}
	level := make([]int32, g.N)
	for i := range level {
		level[i] = -1
	}
	level[root] = 0
	// Compute levels by chasing parents (with cycle guard).
	var reached int64
	for v := int32(0); v < g.N; v++ {
		if parent[v] < 0 {
			continue
		}
		reached++
		// Chase to a labeled ancestor.
		var chain []int32
		u := v
		for level[u] < 0 {
			chain = append(chain, u)
			u = parent[u]
			if len(chain) > int(g.N) {
				return fmt.Errorf("graph: parent cycle at %d", v)
			}
		}
		base := level[u]
		for i := len(chain) - 1; i >= 0; i-- {
			base++
			level[chain[i]] = base
		}
	}
	if wantReached >= 0 && reached != wantReached {
		return fmt.Errorf("graph: reached %d vertices, want %d", reached, wantReached)
	}
	// Parent edges must exist; levels differ by one.
	for v := int32(0); v < g.N; v++ {
		if parent[v] < 0 || v == root {
			continue
		}
		u := parent[v]
		if level[v] != level[u]+1 {
			return fmt.Errorf("graph: level[%d]=%d but level[parent=%d]=%d", v, level[v], u, level[u])
		}
		if !hasEdge(g, u, v) {
			return fmt.Errorf("graph: parent edge %d->%d not in graph", u, v)
		}
	}
	return nil
}

func hasEdge(g *CSR, u, v int32) bool {
	nb := g.Neighbors(u)
	if len(nb) > 64 {
		// Binary search requires sorted adjacency; fall back to a scan
		// because we keep generator order. Sort a copy once is overkill;
		// scan is fine for validation.
		for _, w := range nb {
			if w == v {
				return true
			}
		}
		return false
	}
	for _, w := range nb {
		if w == v {
			return true
		}
	}
	return false
}
