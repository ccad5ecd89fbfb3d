// Package bfs implements the paper's second application study (§V.E): a
// level-synchronous breadth-first search distributed over a cluster of
// GPUs with 1D vertex partitioning. The traversal itself is real — real
// Kronecker graphs, real frontiers, real per-destination update lists
// whose sizes drive the simulated communication — while GPU kernel
// durations come from a calibrated model. The result is the paper's
// Table IV (TEPS strong scaling, APEnet+ vs InfiniBand) and Fig 12
// (per-task time breakdown).
package bfs

import (
	"apenetsim/internal/graph"
)

// Serial runs a reference BFS and returns the parent array (-1 for
// unreached vertices).
func Serial(g *graph.CSR, root int32) []int32 {
	parent := make([]int32, g.N)
	for i := range parent {
		parent[i] = -1
	}
	parent[root] = root
	frontier := []int32{root}
	for len(frontier) > 0 {
		var next []int32
		for _, u := range frontier {
			for _, v := range g.Neighbors(u) {
				if parent[v] < 0 {
					parent[v] = u
					next = append(next, v)
				}
			}
		}
		frontier = next
	}
	return parent
}

// CountReached returns the number of vertices with a parent.
func CountReached(parent []int32) int64 {
	var n int64
	for _, p := range parent {
		if p >= 0 {
			n++
		}
	}
	return n
}

// Update is one (vertex, parent) pair shipped between ranks; 8 bytes on
// the wire, like the real code's packed frontier updates.
type Update struct {
	V, Parent int32
}

// UpdateBytes is the wire size of one Update.
const UpdateBytes = 8

// RankState is one rank's share of a distributed level-synchronous BFS.
// It is pure algorithm — no simulation types — so it is testable in
// isolation and reused verbatim by the simulated driver.
type RankState struct {
	Part graph.Partition
	G    *graph.CSR // global CSR; this rank only reads its own rows

	Parent  []int32 // local slice, index v-Lo
	visited []bool
	front   []int32 // current frontier (owned vertices)
	next    []int32 // assembled during expand/apply
	// seen is Expand's per-tile dedup set, one bit per global vertex;
	// each tile clears the bits it set before the next one starts.
	seen []uint64
}

// NewRankState initializes a rank; if the BFS root is owned, it seeds the
// frontier.
func NewRankState(g *graph.CSR, part graph.Partition, root int32) *RankState {
	n := part.Hi - part.Lo
	st := &RankState{Part: part, G: g, Parent: make([]int32, n), visited: make([]bool, n),
		seen: make([]uint64, (g.N+63)/64)}
	for i := range st.Parent {
		st.Parent[i] = -1
	}
	if root >= part.Lo && root < part.Hi {
		st.Parent[root-part.Lo] = root
		st.visited[root-part.Lo] = true
		st.front = []int32{root}
	}
	return st
}

// FrontierLen returns the current frontier size.
func (st *RankState) FrontierLen() int { return len(st.front) }

// DedupTile is the number of frontier vertices whose remote updates are
// deduplicated together, modeling the real kernel's per-thread-block
// shared-memory hash: duplicates within a block are dropped before the
// update lists leave the GPU, but the sender still cannot suppress
// cross-block duplicates or already-visited remote vertices — so the
// communication volume grows with the cut, which is exactly why "the
// improvement to the communication efficiency that a direct GPU to GPU
// data exchange may provide is of special importance" (§V.E).
const DedupTile = 256

// Expand scans the local frontier: locally-owned discoveries are applied
// immediately; remote ones are bucketed per owner rank with per-tile
// deduplication.
func (st *RankState) Expand(np int) (out [][]Update, scanned int64) {
	out = make([][]Update, np)
	split := graph.NewSplit(st.G.N, np)
	lo, hi := st.Part.Lo, st.Part.Hi
	tileStart := make([]int, np) // len(out[o]) when the tile began
	for tile := 0; tile < len(st.front); tile += DedupTile {
		end := tile + DedupTile
		if end > len(st.front) {
			end = len(st.front)
		}
		for o := range out {
			tileStart[o] = len(out[o])
		}
		for _, u := range st.front[tile:end] {
			for _, v := range st.G.Neighbors(u) {
				scanned++
				if v >= lo && v < hi {
					li := v - lo
					if !st.visited[li] {
						st.visited[li] = true
						st.Parent[li] = u
						st.next = append(st.next, v)
					}
					continue
				}
				if w, bit := v>>6, uint64(1)<<(v&63); st.seen[w]&bit == 0 {
					st.seen[w] |= bit
					owner := split.Owner(v)
					out[owner] = append(out[owner], Update{V: v, Parent: u})
				}
			}
		}
		// The tile's set bits are exactly the updates it appended.
		for o := range out {
			for _, up := range out[o][tileStart[o]:] {
				st.seen[up.V>>6] &^= uint64(1) << (up.V & 63)
			}
		}
	}
	return out, scanned
}

// Apply merges incoming remote updates, finishes the level, and returns
// the size of the new local frontier.
func (st *RankState) Apply(incoming []Update) int {
	for _, up := range incoming {
		li := up.V - st.Part.Lo
		if !st.visited[li] {
			st.visited[li] = true
			st.Parent[li] = up.Parent
			st.next = append(st.next, up.V)
		}
	}
	st.front = st.next
	st.next = nil
	return len(st.front)
}

// RunInProcess executes the distributed algorithm with np ranks in one
// process (no simulation): used to validate that the decomposed traversal
// equals the serial one.
func RunInProcess(g *graph.CSR, np int, root int32) []int32 {
	parts := graph.Partition1D(g.N, np)
	ranks := make([]*RankState, np)
	for r := 0; r < np; r++ {
		ranks[r] = NewRankState(g, parts[r], root)
	}
	for {
		all := make([][][]Update, np) // all[src][dst]
		for r := 0; r < np; r++ {
			all[r], _ = ranks[r].Expand(np)
		}
		total := 0
		for r := 0; r < np; r++ {
			var in []Update
			for s := 0; s < np; s++ {
				if s != r {
					in = append(in, all[s][r]...)
				}
			}
			total += ranks[r].Apply(in)
		}
		if total == 0 {
			break
		}
	}
	parent := make([]int32, g.N)
	for r := 0; r < np; r++ {
		copy(parent[parts[r].Lo:parts[r].Hi], ranks[r].Parent)
	}
	return parent
}
