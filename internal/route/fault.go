package route

import (
	"sync"

	"apenetsim/internal/sim"
	"apenetsim/internal/torus"
	"apenetsim/internal/units"
)

// FaultAware routes on a per-destination breadth-first distance field
// computed over the links currently up: each hop moves to a neighbor
// strictly closer to the destination in the degraded topology, so routes
// stay finite even when they must be non-minimal to get around a dead
// cable. On a healthy torus the distance field equals the hop count and
// the tie-break prefers the dimension-ordered direction, so FaultAware is
// path-identical to DimensionOrder until a link actually goes down.
//
// Distance fields are cached per destination and invalidated when the
// view's StateEpoch changes (a link was marked up or down). When a
// destination's field has no finite entry for the current node the torus
// is partitioned: NextHop and Reachable report it instead of hanging.
//
// The router is safe for concurrent use by the shards of a sharded
// world: mu guards the cache, and a cached field is never written again,
// so callers read it unlocked. Fields are a pure function of the link
// state, so which shard computes one first does not matter.
type FaultAware struct {
	stats counters
	mu    sync.Mutex
	epoch uint64
	dist  map[int][]int // dst rank -> per-node hops to dst (-1 unreachable)
}

// NewFaultAware builds the fault-aware router.
func NewFaultAware() *FaultAware { return &FaultAware{} }

// Name implements Router.
func (r *FaultAware) Name() string { return "fault" }

// table returns the distance-to-dst field, computing and caching it on
// first use per (dst, link-state epoch). The BFS walks edges backwards:
// a neighbor w of a settled node u is one hop further from dst when the
// directed link w->u is up.
func (r *FaultAware) table(v View, dst torus.Coord) []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.dist == nil || v.StateEpoch() != r.epoch {
		r.epoch = v.StateEpoch()
		r.dist = map[int][]int{}
	}
	d := v.Torus()
	dstRank := d.Rank(dst)
	if t, ok := r.dist[dstRank]; ok {
		return t
	}
	t := make([]int, d.Nodes())
	for i := range t {
		t[i] = -1
	}
	t[dstRank] = 0
	queue := []int{dstRank}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		uc := d.CoordOf(u)
		for dir := torus.Dir(0); dir < torus.NumDirs; dir++ {
			w := d.Neighbor(uc, dir)
			wr := d.Rank(w)
			if wr == u || t[wr] >= 0 {
				continue
			}
			// The link from w back to u is (w, dir.Opposite()).
			if !v.LinkUp(w, dir.Opposite()) {
				continue
			}
			t[wr] = t[u] + 1
			queue = append(queue, wr)
		}
	}
	r.dist[dstRank] = t
	return t
}

// NextHop implements Router: any up link whose far end is one hop closer
// on the degraded distance field, preferring the dimension-ordered
// direction when it still qualifies and the lowest direction otherwise.
// On a fault-free field the dimension-ordered direction always
// qualifies, so any deviation here was forced by down links — possibly
// downstream of cur, not just the local link — and is reported as a
// fault detour.
func (r *FaultAware) NextHop(v View, cur, dst torus.Coord, at sim.Time, wire units.ByteSize) (Decision, bool) {
	d := v.Torus()
	t := r.table(v, dst)
	dc := t[d.Rank(cur)]
	if dc <= 0 {
		if dc < 0 {
			r.stats.unreachable.Add(1)
		}
		return Decision{}, false
	}
	r.stats.decisions.Add(1)
	if dor, ok := d.FirstHop(cur, dst); ok && v.LinkUp(cur, dor) &&
		t[d.Rank(d.Neighbor(cur, dor))] == dc-1 {
		return Decision{Dir: dor}, true
	}
	for dir := torus.Dir(0); dir < torus.NumDirs; dir++ {
		if !v.LinkUp(cur, dir) {
			continue
		}
		w := d.Neighbor(cur, dir)
		if w == cur || t[d.Rank(w)] != dc-1 {
			continue
		}
		r.stats.deviations.Add(1)
		return Decision{Dir: dir, Deviated: true, FaultDetour: true}, true
	}
	// Unreachable from here despite a finite distance cannot happen: a
	// finite dc implies some up link reaches a node at dc-1.
	r.stats.unreachable.Add(1)
	return Decision{}, false
}

// Reachable implements Router.
func (r *FaultAware) Reachable(v View, a, b torus.Coord) bool {
	if a == b {
		return true
	}
	if r.table(v, b)[v.Torus().Rank(a)] >= 0 {
		return true
	}
	r.stats.unreachable.Add(1)
	return false
}

// Stats implements Router.
func (r *FaultAware) Stats() Stats { return r.stats.snapshot() }
