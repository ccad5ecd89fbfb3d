package route

import (
	"apenetsim/internal/sim"
	"apenetsim/internal/torus"
	"apenetsim/internal/units"
)

// AdaptiveMinimal routes each hop through the least-backlogged minimal
// direction. The candidate set is torus.Dims.MinimalDirs — every
// direction that moves the packet one hop closer to its destination, so
// the route length always equals the fault-free hop count and the
// progress argument of dimension order carries over unchanged.
//
// The dimension-ordered direction (candidates[0]) is the escape channel:
// the router deviates only when another candidate's live queueing delay
// is strictly smaller, and resolves exact ties back to dimension order.
// A packet therefore always has the deterministic dimension-ordered path
// available, every deviation is justified by measured backlog at decision
// time, and a given (network state, seed) pair reproduces the same routes.
//
// The router is safe for concurrent use: in a sharded world each shard
// asks it about hops out of its own nodes, whose links — the only ones
// QueueDelay probes — that shard alone books.
type AdaptiveMinimal struct {
	seed  int64
	stats counters
}

// NewAdaptiveMinimal builds the adaptive router. seed varies tie-breaking
// among equally backlogged non-escape candidates; zero picks the first in
// dimension order.
func NewAdaptiveMinimal(seed int64) *AdaptiveMinimal {
	return &AdaptiveMinimal{seed: seed}
}

// Name implements Router.
func (r *AdaptiveMinimal) Name() string { return "adaptive" }

// NextHop implements Router.
func (r *AdaptiveMinimal) NextHop(v View, cur, dst torus.Coord, at sim.Time, wire units.ByteSize) (Decision, bool) {
	// Candidates and ties live in arrays on the stack: a decision
	// allocates nothing.
	var candBuf, tiedBuf [torus.NumDirs]torus.Dir
	cands := v.Torus().MinimalDirs(candBuf[:0], cur, dst)
	if len(cands) == 0 {
		return Decision{}, false
	}
	r.stats.decisions.Add(1)
	escape := cands[0] // the dimension-ordered choice
	if len(cands) == 1 {
		return Decision{Dir: escape}, true
	}
	escapeDelay := v.QueueDelay(cur, escape, at, wire)
	best := escapeDelay
	tied := tiedBuf[:0]
	for _, c := range cands[1:] {
		d := v.QueueDelay(cur, c, at, wire)
		switch {
		case d < best:
			best, tied = d, tied[:0]
			tied = append(tied, c)
		case d == best && best < escapeDelay:
			tied = append(tied, c)
		}
	}
	if best >= escapeDelay {
		// No candidate strictly beats the escape channel; stay on the
		// deterministic dimension-ordered path.
		if escapeDelay > 0 {
			r.stats.escapes.Add(1)
		}
		return Decision{Dir: escape}, true
	}
	r.stats.deviations.Add(1)
	if len(tied) == 1 || r.seed == 0 {
		return Decision{Dir: tied[0], Deviated: true}, true
	}
	return Decision{Dir: tied[int(mix(r.seed, cur, dst, at)%uint64(len(tied)))], Deviated: true}, true
}

// Reachable implements Router: minimal routing assumes a healthy torus.
func (r *AdaptiveMinimal) Reachable(v View, a, b torus.Coord) bool { return true }

// Stats implements Router.
func (r *AdaptiveMinimal) Stats() Stats { return r.stats.snapshot() }

// mix hashes the decision context into a deterministic tie-break value
// (splitmix64-style finalization; no global RNG state, so parallel
// experiments stay independent and replays stay exact).
func mix(seed int64, cur, dst torus.Coord, at sim.Time) uint64 {
	h := uint64(seed) ^ 0x9E3779B97F4A7C15
	for _, v := range []uint64{packCoord(cur), packCoord(dst), uint64(at)} {
		h ^= v
		h *= 0xBF58476D1CE4E5B9
		h ^= h >> 27
	}
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return h
}

func packCoord(c torus.Coord) uint64 {
	return uint64(c.X)<<42 | uint64(c.Y)<<21 | uint64(c.Z)
}
