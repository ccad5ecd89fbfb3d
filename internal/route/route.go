// Package route implements pluggable packet routing for the simulated
// APEnet+ 3D torus. The paper's router is strictly dimension-ordered
// (X, then Y, then Z, shorter way around each ring); the 28 nm follow-up
// ("Architectural improvements and 28 nm FPGA implementation of the
// APEnet+ 3D Torus network") targets smarter switching for larger tori,
// and LQCD-scale machines must keep running as links degrade. Three
// routers live behind one interface, selected per network via
// core.Config.Routing (mirroring the v2p.Translator pattern):
//
//   - DimensionOrder: the paper's static router. Path- and cost-identical
//     to the historical torus.Dims.Route behavior — the default, so all
//     existing experiment outputs are unchanged.
//   - AdaptiveMinimal: per-hop choice among the minimal-direction
//     candidates (torus.Dims.MinimalDirs), picking the link with the
//     smallest live queueing backlog. The dimension-ordered direction is
//     the escape channel: the packet deviates only when another minimal
//     link is strictly less backlogged, and falls back to dimension order
//     on ties, so every hop still reduces distance and routes stay
//     finite, deadlock-free and reproducible under a seed.
//   - FaultAware: routes on a breadth-first distance field that excludes
//     links marked down (core's Network.SetLinkState), detouring around
//     dead cables — non-minimally when it must — and reporting
//     unreachability when the torus is partitioned instead of hanging.
//
// Routers are deterministic: the same call sequence against the same
// view state yields the same hops. They hold no packet state; the
// network asks them one hop at a time.
package route

import (
	"fmt"
	"sync/atomic"

	"apenetsim/internal/sim"
	"apenetsim/internal/torus"
	"apenetsim/internal/units"
)

// View is the router's read-only window onto the network: topology, link
// health, and live per-link queueing. core.Network implements it.
type View interface {
	// Torus returns the network dimensions.
	Torus() torus.Dims
	// LinkUp reports whether the directed link out of `from` in direction
	// dir is in service.
	LinkUp(from torus.Coord, dir torus.Dir) bool
	// QueueDelay returns how long a packet of wire bytes asking for the
	// directed link (from, dir) at time `at` would wait for the wire —
	// the link's live backlog as seen by that packet.
	QueueDelay(from torus.Coord, dir torus.Dir, at sim.Time, wire units.ByteSize) sim.Duration
	// StateEpoch increments whenever link up/down state changes; routers
	// use it to invalidate cached reachability data.
	StateEpoch() uint64
}

// Stats counts a router's decisions. One router instance serves a whole
// network, so the counters are network-wide; per-injecting-card counters
// live in core.CardStats.
type Stats struct {
	// Decisions is the number of hops chosen.
	Decisions int64
	// Deviations is the number of hops chosen off the dimension-ordered
	// direction (always zero for DimensionOrder).
	Deviations int64
	// Escapes counts adaptive decisions that took the dimension-ordered
	// escape channel even though it had backlog, because no other minimal
	// candidate was strictly better.
	Escapes int64
	// Unreachable counts routing requests that found no path (partitioned
	// torus under FaultAware).
	Unreachable int64
}

// counters is the atomic form of Stats that routers keep: one router
// serves every shard of a sharded world, so concurrent NextHop calls add
// to the same counters.
type counters struct {
	decisions, deviations, escapes, unreachable atomic.Int64
}

func (c *counters) snapshot() Stats {
	return Stats{
		Decisions:   c.decisions.Load(),
		Deviations:  c.deviations.Load(),
		Escapes:     c.escapes.Load(),
		Unreachable: c.unreachable.Load(),
	}
}

// Decision is one chosen hop plus the router's own account of it: only
// the router knows cheaply whether it left the dimension-ordered path
// and why, so it reports that instead of the network re-deriving it.
type Decision struct {
	Dir torus.Dir
	// Deviated is set when Dir is not the dimension-ordered direction.
	Deviated bool
	// FaultDetour is set when the deviation was forced by links marked
	// down (FaultAware deviates only then; backlog-adaptive and static
	// routers never set it).
	FaultDetour bool
}

// Router chooses torus hops one at a time. Implementations must be
// deterministic and must only return directions that strictly decrease
// the remaining distance of their routing metric, so routes are finite.
type Router interface {
	// Name identifies the implementation ("dor", "adaptive", "fault").
	Name() string
	// NextHop picks the outgoing direction for a packet at cur destined
	// for dst (cur != dst), deciding at time `at` for a packet of `wire`
	// bytes. ok=false means dst is not reachable from cur under the
	// current link state.
	NextHop(v View, cur, dst torus.Coord, at sim.Time, wire units.ByteSize) (dec Decision, ok bool)
	// Reachable reports whether traffic can get from a to b at all under
	// the current link state (a == b is always reachable). The card's
	// submit path uses it to fail PUTs toward cut-off nodes synchronously
	// instead of losing packets mid-route.
	Reachable(v View, a, b torus.Coord) bool
	// Stats snapshots the decision counters.
	Stats() Stats
}

// DimensionOrder is the paper's static router: X, then Y, then Z, the
// shorter way around each ring, positive on ties. It is fault-blind — a
// down link on the dimension-ordered path fails the packet rather than
// detouring (the network drops it and accounts the loss).
//
// Its only state is the decision counter, kept atomic like every
// router's: sharded worlds call NextHop from whichever shard owns the
// hop's source node, and the sum of decisions is the same whatever order
// the shards add theirs.
type DimensionOrder struct {
	stats counters
}

// NewDimensionOrder builds the static router.
func NewDimensionOrder() *DimensionOrder { return &DimensionOrder{} }

// Name implements Router.
func (r *DimensionOrder) Name() string { return "dor" }

// NextHop implements Router: always the first hop of torus.Dims.Route.
func (r *DimensionOrder) NextHop(v View, cur, dst torus.Coord, at sim.Time, wire units.ByteSize) (Decision, bool) {
	dir, ok := v.Torus().FirstHop(cur, dst)
	if !ok {
		return Decision{}, false
	}
	r.stats.decisions.Add(1)
	return Decision{Dir: dir}, true
}

// Reachable implements Router: the static router assumes a healthy torus.
func (r *DimensionOrder) Reachable(v View, a, b torus.Coord) bool { return true }

// Stats implements Router.
func (r *DimensionOrder) Stats() Stats { return r.stats.snapshot() }

// Mode selects a router implementation.
type Mode int

const (
	// ModeDimensionOrder is the paper's static router (the default).
	ModeDimensionOrder Mode = iota
	// ModeAdaptive is minimal adaptive routing on live link backlog.
	ModeAdaptive
	// ModeFaultAware routes around links marked down.
	ModeFaultAware
)

func (m Mode) String() string {
	switch m {
	case ModeAdaptive:
		return "adaptive"
	case ModeFaultAware:
		return "fault"
	default:
		return "dor"
	}
}

// ParseMode maps a CLI flag value to a Mode.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "dor", "dimension-order":
		return ModeDimensionOrder, nil
	case "adaptive":
		return ModeAdaptive, nil
	case "fault", "fault-aware":
		return ModeFaultAware, nil
	}
	return 0, fmt.Errorf("route: unknown router %q (want dor, adaptive or fault)", s)
}

// Config selects and parameterizes the router a network builds. The zero
// value keeps dimension order, so existing configurations are unchanged.
type Config struct {
	Mode Mode
	// Seed varies the adaptive router's tie-breaking among equally
	// backlogged candidates; zero prefers dimension order on ties. Routes
	// are deterministic for any fixed seed.
	Seed int64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch c.Mode {
	case ModeDimensionOrder, ModeAdaptive, ModeFaultAware:
		return nil
	}
	return fmt.Errorf("route: unknown routing mode %d", int(c.Mode))
}

// New builds the configured router. Each network builds exactly one:
// routers cache per-network state (the fault-aware distance fields).
func (c Config) New() Router {
	switch c.Mode {
	case ModeAdaptive:
		return NewAdaptiveMinimal(c.Seed)
	case ModeFaultAware:
		return NewFaultAware()
	default:
		return NewDimensionOrder()
	}
}
