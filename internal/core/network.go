package core

import (
	"fmt"
	"sort"

	"apenetsim/internal/pcie"
	"apenetsim/internal/route"
	"apenetsim/internal/sim"
	"apenetsim/internal/torus"
	"apenetsim/internal/trace"
	"apenetsim/internal/units"
)

// Network is the 3D torus connecting a set of cards: six directed link
// channels per node plus the registry used by the injectors to route
// packets hop by hop. The hop decisions belong to a pluggable
// route.Router (dimension-ordered by default, like the APEnet+ router;
// adaptive and fault-aware variants via Config.Routing), which reads the
// network through the route.View interface: topology, per-link up/down
// state, and live queueing backlog.
//
// Every hop reservation is metered by its directed link's channel
// (packets, wire bytes, busy time, peak backlog), so congestion on large
// tori can be localized: LinkStats exposes the counters, HotLinks ranks
// the saturated links.
type Network struct {
	Eng  *sim.Engine
	Dims torus.Dims

	linkBW units.Bandwidth
	hopLat sim.Duration

	// cards is indexed by rank, nil where no card is registered: a hop
	// looks up the cards it touches with array loads.
	cards []*Card
	// links is indexed by rank*NumDirs+dir: the per-hop path is an array
	// load instead of a map lookup, which matters when a 32^3 torus books
	// millions of hop reservations. Each channel also meters its link.
	links []*pcie.Channel

	router    route.Router
	routerSet bool // true once the first card's Config.Routing was applied

	// linkDown holds the directed links marked out of service; stateEpoch
	// increments on every change so routers can invalidate reachability
	// caches. linkDown is one shared map: in a multi-shard group it only
	// changes while the group is idle (SetLinkState enforces this), so
	// shard workers read it without synchronization.
	linkDown   map[linkKey]bool
	stateEpoch uint64
}

type linkKey struct {
	rank int
	dir  torus.Dir
}

// LinkStat is a snapshot of one directed torus link's counters.
type LinkStat struct {
	Rank  int
	Coord torus.Coord
	Dir   torus.Dir
	// Packets and WireBytes count every hop reservation on the link
	// (cut-through forwarding books intermediate hops too, so a packet
	// crossing h links contributes to h stats).
	Packets   int64
	WireBytes int64
	// Busy is the cumulative time the link carried data.
	Busy sim.Duration
	// PeakBacklog is the longest time any hop reservation had to wait for
	// the wire — the link's peak queueing delay.
	PeakBacklog sim.Duration
	// PeakQueueBytes is the backlog expressed as bytes already booked
	// ahead of the most-delayed packet (peak queue depth).
	PeakQueueBytes units.ByteSize
}

// Name labels the link by source coordinate and direction, e.g. "(1,2,0)X+".
func (s LinkStat) Name() string { return fmt.Sprintf("%v%s", s.Coord, s.Dir) }

// Utilization returns the fraction of wall time the link carried data.
func (s LinkStat) Utilization(now sim.Time) float64 {
	if now <= 0 {
		return 0
	}
	return float64(s.Busy) / float64(sim.Duration(now))
}

// NewNetwork creates an empty torus of the given dimensions. Link
// bandwidth and hop latency default from cfg but can differ per network
// (the paper uses both 28 Gbps and 20 Gbps link configurations).
//
// Cards talk to each other only through the cross-shard protocol of a
// sim.Group — credit requests and grants, deliveries, hop bookings and
// the loss tail are posts — so an engine outside a group joins a
// one-shard group here, with the hop latency as lookahead. The same
// protocol then runs at every shard count. Each directed link's channel
// is owned by the engine of its source node, and every hop is booked on
// that engine at the packet's arrival time (see forwardOrdered), so no
// engine touches a foreign calendar.
func NewNetwork(eng *sim.Engine, dims torus.Dims, linkBW units.Bandwidth, hopLat sim.Duration) *Network {
	if !dims.Valid() {
		panic("core: invalid torus dimensions")
	}
	if eng.Group() == nil {
		sim.NewGroup(eng, 1, hopLat)
	}
	return &Network{
		Eng:      eng,
		Dims:     dims,
		linkBW:   linkBW,
		hopLat:   hopLat,
		cards:    make([]*Card, dims.Nodes()),
		links:    make([]*pcie.Channel, dims.Nodes()*int(torus.NumDirs)),
		router:   route.Config{}.New(),
		linkDown: make(map[linkKey]bool),
	}
}

// linkIndex flattens (rank, dir) into the links slice.
func (n *Network) linkIndex(rank int, dir torus.Dir) int {
	return rank*int(torus.NumDirs) + int(dir)
}

// register wires a card into the torus, creating its six outgoing links.
// The first registered card's Config.Routing selects the network's
// router (all cards of a cluster share one card config in practice).
func (n *Network) register(c *Card) {
	if !n.Dims.Contains(c.Coord) {
		panic(fmt.Sprintf("core: card coord %v outside torus %v", c.Coord, n.Dims))
	}
	rank := n.Dims.Rank(c.Coord)
	if n.cards[rank] != nil {
		panic(fmt.Sprintf("core: duplicate card at %v", c.Coord))
	}
	if !n.routerSet {
		n.router = c.Cfg.Routing.New()
		n.routerSet = true
	}
	c.Rank = rank
	n.cards[rank] = c
	for d := torus.Dir(0); d < torus.NumDirs; d++ {
		name := fmt.Sprintf("torus.%d.%s", rank, d)
		// The card's own engine, its shard, owns its outgoing links: every
		// booking on the link happens on that shard.
		n.links[n.linkIndex(rank, d)] = pcie.NewChannel(c.Eng, name, n.linkBW)
	}
}

// Card returns the card at a rank, or nil.
func (n *Network) Card(rank int) *Card {
	if rank < 0 || rank >= len(n.cards) {
		return nil
	}
	return n.cards[rank]
}

// Cards returns the number of registered cards.
func (n *Network) Cards() int {
	count := 0
	for _, c := range n.cards {
		if c != nil {
			count++
		}
	}
	return count
}

// HopLatency returns the per-hop forwarding latency.
func (n *Network) HopLatency() sim.Duration { return n.hopLat }

// LinkBandwidth returns the per-direction link bandwidth.
func (n *Network) LinkBandwidth() units.Bandwidth { return n.linkBW }

// reserveHop books one packet's wire time on the directed link (rank,dir),
// which meters the traversal, returning when the burst starts and ends.
func (n *Network) reserveHop(rank int, dir torus.Dir, from sim.Time, wire units.ByteSize) (start, end sim.Time) {
	ch := n.links[n.linkIndex(rank, dir)]
	if ch == nil {
		panic(fmt.Sprintf("core: no link at rank %d dir %v", rank, dir))
	}
	return ch.ReserveRaw(from, wire)
}

// Router returns the network's routing engine (for stats and tests).
func (n *Network) Router() route.Router { return n.router }

// nextHop asks the router for the hop out of cur toward dst at time at.
// ok=false means no usable hop exists: the destination is unreachable, or
// a fault-blind router picked a link that is out of service.
func (n *Network) nextHop(cur, dst torus.Coord, at sim.Time, wire units.ByteSize) (route.Decision, bool) {
	dec, ok := n.router.NextHop(n, cur, dst, at, wire)
	if !ok {
		return dec, false
	}
	if len(n.linkDown) != 0 && !n.LinkUp(cur, dec.Dir) {
		// Only a fault-blind router (dimension order, adaptive) can pick a
		// dead link; the packet is lost rather than carried by a dead wire.
		return dec, false
	}
	return dec, true
}

// traceHop emits one wire-hop span for a packet crossing a link, tagged
// with the owning op's key and the router's account of the decision;
// only recorders in stage-capture mode see it. Hops are emitted through
// the hop owner's card recorder — shard-private in a sharded traced
// world, so the emit path stays single-writer — and the post-run
// canonical merge (trace.Recorder.MergeCanonical) interleaves the
// per-shard streams deterministically.
func (n *Network) traceHop(rec *trace.Recorder, pkt *Packet, fromRank int, dec route.Decision, start, end sim.Time) {
	if pkt == nil || !rec.Stages() {
		return
	}
	from := n.Dims.CoordOf(fromRank)
	to := n.Dims.Rank(n.Dims.Neighbor(from, dec.Dir))
	rec.EmitOp(start, end, "wire."+LinkID{from, dec.Dir}.String(), "hop", opKey(pkt.Job),
		int64(pkt.Bytes), legNote(pkt.Job, pkt.Seq, fromRank, to, dec))
}

// hopKey returns the pure tie key for one packet's hop bookings: packed
// (injecting rank, per-card packet seq), non-zero by construction. Two
// bookings that land on the same link at the same time execute in key
// order at every shard count.
func (c *Card) hopKey() uint64 {
	c.orderSeq++
	return uint64(c.Rank+1)<<32 | (c.orderSeq & 0xffffffff)
}

// forwardOrdered books a packet's hops beyond the injector's first — the
// one way they are booked, on every engine layout and under every
// router. cur is the node after hop 1, reached at time at, and key the
// packet's hop tie key. Each hop is a keyed infra event at the packet's
// wire-arrival time on the engine that owns the hop's source node (see
// orderedHop), so the router decides on the link state of that instant,
// reading only links the executing engine owns, and same-time bookings
// on a shared link execute in key order. Arrival order is a pure
// function of the model (stamps and the (rank, seq) key, never of which
// engine executes what), which is what makes a group's results
// invariant in the shard count. Within a shard the events chain through
// its heap; across shards they chain through keyed posts to each hop's
// owning shard, stamped a full hop latency ahead of the posting clock
// (Config.Validate refuses a configuration without one), so they are
// never ingested retroactively.
//
// The packet carries its in-flight state — the node it is at and its
// key — and its event callbacks: the hop callback, bound here on its
// first forwarded hop and reused for every later one, and the delivery
// callback, bound in deliverOrdered. A hop allocates nothing. Only one
// of a packet's hop or delivery events is pending at a time, and the
// engine executing it owns the packet until it schedules the next.
func (n *Network) forwardOrdered(src *Card, pkt *Packet, dest *Card, cur torus.Coord, at sim.Time, key uint64) {
	pkt.node, pkt.key = n.Dims.Rank(cur), key
	if pkt.node == dest.Rank {
		n.deliverOrdered(src.Eng, dest, at, pkt)
		return
	}
	if pkt.hop == nil {
		pkt.hop = func() { n.orderedHop(pkt) }
	}
	n.scheduleHop(src.Eng, n.cards[pkt.node].Eng, at, pkt)
}

// orderedHop is a packet's hop booking event, executed on the engine
// owning the packet's current node at its arrival time: it asks the
// router, folds a deviation onto the source card, books the wire, then
// moves the packet on and schedules its next hop or its delivery. The
// source card, destination and wire size follow from the packet's job.
// A dead end — a fault-blind router meeting a link that died after the
// submit-time reachability check — loses the packet (see
// Card.accountLostPacket).
func (n *Network) orderedHop(pkt *Packet) {
	src, dest, here := n.cards[pkt.Job.srcRank], n.cards[pkt.Job.DstRank], n.cards[pkt.node]
	t := here.Eng.Now()
	wire := src.wireSize(pkt)
	dec, ok := n.nextHop(here.Coord, dest.Coord, t, wire)
	if !ok {
		src.accountLostPacket(here, t, pkt, dest, "lost mid-route toward rank %d")
		return
	}
	src.accountHop(pkt.Job, dec)
	start, end := n.reserveHop(here.Rank, dec.Dir, t, wire)
	n.traceHop(here.Rec, pkt, here.Rank, dec, start, end)
	next := n.cards[n.Dims.Rank(n.Dims.Neighbor(here.Coord, dec.Dir))]
	arrival := end.Add(n.hopLat)
	pkt.node = next.Rank
	if next == dest {
		n.deliverOrdered(here.Eng, dest, arrival, pkt)
		return
	}
	n.scheduleHop(here.Eng, next.Eng, arrival, pkt)
}

// scheduleHop schedules a packet's keyed hop booking on its owning
// engine: a keyed infra event when the owner is the executing engine
// (always, on one shard), a keyed post otherwise.
func (n *Network) scheduleHop(eng, owner *sim.Engine, t sim.Time, pkt *Packet) {
	if owner == eng {
		eng.AtInfraKeyed(t, pkt.key, pkt.hop)
	} else {
		eng.PostKeyed(owner.Shard(), t, pkt.key, pkt.hop)
	}
}

// deliverOrdered schedules the packet's delivery into the destination's
// RX queue as one counted event at the computed arrival time. The
// delivery is always a post — even to the executing shard — so that its
// merge position relative to same-time events is a function of the
// round structure alone, never of whether source and destination happen
// to share a shard at this shard count; packets arriving at one card at
// the same time queue in hop-key order, whichever shards sent them.
func (n *Network) deliverOrdered(eng *sim.Engine, dest *Card, arrival sim.Time, pkt *Packet) {
	if pkt.deliver == nil {
		pkt.deliver = func() { dest.rxQ.TryPut(pkt) }
	}
	eng.PostTied(dest.Eng.Shard(), arrival, pkt.key, pkt.deliver)
}

// onCard runs fn against card c's state at time t from an event executing
// on behalf of card self: inline when c is self, otherwise as an infra
// post to c's shard — even when both cards share a shard at this shard
// count, so the events a group executes, and with them its round
// structure, are the same at every shard count.
func onCard(self, c *Card, t sim.Time, fn func()) {
	if c == self {
		fn()
		return
	}
	self.Eng.Post(c.Eng.Shard(), t, true, fn)
}

// Reachable reports whether the router can carry traffic from a to b
// under the current link state. The card's submit path uses it to fail
// PUTs toward cut-off nodes synchronously.
func (n *Network) Reachable(a, b torus.Coord) bool {
	if a == b {
		return true
	}
	return n.router.Reachable(n, a, b)
}

// LinkID names one directed torus link by source coordinate + direction.
type LinkID struct {
	Coord torus.Coord
	Dir   torus.Dir
}

func (id LinkID) String() string { return fmt.Sprintf("%v%s", id.Coord, id.Dir) }

// SetLinkState marks one directed link in or out of service and bumps the
// state epoch so routers drop cached reachability data. Traffic already
// booked on the link is unaffected (the cable dies for future packets).
func (n *Network) SetLinkState(id LinkID, up bool) {
	if !n.Dims.Contains(id.Coord) || id.Dir < 0 || id.Dir >= torus.NumDirs {
		panic(fmt.Sprintf("core: bad link %v in torus %v", id, n.Dims))
	}
	if g := n.Eng.Group(); g.Shards() > 1 && g.Running() {
		// Shard workers read linkDown without locks; state may only change
		// while a multi-shard group is idle (between Run calls, like the
		// degraded-routing experiments already do). A one-shard group has
		// no worker, so an event may cut a link mid-run.
		panic("core: SetLinkState while a multi-shard group is running")
	}
	key := linkKey{n.Dims.Rank(id.Coord), id.Dir}
	if n.linkDown[key] == !up {
		return
	}
	if up {
		delete(n.linkDown, key)
	} else {
		n.linkDown[key] = true
	}
	n.stateEpoch++
}

// CutCable downs both directions of the cable between coord and its
// neighbor in direction dir (on size-2 rings, where two distinct cables
// join the same node pair, only the named pair goes down).
func (n *Network) CutCable(coord torus.Coord, dir torus.Dir) {
	n.SetLinkState(LinkID{coord, dir}, false)
	n.SetLinkState(LinkID{n.Dims.Neighbor(coord, dir), dir.Opposite()}, false)
}

// IsolateNode cuts every cable touching coord, partitioning it off.
func (n *Network) IsolateNode(coord torus.Coord) {
	for dir := torus.Dir(0); dir < torus.NumDirs; dir++ {
		if n.Dims.Neighbor(coord, dir) != coord {
			n.CutCable(coord, dir)
		}
	}
}

// DownLinks returns the directed links currently out of service, ordered
// by (rank, dir) for determinism.
func (n *Network) DownLinks() []LinkID {
	var keys []linkKey
	for k := range n.linkDown {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].rank != keys[j].rank {
			return keys[i].rank < keys[j].rank
		}
		return keys[i].dir < keys[j].dir
	})
	out := make([]LinkID, len(keys))
	for i, k := range keys {
		out[i] = LinkID{n.Dims.CoordOf(k.rank), k.dir}
	}
	return out
}

// Torus implements route.View.
func (n *Network) Torus() torus.Dims { return n.Dims }

// LinkUp implements route.View.
func (n *Network) LinkUp(from torus.Coord, dir torus.Dir) bool {
	return !n.linkDown[linkKey{n.Dims.Rank(from), dir}]
}

// QueueDelay implements route.View: the time a packet of wire bytes
// asking for the directed link (from, dir) at `at` would wait before its
// burst starts — a dry-run of the reservation the hop would make.
func (n *Network) QueueDelay(from torus.Coord, dir torus.Dir, at sim.Time, wire units.ByteSize) sim.Duration {
	ch := n.links[n.linkIndex(n.Dims.Rank(from), dir)]
	if ch == nil {
		return 0
	}
	return ch.Probe(at, wire).Sub(at)
}

// StateEpoch implements route.View.
func (n *Network) StateEpoch() uint64 { return n.stateEpoch }

// LinkStats snapshots every directed link that carried at least one
// packet, ordered by (rank, dir). Loop-back traffic (destination ==
// source card) never touches torus links and is not counted.
func (n *Network) LinkStats() []LinkStat {
	var out []LinkStat
	for idx, ch := range n.links {
		if ch == nil || ch.Reservations() == 0 {
			continue
		}
		rank := idx / int(torus.NumDirs)
		dir := torus.Dir(idx % int(torus.NumDirs))
		wait := ch.PeakWait()
		out = append(out, LinkStat{
			Rank:           rank,
			Coord:          n.Dims.CoordOf(rank),
			Dir:            dir,
			Packets:        ch.Reservations(),
			WireBytes:      ch.WireBytes(),
			Busy:           ch.BusyTime(),
			PeakBacklog:    wait,
			PeakQueueBytes: units.ByteSize(float64(n.linkBW) * wait.Seconds()),
		})
	}
	return out
}

// HotLinks returns the k busiest links by carried wire bytes (ties broken
// by rank/dir for determinism); none when k <= 0.
func (n *Network) HotLinks(k int) []LinkStat {
	if k <= 0 {
		return nil
	}
	stats := n.LinkStats()
	sort.SliceStable(stats, func(i, j int) bool {
		return stats[i].WireBytes > stats[j].WireBytes
	})
	if k < len(stats) {
		stats = stats[:k]
	}
	return stats
}

// TotalLinkWireBytes sums the wire bytes carried by every directed link.
// Each hop is metered, so this equals the sum over packets of their wire
// size times the hop count of their route — the conservation law the
// tests pin down.
func (n *Network) TotalLinkWireBytes() int64 {
	var total int64
	for _, ch := range n.links {
		if ch != nil {
			total += ch.WireBytes()
		}
	}
	return total
}

// TraceLinkStats emits one trace event per active link with its counters,
// so congestion snapshots ride along the normal trace pipeline.
func (n *Network) TraceLinkStats(rec *trace.Recorder) {
	if !rec.Enabled() {
		return
	}
	// WorkEnd, not Now: the snapshot carries the time (and utilization
	// denominator) of the last real event, whatever infra bookkeeping ran
	// after it — that keeps traced captures byte-identical across shard
	// counts.
	now := n.Eng.WorkEnd()
	for _, s := range n.LinkStats() {
		rec.Emit(now, "torus."+s.Name(), "link_stats", s.WireBytes,
			fmt.Sprintf("packets=%d util=%.1f%% peak_backlog=%v", s.Packets, 100*s.Utilization(now), s.PeakBacklog))
	}
}
