package core

import (
	"testing"

	"apenetsim/internal/route"
	"apenetsim/internal/sim"
	"apenetsim/internal/torus"
)

// forwardBench is BenchmarkForwardHop's world: an 8x8x8 torus of bare
// cards under the given router, and one 4 KB packet from (0,0,0) to
// (4,0,0) whose injector hop has landed it at (1,0,0).
type forwardBench struct {
	eng      *sim.Engine
	net      *Network
	src, dst *Card
	first    torus.Coord
	pkt      *Packet
}

// forwardBenchHops is the number of hops forwardOrdered books per
// packet: dst.X - 1 beyond the injector's first.
const forwardBenchHops = 3

func newForwardBench(mode route.Mode) *forwardBench {
	eng := sim.New()
	dims := torus.Dims{X: 8, Y: 8, Z: 8}
	cfg := DefaultConfig()
	cfg.Routing = route.Config{Mode: mode}
	net := NewNetwork(eng, dims, cfg.LinkBandwidth, cfg.HopLatency)
	cards := make([]*Card, dims.Nodes())
	for rank := range cards {
		// A one-slot RX queue: deliveries past the first are refused, so
		// the queue does not grow with the number of packets sent.
		cards[rank] = &Card{Coord: dims.CoordOf(rank), Cfg: cfg, Eng: eng,
			rxQ: sim.NewQueue[*Packet](eng, "rxq", 1)}
		net.register(cards[rank])
	}
	src := cards[dims.Rank(torus.Coord{X: 0, Y: 0, Z: 0})]
	dst := cards[dims.Rank(torus.Coord{X: 4, Y: 0, Z: 0})]
	return &forwardBench{
		eng: eng, net: net, src: src, dst: dst,
		first: torus.Coord{X: 1, Y: 0, Z: 0},
		pkt:   &Packet{Job: &TXJob{DstRank: dst.Rank, srcRank: src.Rank}, Bytes: 4096},
	}
}

// send forwards the packet from where its injector hop landed it and
// runs the engine until it is delivered.
func (f *forwardBench) send() {
	f.net.forwardOrdered(f.src, f.pkt, f.dst, f.first, f.eng.Now(), f.src.hopKey())
	f.eng.Run()
}

// BenchmarkForwardHop measures the per-hop forwarding path of the torus —
// keyed hop event, routing decision, link lookup, wire reservation and
// its metering — which runs once per (packet, hop) and therefore hundreds
// of millions of times in a 32^3 collective. Each packet is handed to
// forwardOrdered after its injector hop, exactly as the injector does, and
// the engine runs its hops to delivery. Packets cross half an 8-ring in
// X, the streaming shape that hits the calendar's tail fast path.
func BenchmarkForwardHop(b *testing.B) {
	f := newForwardBench(route.ModeDimensionOrder)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.send()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*forwardBenchHops), "ns/hop")
}

// Forwarding a packet allocates nothing per hop under dimension-order or
// adaptive routing: the routing decision and the booking allocate
// nothing, and the hop and delivery callbacks are bound once per packet
// — this packet's on its first trip, before AllocsPerRun measures.
func TestForwardOrderedAllocFree(t *testing.T) {
	for _, mode := range []route.Mode{route.ModeDimensionOrder, route.ModeAdaptive} {
		f := newForwardBench(mode)
		if got := testing.AllocsPerRun(100, f.send); got != 0 {
			t.Errorf("%v: forwarding a packet over %d hops allocates %.1f, want 0", mode, forwardBenchHops, got)
		}
	}
}
