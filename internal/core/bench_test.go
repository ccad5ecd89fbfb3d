package core

import (
	"testing"

	"apenetsim/internal/sim"
	"apenetsim/internal/torus"
)

// BenchmarkForwardHop measures the per-hop forwarding path of the torus —
// keyed hop event, routing decision, link lookup, wire reservation and
// its metering — which runs once per (packet, hop) and therefore hundreds
// of millions of times in a 32^3 collective. Each packet is handed to
// forwardOrdered after its injector hop, exactly as runInjector does, and
// the engine runs its hops to delivery. Packets cross half an 8-ring in
// X, the streaming shape that hits the calendar's tail fast path.
func BenchmarkForwardHop(b *testing.B) {
	eng := sim.New()
	dims := torus.Dims{X: 8, Y: 8, Z: 8}
	cfg := DefaultConfig()
	net := NewNetwork(eng, dims, cfg.LinkBandwidth, cfg.HopLatency)
	cards := make([]*Card, dims.Nodes())
	for rank := range cards {
		// A one-slot RX queue: deliveries past the first are refused, so
		// the queue does not grow with b.N.
		cards[rank] = &Card{Coord: dims.CoordOf(rank), Cfg: cfg, Eng: eng,
			rxQ: sim.NewQueue[*Packet](eng, "rxq", 1)}
		net.register(cards[rank])
	}
	src := cards[dims.Rank(torus.Coord{X: 0, Y: 0, Z: 0})]
	dst := cards[dims.Rank(torus.Coord{X: 4, Y: 0, Z: 0})]
	first := torus.Coord{X: 1, Y: 0, Z: 0} // where the injector's hop lands
	const wire = 4096 + 32
	pkt := &Packet{Job: &TXJob{DstRank: dst.Rank}, Bytes: 4096}
	hops := 3 // forwardOrdered books dst.X - 1 hops beyond the injector's first
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.forwardOrdered(src, pkt, dst, first, eng.Now(), src.hopKey(), wire)
		eng.Run()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*hops), "ns/hop")
}
