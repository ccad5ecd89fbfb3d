package core

import (
	"fmt"
	"sync/atomic"

	"apenetsim/internal/route"
	"apenetsim/internal/sim"
)

// runInjector drains fully-fetched packets from the TX path into the
// router: it serializes on the first link hop (the card has one injection
// port per route), frees TX FIFO space as the packet leaves, and hands the
// remaining hops to Network.forwardOrdered, which books them as
// cut-through reservations at each hop's wire-arrival time, asking the
// network's route.Router for every hop. In flush mode the internal switch
// discards packets (the paper's raw memory-read measurement).
func (c *Card) runInjector(p *sim.Proc) {
	for {
		pkt := c.injectQ.Get(p)
		wire := c.wireSize(pkt)

		if c.Cfg.FlushAtSwitch {
			_, end := c.switchCh.ReserveRaw(p.Now(), wire)
			p.SleepUntil(end)
			c.txFIFO.Get(p, int64(wire))
			c.completePacketTX(pkt)
			continue
		}

		dstCoord := c.Net.Dims.CoordOf(pkt.Job.DstRank)
		if pkt.Job.DstRank == c.Rank {
			// Local injection -> extraction through the internal switch.
			c.creditAcquire(p, c)
			_, end := c.loopCh.ReserveRaw(p.Now(), wire)
			p.SleepUntil(end)
			c.txFIFO.Get(p, int64(wire))
			c.completePacketTX(pkt)
			arrival := end.Add(c.Cfg.LoopbackLatency)
			c.Eng.At(arrival, func() { c.rxQ.TryPut(pkt) })
			continue
		}

		dest := c.Net.Card(pkt.Job.DstRank)
		if dest == nil {
			panic("core: packet routed to unregistered card")
		}
		// Link-level flow control: wait for receive buffering at the
		// destination before injecting.
		c.creditAcquire(p, dest)

		injT := p.Now()
		dec, ok := c.Net.nextHop(c.Coord, dstCoord, injT, wire)
		if !ok {
			c.dropUnroutable(p, pkt, dest)
			continue
		}
		c.accountHop(pkt.Job, dec)
		hopStart, end := c.Net.reserveHop(c.Rank, dec.Dir, injT, wire)
		p.SleepUntil(end)
		c.txFIFO.Get(p, int64(wire))
		c.completePacketTX(pkt)
		if c.Rec.Stages() {
			c.stage(injT, hopStart, "inject", pkt.Job, wire, fmt.Sprintf("seq=%d", pkt.Seq))
		}
		c.Net.traceHop(c.Rec, pkt, c.Rank, dec, hopStart, end)
		c.Net.forwardOrdered(c, pkt, dest, c.Net.Dims.Neighbor(c.Coord, dec.Dir),
			end.Add(c.Net.hopLat), c.hopKey())
	}
}

// dropUnroutable discards a packet whose very first hop had no usable
// link, keeping the TX pipeline healthy: FIFO space is freed and the
// local send completion still fires.
func (c *Card) dropUnroutable(p *sim.Proc, pkt *Packet, dest *Card) {
	c.txFIFO.Get(p, int64(c.wireSize(pkt)))
	c.completePacketTX(pkt)
	c.accountLostPacket(c, p.Now(), pkt, dest, "no route to rank %d")
}

// accountLostPacket is the one loss tail, for a packet this card injected
// that found no usable link at time t — at its first hop (here == c) or
// mid-route at card here: the destination credit goes back, the
// destination learns the bytes will never arrive (so the damaged job
// drains as incomplete instead of stranding a receiver), and this card
// counts and traces the loss. FIFO space and the send completion were
// already handled.
func (c *Card) accountLostPacket(here *Card, t sim.Time, pkt *Packet, dest *Card, reasonFmt string) {
	onCard(here, dest, t, func() {
		dest.creditRelease(t)
		dest.rxWireLoss(pkt)
	})
	onCard(here, c, t, func() {
		c.stats.UnroutablePackets++
		if c.Rec.Enabled() {
			c.Rec.Emit(t, c.Name+".inject", "unroutable", int64(pkt.Bytes),
				fmt.Sprintf(reasonFmt, pkt.Job.DstRank))
		}
	})
}

// accountHop folds one hop decision of a job this card injected into its
// counters: a hop off the dimension-ordered direction, and — once per
// job, at its first such hop — a detour around links marked down. Hops
// are decided on whichever shard owns the hop, so both counters are
// updated atomically in place rather than posted back: a post per
// deviating hop would add events, and with them change the group's round
// structure, differently at every shard count. Stats reads them after
// the run.
func (c *Card) accountHop(job *TXJob, dec route.Decision) {
	if dec.Deviated {
		atomic.AddInt64(&c.stats.AdaptiveDeviations, 1)
	}
	if dec.FaultDetour && atomic.CompareAndSwapInt32(&job.routedAround, 0, 1) {
		atomic.AddInt64(&c.stats.RoutedAroundJobs, 1)
	}
}
