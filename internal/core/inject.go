package core

import (
	"fmt"
	"sync/atomic"

	"apenetsim/internal/route"
	"apenetsim/internal/sim"
	"apenetsim/internal/units"
)

// injector drains fully-fetched packets from the TX path into the router:
// it serializes on the first link hop (the card has one injection port
// per route), frees TX FIFO space as the packet leaves, and hands the
// remaining hops to Network.forwardOrdered, which books them as
// cut-through reservations at each hop's wire-arrival time, asking the
// network's route.Router for every hop. In flush mode the internal switch
// discards packets (the paper's raw memory-read measurement).
type injector struct {
	state injState
	pkt   *Packet
	wire  units.ByteSize
	dest  *Card
	// injT is when the packet got its credit, dec the router's first-hop
	// decision, and start/end the first hop's (or loop port's) slot.
	injT       sim.Time
	dec        route.Decision
	start, end sim.Time
	// reqT and reqSeq are the stamp and sequence number of the pending
	// credit request toward dest; request posts it (see credit.go).
	reqT    sim.Time
	reqSeq  uint64
	run     func() // stepInjector, bound once in Start
	request func() // dest.creditRequest, bound once in Start
}

// injState names the injector's next step.
type injState uint8

const (
	injGet     injState = iota // take the next packet
	injCredit                  // credit granted: book the first hop
	injSent                    // packet on the wire: free FIFO space
	injDropped                 // no route: free FIFO space, account the loss
)

// stepInjector runs the injector until it has to wait; whatever ends the
// wait — a queued packet, a credit grant, the end of the wire time —
// calls it again.
func (c *Card) stepInjector() {
	for c.injStep() {
	}
}

// injStep takes one step of the injector and reports whether it may take
// the next at once.
func (c *Card) injStep() bool {
	in := &c.inj
	switch in.state {
	case injGet:
		pkt, ok := c.injectQ.GetFunc(in.run)
		if !ok {
			return false
		}
		in.pkt, in.wire = pkt, c.wireSize(pkt)
		if c.Cfg.FlushAtSwitch {
			_, in.end = c.switchCh.ReserveRaw(c.Eng.Now(), in.wire)
			in.state = injSent
			return c.waitUntil(in.end, in.run)
		}
		if pkt.Job.DstRank == c.Rank {
			// Local injection -> extraction through the internal switch.
			in.dest = c
		} else if in.dest = c.Net.Card(pkt.Job.DstRank); in.dest == nil {
			panic("core: packet routed to unregistered card")
		}
		// Link-level flow control: wait for receive buffering at the
		// destination before injecting.
		in.state = injCredit
		c.creditAcquire(in.dest)
		return false
	case injCredit:
		if in.dest == c {
			_, in.end = c.loopCh.ReserveRaw(c.Eng.Now(), in.wire)
			in.state = injSent
			return c.waitUntil(in.end, in.run)
		}
		in.injT = c.Eng.Now()
		dstCoord := c.Net.Dims.CoordOf(in.pkt.Job.DstRank)
		dec, ok := c.Net.nextHop(c.Coord, dstCoord, in.injT, in.wire)
		if !ok {
			// The very first hop has no usable link: the packet is
			// dropped, keeping the TX pipeline healthy.
			in.state = injDropped
			return true
		}
		c.accountHop(in.pkt.Job, dec)
		in.dec = dec
		in.start, in.end = c.Net.reserveHop(c.Rank, dec.Dir, in.injT, in.wire)
		in.state = injSent
		return c.waitUntil(in.end, in.run)
	case injSent:
		if !c.txFIFO.GetFunc(int64(in.wire), in.run) {
			return false
		}
		pkt := in.pkt
		c.completePacketTX(pkt)
		switch {
		case c.Cfg.FlushAtSwitch:
		case in.dest == c:
			arrival := in.end.Add(c.Cfg.LoopbackLatency)
			c.Eng.At(arrival, func() { c.rxQ.TryPut(pkt) })
		default:
			if c.Rec.Stages() {
				c.stage(in.injT, in.start, "inject", pkt.Job, in.wire, fmt.Sprintf("seq=%d", pkt.Seq))
			}
			c.Net.traceHop(c.Rec, pkt, c.Rank, in.dec, in.start, in.end)
			c.Net.forwardOrdered(c, pkt, in.dest, c.Net.Dims.Neighbor(c.Coord, in.dec.Dir),
				in.end.Add(c.Net.hopLat), c.hopKey())
		}
		return c.injDone()
	default: // injDropped
		// FIFO space is freed and the local send completion still fires.
		if !c.txFIFO.GetFunc(int64(in.wire), in.run) {
			return false
		}
		c.completePacketTX(in.pkt)
		c.accountLostPacket(c, c.Eng.Now(), in.pkt, in.dest, "no route to rank %d")
		return c.injDone()
	}
}

// injDone ends the packet: the injector takes the next one.
func (c *Card) injDone() bool {
	c.inj.pkt, c.inj.dest = nil, nil
	c.inj.state = injGet
	return true
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
