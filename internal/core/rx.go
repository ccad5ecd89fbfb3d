package core

import (
	"fmt"

	"apenetsim/internal/sim"
)

// The receive engine is an explicit four-stage pipeline, run per packet:
//
//	validate  — BUF_LIST search for the destination buffer (host-side
//	            sorted-interval lookup; reports the entry count the
//	            firmware's linear scan would examine for the cost model)
//	translate — V2P resolution through the card's v2p.Translator: the
//	            firmware walk serializes on the Nios II, a hardware TLB
//	            hit costs only the fixed-function probe
//	DMA       — RX DMA programming and the posted PCIe write toward host
//	            or GPU memory (GPU destinations pay the sliding-window
//	            switch cost behind the paper's ~10% G-G receive penalty)
//	deliver   — per-job progress accounting and the RecvDone completion
//	            once every byte has landed; jobs that lost packets to
//	            drops are drained as incomplete instead of lingering
//
// With the default FirmwareWalk translator the ≈3 µs/packet firmware time
// — and therefore the card's ≈1.2 GB/s RX ceiling — emerges from the
// configured BUF_LIST/V2P costs and the Nios II serialization against
// concurrent TX firmware work, exactly as in the paper. With the
// HardwareTLB translator (the 28 nm follow-up) hits skip the Nios II and
// the ceiling moves to the DMA path, reproducing the follow-up's RX gain.
func (c *Card) runRX(p *sim.Proc) {
	for {
		pkt := c.rxQ.Get(p)
		c.creditRelease(p.Now()) // packet leaves the link-level buffer

		// GET control messages divert before the PUT pipeline: requests
		// into the responder engine (get.go), error replies into the
		// requester's completion path. GET data replies fall through and
		// ride the ordinary validate/translate/DMA/deliver stages.
		switch pkt.Job.Kind {
		case JobGetRequest:
			c.rxControlPacket(pkt)
			c.rxGetRequest(p, pkt)
			continue
		case JobGetError:
			c.rxControlPacket(pkt)
			c.rxGetError(p, pkt)
			continue
		}

		stages := c.Rec.Stages()
		tVal := p.Now()
		entry, scanned, ok := c.rxValidate(pkt)
		if stages {
			c.stage(tVal, p.Now(), "rx_validate", pkt.Job, pkt.Bytes, fmt.Sprintf("seq=%d scanned=%d", pkt.Seq, scanned))
		}
		tXlat := p.Now()
		c.rxTranslate(p, pkt, scanned, ok)
		if stages {
			c.stage(tXlat, p.Now(), "rx_translate", pkt.Job, pkt.Bytes, fmt.Sprintf("seq=%d", pkt.Seq))
		}
		if !ok {
			c.rxDrop(p, pkt)
			continue
		}
		tDMA := p.Now()
		arrival := c.rxProgramDMA(p, pkt, entry)
		if stages {
			c.stage(tDMA, arrival, "rx_dma", pkt.Job, pkt.Bytes, fmt.Sprintf("seq=%d", pkt.Seq))
		}
		c.rxDeliver(p, pkt, arrival)
	}
}

// rxControlPacket accounts a received GET control message (it carries a
// descriptor, not buffer data, so it skips the progress maps).
func (c *Card) rxControlPacket(pkt *Packet) {
	c.stats.RXPackets++
	c.stats.RXBytes += int64(pkt.Bytes)
}

// rxValidate searches the BUF_LIST for the packet's destination buffer.
// The whole message range must be registered; scanned is the number of
// entries the firmware's linear scan would have examined.
func (c *Card) rxValidate(pkt *Packet) (entry *BufEntry, scanned int, ok bool) {
	return c.BufList.Lookup(pkt.Job.DstAddr, pkt.Job.Bytes)
}

// rxTranslate resolves the packet's V2P translation, charging the
// translator-determined costs: fixed-function (TLB probe) time sleeps the
// RX pipeline, firmware time serializes on the Nios II.
func (c *Card) rxTranslate(p *sim.Proc, pkt *Packet, scanned int, registered bool) {
	addr := pkt.Job.DstAddr + uint64(pkt.Seq)*uint64(c.Cfg.MaxPayload)
	c.translateAt(p, "RX", addr, scanned, registered)
}

// translateAt runs one translation through the card's translator,
// charging firmware time to the named Nios II task. The PUT RX pipeline
// uses task "RX"; the GET responder uses "GET" so its occupancy is
// separately measurable, while read-side hits/misses still land in the
// same per-card translator stats.
func (c *Card) translateAt(p *sim.Proc, task string, addr uint64, scanned int, registered bool) {
	out := c.xlat.Translate(addr, scanned, registered)
	if out.Hardware > 0 {
		p.Sleep(out.Hardware)
	}
	c.Nios.Exec(p, task, out.Firmware)
}

// rxDrop discards a packet with no registered destination and retires the
// job once its last byte has arrived (a dropped message never completes,
// so its progress state must not linger).
func (c *Card) rxDrop(p *sim.Proc, pkt *Packet) {
	c.stats.RXDrops++
	c.stats.RXDroppedBytes += int64(pkt.Bytes)
	c.rxDropped[pkt.Job.ID] += pkt.Bytes
	if c.Rec.Enabled() {
		c.Rec.Emit(p.Now(), c.Name+".rx", "drop", int64(pkt.Bytes), "no BUF_LIST match")
	}
	c.rxFinishJob(p, pkt.Job, p.Now())
}

// rxProgramDMA programs the RX DMA and issues the posted write toward the
// destination memory, returning when the payload lands.
func (c *Card) rxProgramDMA(p *sim.Proc, pkt *Packet, entry *BufEntry) sim.Time {
	p.Sleep(c.Cfg.RXDMASetup)
	target := c.HostMem
	if entry.Kind == GPUMem {
		p.Sleep(entry.GPU.P2PWriteCost(pkt.Bytes))
		target = entry.GPU.PCI
	}
	_, arrival := c.Fab.Path(c.PCI, target).Send(p.Now(), pkt.Bytes)
	return arrival
}

// rxDeliver accounts a landed packet and advances its job.
func (c *Card) rxDeliver(p *sim.Proc, pkt *Packet, arrival sim.Time) {
	c.stats.RXPackets++
	c.stats.RXBytes += int64(pkt.Bytes)
	c.rxProgress[pkt.Job.ID] += pkt.Bytes
	c.rxFinishJob(p, pkt.Job, arrival)
}

// rxWireLoss accounts bytes of a job that were lost on the wire toward
// this card — the sender's injector found no usable link — and retires
// the job if its last byte has now been seen, so receivers are never
// left waiting on packets that can no longer arrive. Serially it runs in
// the sender's injector context (one engine serializes both cards);
// sharded, the loss is posted to this card's own shard first. A lost GET control message
// has no progress to track; it immediately fails the requester's
// outstanding entry instead (GET data replies use the normal progress
// accounting and fail on retire).
func (c *Card) rxWireLoss(pkt *Packet) {
	if pkt.Job.Kind == JobGetRequest || pkt.Job.Kind == JobGetError {
		c.failRemoteGet(pkt.Job.get, fmt.Sprintf("%s lost on the wire toward rank %d", pkt.Job.Kind, pkt.Job.DstRank))
		return
	}
	c.rxDropped[pkt.Job.ID] += pkt.Bytes
	if c.rxProgress[pkt.Job.ID]+c.rxDropped[pkt.Job.ID] >= pkt.Job.Bytes {
		c.rxRetireIncomplete(pkt.Job)
	}
}

// rxRetireIncomplete drains a job that can never complete: its progress
// state is dropped, no RecvDone is raised, and the damage is counted in
// CardStats.IncompleteRXJobs and traced.
func (c *Card) rxRetireIncomplete(job *TXJob) {
	delivered := c.rxProgress[job.ID]
	dropped := c.rxDropped[job.ID]
	delete(c.rxProgress, job.ID)
	delete(c.rxDropped, job.ID)
	c.stats.IncompleteRXJobs++
	if c.Rec.Enabled() {
		c.Rec.Emit(c.Eng.Now(), c.Name+".rx", "job_incomplete", int64(dropped),
			fmt.Sprintf("job %d from rank %d: %v delivered, %v dropped", job.ID, job.srcRank, delivered, dropped))
	}
	if job.Kind == JobGetReply {
		// An incomplete reply can never complete the GET: fail the
		// outstanding entry (this card is the requester) instead of
		// leaving it to block the window forever.
		c.finishGet(job.get.reqID, 0,
			fmt.Sprintf("reply incomplete: %v delivered, %v lost", delivered, dropped))
	}
}

// rxFinishJob retires a job once every byte has either been delivered or
// dropped. Fully delivered messages raise RecvDone when both the firmware
// work and the payload's DMA write have finished; messages with drops —
// RX-side (no BUF_LIST match) or on the wire (dead link) — are drained
// as incomplete instead.
func (c *Card) rxFinishJob(p *sim.Proc, job *TXJob, arrival sim.Time) {
	delivered := c.rxProgress[job.ID]
	dropped := c.rxDropped[job.ID]
	if delivered+dropped < job.Bytes {
		return
	}
	if dropped > 0 {
		c.rxRetireIncomplete(job)
		return
	}
	delete(c.rxProgress, job.ID)
	delete(c.rxDropped, job.ID)

	if job.Kind == JobGetReply {
		c.completeGetReply(p, job, arrival)
		return
	}

	// Firmware raises the completion event for the message; it is
	// delivered when both the firmware work and the payload's DMA write
	// have finished.
	tFin := p.Now()
	c.Nios.Exec(p, "RX", c.Cfg.RXCompletion)
	if now := c.Eng.Now(); arrival < now {
		arrival = now
	}
	if c.Rec.Stages() {
		c.stage(tFin, arrival, "deliver", job, job.Bytes, fmt.Sprintf("src=%d", job.srcRank))
	}
	comp := Completion{
		Kind:    RecvDone,
		JobID:   job.ID,
		SrcRank: job.srcRank,
		DstRank: c.Rank,
		DstAddr: job.DstAddr,
		Bytes:   job.Bytes,
		Payload: job.Payload,
	}
	c.Eng.At(arrival, func() {
		comp.At = c.Eng.Now()
		c.RecvCQ.TryPut(comp)
	})
}
