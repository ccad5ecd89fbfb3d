package core

import (
	"fmt"

	"apenetsim/internal/nios"
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
//
// GET control messages divert before the PUT pipeline: requests into the
// responder's serve stages (get.go), error replies into the requester's
// completion path. GET data replies ride the ordinary
// validate/translate/DMA/deliver stages.
type rxEngine struct {
	state rxState
	pkt   *Packet
	// entry and ok are the packet's BUF_LIST match; task and firmware
	// are its translation's Nios II task and pending firmware time.
	entry    *BufEntry
	ok       bool
	task     string
	firmware sim.Duration
	// t0 starts the current stage span (translate, DMA, deliver; serve
	// for a GET request); arrival is when the payload lands.
	t0      sim.Time
	arrival sim.Time
	nios    *nios.Slot
	run     func() // stepRX, bound once in Start
}

// rxState names the RX engine's next step.
type rxState uint8

const (
	rxGet       rxState = iota // take the next packet
	rxXlateNios                // translation: run its firmware part
	rxXlated                   // translation done
	rxDMAWrite                 // DMA programmed: GPU write-window cost
	rxDMASend                  // post the write, account the packet
	rxFinish                   // retire the job if this was its last byte
	rxDelivered                // completion firmware done: raise it
	rxGetParsed                // GET request parsed: validate, translate
	rxServe                    // GET read DMA programmed: submit the reply
	rxGetFailed                // GET error reply handled: fail the request
)

// stepRX runs the RX engine until it has to wait; whatever ends the wait
// calls it again.
func (c *Card) stepRX() {
	for c.rxStep() {
	}
}

// rxStep takes one step of the RX engine and reports whether it may take
// the next at once.
func (c *Card) rxStep() bool {
	rx := &c.rx
	switch rx.state {
	case rxGet:
		pkt, ok := c.rxQ.GetFunc(rx.run)
		if !ok {
			return false
		}
		rx.pkt = pkt
		c.creditRelease(c.Eng.Now()) // packet leaves the link-level buffer
		switch pkt.Job.Kind {
		case JobGetRequest:
			c.rxControlPacket(pkt)
			return c.rxGetRequest()
		case JobGetError:
			c.rxControlPacket(pkt)
			rx.state = rxGetFailed
			return c.Nios.Exec(rx.nios, "RX", c.Cfg.RXCompletion, rx.run)
		}
		now := c.Eng.Now()
		var scanned int
		rx.entry, scanned, rx.ok = c.rxValidate(pkt)
		if c.Rec.Stages() {
			c.stage(now, now, "rx_validate", pkt.Job, pkt.Bytes, fmt.Sprintf("seq=%d scanned=%d", pkt.Seq, scanned))
		}
		rx.t0 = now
		addr := pkt.Job.DstAddr + uint64(pkt.Seq)*uint64(c.Cfg.MaxPayload)
		return c.translateAt("RX", addr, scanned, rx.ok)
	case rxXlateNios:
		rx.state = rxXlated
		return c.Nios.Exec(rx.nios, rx.task, rx.firmware, rx.run)
	case rxXlated:
		if rx.pkt.Job.Kind == JobGetRequest {
			return c.rxGetTranslated()
		}
		pkt := rx.pkt
		if c.Rec.Stages() {
			c.stage(rx.t0, c.Eng.Now(), "rx_translate", pkt.Job, pkt.Bytes, fmt.Sprintf("seq=%d", pkt.Seq))
		}
		if !rx.ok {
			c.rxDrop(pkt)
			rx.arrival, rx.state = c.Eng.Now(), rxFinish
			return true
		}
		// Program the RX DMA.
		rx.t0, rx.state = c.Eng.Now(), rxDMAWrite
		c.Eng.After(c.Cfg.RXDMASetup, rx.run)
		return false
	case rxDMAWrite:
		rx.state = rxDMASend
		if rx.entry.Kind != GPUMem {
			return true
		}
		c.Eng.After(rx.entry.GPU.P2PWriteCost(rx.pkt.Bytes), rx.run)
		return false
	case rxDMASend:
		// The posted write toward the destination memory.
		pkt, target := rx.pkt, c.HostMem
		if rx.entry.Kind == GPUMem {
			target = rx.entry.GPU.PCI
		}
		_, rx.arrival = c.Fab.Path(c.PCI, target).Send(c.Eng.Now(), pkt.Bytes)
		if c.Rec.Stages() {
			c.stage(rx.t0, rx.arrival, "rx_dma", pkt.Job, pkt.Bytes, fmt.Sprintf("seq=%d", pkt.Seq))
		}
		c.rxDeliver(pkt)
		rx.state = rxFinish
		return true
	case rxFinish:
		if !c.rxJobDone(rx.pkt.Job) {
			return c.rxDone()
		}
		// Firmware raises the completion event for the message; it is
		// delivered when both the firmware work and the payload's DMA
		// write have finished.
		rx.t0, rx.state = c.Eng.Now(), rxDelivered
		return c.Nios.Exec(rx.nios, "RX", c.Cfg.RXCompletion, rx.run)
	case rxDelivered:
		c.rxComplete(rx.pkt.Job, rx.t0, rx.arrival)
		return c.rxDone()
	case rxGetParsed:
		return c.rxGetParsed()
	case rxServe:
		c.rxServe()
		return c.rxDone()
	default: // rxGetFailed
		m := rx.pkt.Job.get
		c.finishGet(m.reqID, 0, m.status)
		return c.rxDone()
	}
}

// rxDone ends the packet: the RX engine takes the next one.
func (c *Card) rxDone() bool {
	c.rx.pkt, c.rx.entry = nil, nil
	c.rx.state = rxGet
	return true
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

// translateAt runs one translation through the card's translator,
// charging fixed-function (TLB probe) time to the RX pipeline and
// firmware time to the named Nios II task. The PUT RX pipeline uses task
// "RX"; the GET responder uses "GET" so its occupancy is separately
// measurable, while read-side hits/misses still land in the same per-card
// translator stats. The RX engine continues at rxXlated.
func (c *Card) translateAt(task string, addr uint64, scanned int, registered bool) bool {
	rx := &c.rx
	out := c.xlat.Translate(addr, scanned, registered)
	rx.task, rx.firmware, rx.state = task, out.Firmware, rxXlateNios
	if out.Hardware > 0 {
		c.Eng.After(out.Hardware, rx.run)
		return false
	}
	return true
}

// rxDrop discards a packet with no registered destination; the job is
// retired once its last byte has arrived (a dropped message never
// completes, so its progress state must not linger).
func (c *Card) rxDrop(pkt *Packet) {
	c.stats.RXDrops++
	c.stats.RXDroppedBytes += int64(pkt.Bytes)
	c.rxDropped[pkt.Job.ID] += pkt.Bytes
	if c.Rec.Enabled() {
		c.Rec.Emit(c.Eng.Now(), c.Name+".rx", "drop", int64(pkt.Bytes), "no BUF_LIST match")
	}
}

// rxDeliver accounts a landed packet toward its job's progress.
func (c *Card) rxDeliver(pkt *Packet) {
	c.stats.RXPackets++
	c.stats.RXBytes += int64(pkt.Bytes)
	c.rxProgress[pkt.Job.ID] += pkt.Bytes
}

// rxWireLoss accounts bytes of a job that were lost on the wire toward
// this card — the sender's injector found no usable link — and retires
// the job if its last byte has now been seen, so receivers are never
// left waiting on packets that can no longer arrive. It runs on this
// card's own shard: the loss tail posts it here unless the loss was
// found on this card (see accountLostPacket). A lost GET control message
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

// rxJobDone retires a job once every byte has either been delivered or
// dropped, and reports whether it was fully delivered: the RX engine
// then raises its completion once both the firmware work and the
// payload's DMA write have finished. Messages with drops — RX-side (no
// BUF_LIST match) or on the wire (dead link) — are drained as incomplete
// instead.
func (c *Card) rxJobDone(job *TXJob) bool {
	delivered := c.rxProgress[job.ID]
	dropped := c.rxDropped[job.ID]
	if delivered+dropped < job.Bytes {
		return false
	}
	if dropped > 0 {
		c.rxRetireIncomplete(job)
		return false
	}
	delete(c.rxProgress, job.ID)
	delete(c.rxDropped, job.ID)
	return true
}

// rxComplete raises a fully delivered job's completion, its firmware
// work having run from tFin: RecvDone on the RecvCQ, or for a GET reply
// GetDone on the GetCQ, matched to the outstanding request by reqID. It
// lands when the payload's DMA write does, or now if that was earlier.
func (c *Card) rxComplete(job *TXJob, tFin, arrival sim.Time) {
	if now := c.Eng.Now(); arrival < now {
		arrival = now
	}
	if c.Rec.Stages() {
		c.stage(tFin, arrival, "deliver", job, job.Bytes, fmt.Sprintf("src=%d", job.srcRank))
	}
	if job.Kind == JobGetReply {
		reqID, bytes := job.get.reqID, job.Bytes
		c.Eng.At(arrival, func() { c.finishGet(reqID, bytes, "") })
		return
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
