package core

import (
	"apenetsim/internal/sim"
)

// txHost transmits a host-memory job: the kernel driver pushes validated,
// translated descriptors; the card's DMA engine reads host memory with a
// closed loop of outstanding PCIe reads into the TX FIFO; packets are
// handed to the injector as they complete.
//
// The ~2.4 GB/s host-memory read of Table I emerges from the read engine's
// tag count and the host completion latency; no bandwidth value is coded
// here.
func (c *Card) txHost(p *sim.Proc, job *TXJob) {
	outstanding := 0
	drained := sim.NewSignal(c.Eng)
	pkts := c.packetize(job)
	for i := range pkts {
		pkt := &pkts[i]
		// Per-descriptor driver work (host CPU, not Nios).
		p.Sleep(c.Cfg.TXDriverPerPacket)
		// Reserve FIFO space, stalling on backpressure, then fetch the
		// payload from host memory; reads for successive packets pipeline
		// in the DMA engine, packets enter the injector in completion
		// (= issue) order.
		c.txFIFO.Put(p, int64(c.wireSize(pkt)))
		outstanding++
		c.hostReader.ReadAsync(p, pkt.Bytes, func(sim.Time) {
			c.injectQ.TryPut(pkt)
			outstanding--
			if outstanding == 0 {
				drained.Broadcast()
			}
		})
	}
	// Hold the TX context until this job's data is fully fetched so jobs
	// stay ordered on the wire.
	for outstanding > 0 {
		drained.Wait(p, "txhost.drain")
	}
}
