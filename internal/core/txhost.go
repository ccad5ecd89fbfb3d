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
func (c *Card) txHost() bool {
	tx := &c.tx
	if tx.state == txHostDriver {
		if tx.next == len(tx.pkts) {
			tx.state = txDrain
			return true
		}
		// Per-descriptor driver work (host CPU, not Nios).
		tx.state = txHostFIFO
		c.Eng.After(c.Cfg.TXDriverPerPacket, tx.run)
		return false
	}
	// Reserve FIFO space, stalling on backpressure, then fetch the
	// payload from host memory; reads for successive packets pipeline
	// in the DMA engine, packets enter the injector in completion
	// (= issue) order.
	pkt := &tx.pkts[tx.next]
	if !c.txFIFO.PutFunc(int64(c.wireSize(pkt)), tx.run) {
		return false
	}
	tx.outstanding++
	tx.next++
	tx.state = txHostDriver
	return c.hostReader.ReadFunc(pkt.Bytes, func(sim.Time) {
		c.injectQ.TryPut(pkt)
		c.txLanded()
	}, tx.run)
}
