package core

import (
	"fmt"

	"apenetsim/internal/sim"
	"apenetsim/internal/units"
)

// txGPU transmits a GPU-memory job through the GPU_P2P_TX engine (or the
// BAR1 fallback). The three engine generations the paper describes map to
// three fetch strategies:
//
//	v1: software on the Nios II, one outstanding ≤4 KB read request;
//	    per-request firmware cost dominates (peak ≈0.6 GB/s).
//	v2: hardware request generator (one request per ReadReqEvery) with a
//	    batch-refill prefetch window: fetch W bytes, wait for the batch,
//	    refill — BW(W) ≈ W/(headLatency + W/responseRate).
//	v3: continuous credit-based streaming, flow-controlled only by TX FIFO
//	    space; the Nios II stays out of the steady-state loop.
//
// The per-message firmware setup runs at dispatch (txDispatch); txGPU
// takes the fetch loop's steps from there, then the engine's re-arm.
func (c *Card) txGPU() bool {
	tx := &c.tx
	switch tx.state {
	case txGPUVersion:
		switch c.Cfg.TXVersion {
		case 1:
			tx.state = txV1Request
		case 2:
			tx.cursor, tx.state = c.Eng.Now(), txV2Refill
		case 3:
			tx.cursor, tx.state = c.Eng.Now(), txV3Window
		default:
			panic(fmt.Sprintf("core: bad TX version %d", c.Cfg.TXVersion))
		}
		return true
	case txV1Request, txV1Fetch, txV1Inject:
		return c.txGPUv1()
	case txV2Refill, txV2Packet, txV2Fetch:
		return c.txGPUv2()
	case txV3Window, txV3Fetch, txV3Drain:
		return c.txGPUv3()
	default: // txRearm
		// Engine retire/re-arm: the non-overlapped tail of the ~3 µs
		// per-transaction overhead the paper's bus analysis shows (Fig 3);
		// it bounds the card's GPU-source message rate but not
		// single-message latency (the data is already on the wire).
		c.txJobDone()
		c.Eng.After(c.Cfg.TXGPURearm, tx.run)
		return false
	}
}

// fetchAt issues read requests for n bytes of GPU memory, pacing them at
// the hardware generator cadence from *cursor onward (the cursor persists
// across packets so the request stream is continuous), and returns the
// arrival time of the last response byte in the TX FIFO. The GPU responder
// serializes the requests on its internal read pipe.
func (c *Card) fetchAt(job *TXJob, cursor *sim.Time, n units.ByteSize) (last sim.Time) {
	reqPath := c.Fab.Path(c.PCI, job.SrcGPU.PCI)
	respPath := c.Fab.Path(job.SrcGPU.PCI, c.PCI)
	if now := c.Eng.Now(); *cursor < now {
		*cursor = now
	}
	var sent units.ByteSize
	k := 0
	for sent < n {
		sz := c.Cfg.ReadReqBytes
		if sz > n-sent {
			sz = n - sent
		}
		sent += sz
		_, reqArr := reqPath.SendRaw(*cursor, c.Cfg.ReadReqTLP)
		*cursor = cursor.Add(c.Cfg.ReadReqEvery)
		_, arr := job.SrcGPU.P2PServeRead(reqArr, sz, respPath)
		if arr > last {
			last = arr
		}
		k++
	}
	if c.Rec.Enabled() {
		c.Rec.Emit(last, c.Name+".gputx", "fetch_done", int64(n), fmt.Sprintf("%d requests", k))
	}
	return last
}

// txGPUv1: one packet-sized request at a time, generated in software
// ("able to process a single packet request of up to 4KB", §IV).
func (c *Card) txGPUv1() bool {
	tx := &c.tx
	switch tx.state {
	case txV1Request:
		if tx.next == len(tx.pkts) {
			tx.state = txRearm
			return true
		}
		// Software request generation and flow control on the Nios II;
		// it also starves the RX task while it runs.
		tx.state = txV1Fetch
		return c.Nios.Exec(tx.nios, "GPU_P2P_TX", c.Cfg.TXV1PerRequest, tx.run)
	case txV1Fetch:
		pkt := &tx.pkts[tx.next]
		if !c.txFIFO.PutFunc(int64(c.wireSize(pkt)), tx.run) {
			return false
		}
		src := tx.job.SrcGPU
		_, reqArr := c.Fab.Path(c.PCI, src.PCI).SendRaw(c.Eng.Now(), c.Cfg.ReadReqTLP)
		_, last := src.P2PServeRead(reqArr, pkt.Bytes, c.Fab.Path(src.PCI, c.PCI))
		tx.state = txV1Inject
		return c.waitUntil(last, tx.run)
	default: // txV1Inject
		c.injectQ.TryPut(&tx.pkts[tx.next])
		tx.next++
		tx.state = txV1Request
		return true
	}
}

// txGPUv2: batch-refill prefetching with a fixed window: the engine
// requests a window's worth of data, waits for the whole batch to land in
// the TX FIFO, and only then refills — the "limited pre-fetching" that
// caps v2 below the GPU response rate with the paper's
// BW(W) ≈ W/(headLatency + W/responseRate) shape. Packets are handed to
// the injector as their data arrives, so FIFO drain overlaps fetching.
func (c *Card) txGPUv2() bool {
	tx := &c.tx
	switch tx.state {
	case txV2Refill:
		if tx.next == len(tx.pkts) {
			tx.state = txRearm
			return true
		}
		// Firmware kicks each refill.
		tx.batchBytes, tx.batchLast = 0, 0
		tx.state = txV2Packet
		return c.Nios.Exec(tx.nios, "GPU_P2P_TX", c.Cfg.TXV2PerRefill, tx.run)
	case txV2Packet:
		if tx.next == len(tx.pkts) || tx.batchBytes >= c.Cfg.PrefetchWindow {
			// Refill barrier: wait for the window to complete.
			tx.state = txV2Refill
			return c.waitUntil(tx.batchLast, tx.run)
		}
		tx.batchBytes += tx.pkts[tx.next].Bytes
		// Source V2P for the packet runs concurrently on the Nios II.
		c.niosTXQ.TryPut(c.Cfg.TXPerPacketV2P)
		tx.state = txV2Fetch
		return true
	default: // txV2Fetch
		pkt := &tx.pkts[tx.next]
		if !c.txFIFO.PutFunc(int64(c.wireSize(pkt)), tx.run) {
			return false
		}
		last := c.fetchAt(tx.job, &tx.cursor, pkt.Bytes)
		if last > tx.batchLast {
			tx.batchLast = last
		}
		c.Eng.At(last, func() { c.injectQ.TryPut(pkt) })
		tx.next++
		tx.state = txV2Packet
		return true
	}
}

// txGPUv3: continuous streaming; outstanding data bounded by the
// flow-control window and TX FIFO space, with completion-driven credits —
// the request queue stays full and the Nios II stays out of the loop.
func (c *Card) txGPUv3() bool {
	tx := &c.tx
	switch tx.state {
	case txV3Window:
		if tx.next == len(tx.pkts) {
			tx.state = txV3Drain
			return true
		}
		pkt := &tx.pkts[tx.next]
		c.niosTXQ.TryPut(c.Cfg.TXPerPacketV2P)
		// Credit-based flow control: data in flight is bounded by the
		// window; FIFO space is reserved up front so the engine
		// back-reacts to almost-full conditions.
		tx.state = txV3Fetch
		return c.txWindow.AcquireFunc(int64(pkt.Bytes), tx.run)
	case txV3Fetch:
		pkt := &tx.pkts[tx.next]
		if !c.txFIFO.PutFunc(int64(c.wireSize(pkt)), tx.run) {
			return false
		}
		last := c.fetchAt(tx.job, &tx.cursor, pkt.Bytes)
		tx.outstanding++
		c.Eng.At(last, func() {
			c.txWindow.Release(int64(pkt.Bytes))
			c.injectQ.TryPut(pkt)
			c.txLanded()
		})
		tx.next++
		tx.state = txV3Window
		return true
	default: // txV3Drain
		// Keep the TX context until the job's data is fully fetched, so
		// jobs stay ordered on the wire.
		if !c.txFetched() {
			return false
		}
		tx.state = txRearm
		return true
	}
}

// txGPUBar1 reads the source through the BAR1 aperture with plain PCIe
// split transactions, streaming across packet boundaries; each job gets
// a fresh read engine.
func (c *Card) txGPUBar1() bool {
	tx := &c.tx
	if tx.next == len(tx.pkts) {
		tx.state = txDrain
		return true
	}
	pkt := &tx.pkts[tx.next]
	if !c.txFIFO.PutFunc(int64(c.wireSize(pkt)), tx.run) {
		return false
	}
	tx.job.SrcGPU.CountBAR1Read(pkt.Bytes)
	tx.outstanding++
	tx.next++
	return tx.bar1.ReadFunc(pkt.Bytes, func(sim.Time) {
		c.injectQ.TryPut(pkt)
		c.txLanded()
	}, tx.run)
}
