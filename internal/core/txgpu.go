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
func (c *Card) txGPU(p *sim.Proc, job *TXJob) {
	if c.Cfg.GPUTXMethod == MethodBAR1 {
		c.txGPUBar1(p, job)
		return
	}
	// Per-message firmware setup: map the buffer context, program the
	// engine.
	c.Nios.Exec(p, "GPU_P2P_TX", c.Cfg.TXMsgSetupGPU)

	switch c.Cfg.TXVersion {
	case 1:
		c.txGPUv1(p, job)
	case 2:
		c.txGPUv2(p, job)
	case 3:
		c.txGPUv3(p, job)
	default:
		panic(fmt.Sprintf("core: bad TX version %d", c.Cfg.TXVersion))
	}
	// Engine retire/re-arm: the non-overlapped tail of the ~3 µs
	// per-transaction overhead the paper's bus analysis shows (Fig 3); it
	// bounds the card's GPU-source message rate but not single-message
	// latency (the data is already on the wire).
	p.Sleep(c.Cfg.TXGPURearm)
}

// fetchAt issues read requests for n bytes of GPU memory, pacing them at
// the hardware generator cadence from *cursor onward (the cursor persists
// across packets so the request stream is continuous), and returns the
// arrival time of the last response byte in the TX FIFO. The GPU responder
// serializes the requests on its internal read pipe.
func (c *Card) fetchAt(p *sim.Proc, job *TXJob, cursor *sim.Time, n units.ByteSize) (last sim.Time) {
	reqPath := c.Fab.Path(c.PCI, job.SrcGPU.PCI)
	respPath := c.Fab.Path(job.SrcGPU.PCI, c.PCI)
	if now := p.Now(); *cursor < now {
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
func (c *Card) txGPUv1(p *sim.Proc, job *TXJob) {
	reqPath := c.Fab.Path(c.PCI, job.SrcGPU.PCI)
	respPath := c.Fab.Path(job.SrcGPU.PCI, c.PCI)
	pkts := c.packetize(job)
	for i := range pkts {
		pkt := &pkts[i]
		// Software request generation and flow control on the Nios II;
		// it also starves the RX task while it runs.
		c.Nios.Exec(p, "GPU_P2P_TX", c.Cfg.TXV1PerRequest)
		c.txFIFO.Put(p, int64(c.wireSize(pkt)))
		_, reqArr := reqPath.SendRaw(p.Now(), c.Cfg.ReadReqTLP)
		_, last := job.SrcGPU.P2PServeRead(reqArr, pkt.Bytes, respPath)
		p.SleepUntil(last)
		c.emitPacketTX(p, pkt)
	}
}

// txGPUv2: batch-refill prefetching with a fixed window: the engine
// requests a window's worth of data, waits for the whole batch to land in
// the TX FIFO, and only then refills — the "limited pre-fetching" that
// caps v2 below the GPU response rate with the paper's
// BW(W) ≈ W/(headLatency + W/responseRate) shape. Packets are handed to
// the injector as their data arrives, so FIFO drain overlaps fetching.
func (c *Card) txGPUv2(p *sim.Proc, job *TXJob) {
	pkts := c.packetize(job)
	cursor := p.Now()
	next := 0
	for next < len(pkts) {
		// Firmware kicks each refill.
		c.Nios.Exec(p, "GPU_P2P_TX", c.Cfg.TXV2PerRefill)
		var batchBytes units.ByteSize
		var batchLast sim.Time
		for next < len(pkts) && batchBytes < c.Cfg.PrefetchWindow {
			pkt := &pkts[next]
			next++
			batchBytes += pkt.Bytes
			// Source V2P for the packet runs concurrently on the Nios II.
			c.niosTXQ.Put(p, c.Cfg.TXPerPacketV2P)
			c.txFIFO.Put(p, int64(c.wireSize(pkt)))
			last := c.fetchAt(p, job, &cursor, pkt.Bytes)
			if last > batchLast {
				batchLast = last
			}
			c.Eng.At(last, func() { c.injectQ.TryPut(pkt) })
		}
		// Refill barrier: wait for the window to complete.
		p.SleepUntil(batchLast)
	}
}

// txGPUv3: continuous streaming; outstanding data bounded by the
// flow-control window and TX FIFO space, with completion-driven credits —
// the request queue stays full and the Nios II stays out of the loop.
func (c *Card) txGPUv3(p *sim.Proc, job *TXJob) {
	window := sim.NewSemaphore(c.Eng, int64(c.Cfg.PrefetchWindow))
	cursor := p.Now()
	outstanding := 0
	drained := sim.NewSignal(c.Eng)
	pkts := c.packetize(job)
	for i := range pkts {
		pkt := &pkts[i]
		c.niosTXQ.Put(p, c.Cfg.TXPerPacketV2P)
		// Credit-based flow control: data in flight is bounded by the
		// window; FIFO space is reserved up front so the engine
		// back-reacts to almost-full conditions.
		window.Acquire(p, int64(pkt.Bytes))
		c.txFIFO.Put(p, int64(c.wireSize(pkt)))
		last := c.fetchAt(p, job, &cursor, pkt.Bytes)
		outstanding++
		c.Eng.At(last, func() {
			window.Release(int64(pkt.Bytes))
			c.injectQ.TryPut(pkt)
			outstanding--
			if outstanding == 0 {
				drained.Broadcast()
			}
		})
	}
	// Keep the TX context until the job's data is fully fetched, so jobs
	// stay ordered on the wire.
	for outstanding > 0 {
		drained.Wait(p, "gputx.v3.drain")
	}
}

// txGPUBar1 reads the source through the BAR1 aperture with plain PCIe
// split transactions, streaming across packet boundaries.
func (c *Card) txGPUBar1(p *sim.Proc, job *TXJob) {
	rd := job.SrcGPU.BAR1Reader(c.Fab, c.PCI)
	outstanding := 0
	drained := sim.NewSignal(c.Eng)
	pkts := c.packetize(job)
	for i := range pkts {
		pkt := &pkts[i]
		c.txFIFO.Put(p, int64(c.wireSize(pkt)))
		job.SrcGPU.CountBAR1Read(pkt.Bytes)
		outstanding++
		rd.ReadAsync(p, pkt.Bytes, func(sim.Time) {
			c.injectQ.TryPut(pkt)
			outstanding--
			if outstanding == 0 {
				drained.Broadcast()
			}
		})
	}
	for outstanding > 0 {
		drained.Wait(p, "txbar1.drain")
	}
}
