package core

import (
	"fmt"

	"apenetsim/internal/gpu"
	"apenetsim/internal/nios"
	"apenetsim/internal/pcie"
	"apenetsim/internal/sim"
	"apenetsim/internal/units"
)

// The TX dispatcher models the card's single TX context: jobs serialize
// while the packets within a job pipeline. Whatever the job's fetch
// method, each packet takes three steps:
//
//	gate:  the method's work before the packet takes TX FIFO space
//	FIFO:  reserve the packet's TX FIFO space, stalling on backpressure
//	fetch: the method's way of filling that space; the packet enters the
//	       injector once its data has landed
//
// After the last packet the dispatcher keeps the TX context until the
// job's data has landed, so jobs stay ordered on the wire, and a
// GPU_P2P_TX job then re-arms the engine.
type txEngine struct {
	state  txState
	method fetchMethod
	job    *TXJob
	pkts   []Packet
	// next indexes the packet in the loop; outstanding counts issued
	// fetches whose data has not landed (host, BAR1, v3).
	next        int
	outstanding int
	// reader is the host or BAR1 job's read engine. cursor is the GPU
	// request generator's clock (v2, v3), and reqTimes holds the times of
	// a packet's request train; batchBytes and batchLast are the v2
	// refill batch's volume and landing time.
	reader     *pcie.Reader
	cursor     sim.Time
	reqTimes   []sim.Time
	batchBytes units.ByteSize
	batchLast  sim.Time
	nios       *nios.Slot
	run        func() // stepTX, bound once in Start
}

// txState names the TX dispatcher's next step.
type txState uint8

const (
	txGetJob txState = iota // take and dispatch the next job
	txGate                  // the next packet's gate, or the drain after the last
	txRefill                // v2: the batch has landed, kick the refill
	txFIFO                  // reserve the packet's FIFO space, then fetch
	txLand                  // v1: the packet's data has landed, inject it
	txDrain                 // wait for the job's data, then re-arm or end
)

// fetchMethod is how the job in flight gets its packets' data into the
// TX FIFO: control messages (GET requests and error replies) carry
// card-built descriptors, not memory; GET data replies are ordinary
// host or GPU reads.
type fetchMethod uint8

const (
	fetchControl fetchMethod = iota
	fetchHost
	fetchBAR1
	fetchV1 // the GPU_P2P_TX generations, in order, come last
	fetchV2
	fetchV3
)

// stepTX runs the TX dispatcher until it has to wait; whatever ends the
// wait calls it again.
func (c *Card) stepTX() {
	for c.txStep() {
	}
}

// txStep takes one step of the TX dispatcher and reports whether it may
// take the next at once.
func (c *Card) txStep() bool {
	tx := &c.tx
	switch tx.state {
	case txGetJob:
		return c.txDispatch()
	case txGate:
		return c.txGate()
	case txRefill:
		// v2: the batch has landed; the firmware kicks the refill.
		tx.batchBytes, tx.batchLast = 0, 0
		tx.state = txGate
		return c.Nios.Exec(tx.nios, "GPU_P2P_TX", c.Cfg.TXV2PerRefill, tx.run)
	case txFIFO:
		pkt := &tx.pkts[tx.next]
		if !c.txFIFO.PutFunc(int64(c.wireSize(pkt)), tx.run) {
			return false
		}
		return c.txFetch(pkt)
	case txLand:
		c.injectQ.TryPut(&tx.pkts[tx.next])
		tx.next++
		tx.state = txGate
		return true
	default: // txDrain
		// The job's data lands: its outstanding host, BAR1 or v3
		// fetches, or v2's last batch.
		if tx.outstanding > 0 {
			c.txDrained.WaitFunc(tx.run)
			return false
		}
		if !c.waitUntil(tx.batchLast, tx.run) {
			return false
		}
		p2p := tx.method >= fetchV1
		tx.job, tx.pkts, tx.reader = nil, nil, nil
		tx.state = txGetJob
		if !p2p {
			return true
		}
		// Engine retire/re-arm: the non-overlapped tail of the ~3 µs
		// per-transaction overhead the paper's bus analysis shows (Fig 3);
		// it bounds the card's GPU-source message rate but not
		// single-message latency (the data is already on the wire).
		c.Eng.After(c.Cfg.TXGPURearm, tx.run)
		return false
	}
}

// txDispatch takes the next job from the TX queue and picks its fetch
// method.
func (c *Card) txDispatch() bool {
	tx := &c.tx
	job, ok := c.txq.GetFunc(tx.run)
	if !ok {
		return false
	}
	if job.enqueued > 0 && c.Rec.Stages() {
		c.stage(job.enqueued, c.Eng.Now(), "txq", job, job.Bytes, "leg="+job.Kind.String())
	}
	tx.job, tx.pkts, tx.next, tx.state = job, c.packetize(job), 0, txGate
	tx.cursor, tx.batchLast = 0, 0
	switch {
	case job.Kind == JobGetRequest || job.Kind == JobGetError:
		tx.method = fetchControl
	case job.SrcKind == HostMem:
		tx.method, tx.reader = fetchHost, c.hostReader
	case c.Cfg.GPUTXMethod == MethodBAR1:
		tx.method, tx.reader = fetchBAR1, c.bar1Reader(job.SrcGPU)
		job.SrcGPU.CountBAR1Read(job.Bytes)
	default:
		tx.method = fetchV1 + fetchMethod(c.Cfg.TXVersion-1) // 1-3, see Config.Validate
		// v2 starts behind a full batch that has landed: its first
		// packet kicks a refill without waiting.
		tx.batchBytes = c.Cfg.PrefetchWindow
		// Per-message firmware setup: map the buffer context, program
		// the engine.
		return c.Nios.Exec(tx.nios, "GPU_P2P_TX", c.Cfg.TXMsgSetupGPU, tx.run)
	}
	return true
}

// txGate runs the next packet's gate, the step before it takes TX FIFO
// space, or moves to the drain after the job's last packet.
func (c *Card) txGate() bool {
	tx := &c.tx
	if tx.next == len(tx.pkts) {
		tx.state = txDrain
		return true
	}
	pkt := &tx.pkts[tx.next]
	tx.state = txFIFO
	switch tx.method {
	case fetchHost:
		// Host: the kernel driver pushes a validated, translated
		// descriptor per packet (host CPU, not Nios).
		c.Eng.After(c.Cfg.TXDriverPerPacket, tx.run)
		return false
	case fetchV1:
		// v1: software request generation and flow control on the Nios
		// II, one packet-sized request at a time ("able to process a
		// single packet request of up to 4KB", §IV). The per-request
		// firmware cost dominates (peak ≈0.6 GB/s), and it starves the
		// RX task while it runs.
		return c.Nios.Exec(tx.nios, "GPU_P2P_TX", c.Cfg.TXV1PerRequest, tx.run)
	case fetchV2:
		// v2: batch-refill prefetching with a fixed window: the hardware
		// request generator fetches a window's worth of data, the engine
		// waits for the whole batch to land in the TX FIFO, and only then
		// does the firmware kick a refill — the "limited pre-fetching"
		// that caps v2 below the GPU response rate with the paper's
		// BW(W) ≈ W/(headLatency + W/responseRate) shape.
		if tx.batchBytes >= c.Cfg.PrefetchWindow {
			tx.state = txRefill
			return c.waitUntil(tx.batchLast, tx.run)
		}
		tx.batchBytes += pkt.Bytes
		// Source V2P for the packet runs concurrently on the Nios II.
		c.niosTXQ.TryPut(c.Cfg.TXPerPacketV2P)
	case fetchV3:
		// v3: continuous credit-based streaming: data in flight is
		// bounded by the flow-control window and TX FIFO space, credits
		// return as the data lands, and the Nios II stays out of the
		// steady-state loop but for the concurrent source V2P.
		c.niosTXQ.TryPut(c.Cfg.TXPerPacketV2P)
		return c.txWindow.AcquireFunc(int64(pkt.Bytes), tx.run)
	}
	return true
}

// txFetch fills the packet's reserved FIFO space by the job's method and
// moves the loop on.
func (c *Card) txFetch(pkt *Packet) bool {
	tx := &c.tx
	tx.state = txGate
	switch tx.method {
	case fetchControl:
		// The descriptor is already on the card: nothing to fetch.
		c.injectQ.TryPut(pkt)
	case fetchHost, fetchBAR1:
		// One DMA read per packet — of host memory, or of the GPU's BAR1
		// aperture with plain PCIe split transactions. Reads pipeline in
		// the read engine across packets, and packets land in issue
		// order; the ~2.4 GB/s host read of Table I emerges from the
		// engine's tag count and the host completion latency, no
		// bandwidth value is coded here. A tag grant that lets the read
		// out resumes the loop.
		tx.outstanding++
		tx.next++
		return tx.reader.ReadFunc(pkt.Bytes, func(sim.Time) { c.txLanded(pkt) }, tx.run)
	case fetchV1:
		// One request for the whole packet; it is injected once its data
		// has landed.
		src := tx.job.SrcGPU
		_, reqArr := c.Fab.Path(c.PCI, src.PCI).SendRaw(c.Eng.Now(), c.Cfg.ReadReqTLP)
		at := [1]sim.Time{reqArr}
		last := src.P2PServeTrain(at[:], pkt.Bytes, pkt.Bytes, c.Fab.Path(src.PCI, c.PCI))
		tx.state = txLand
		return c.waitUntil(last, tx.run)
	case fetchV2:
		// Packets reach the injector as their data lands, so FIFO drain
		// overlaps fetching.
		last := c.fetchAt(pkt.Bytes)
		if last > tx.batchLast {
			tx.batchLast = last
		}
		c.Eng.At(last, func() { c.injectQ.TryPut(pkt) })
	case fetchV3:
		tx.outstanding++
		c.Eng.At(c.fetchAt(pkt.Bytes), func() { c.txLanded(pkt) })
	}
	tx.next++
	return true
}

// txLanded hands a host, BAR1 or v3 packet whose data has landed in the
// TX FIFO to the injector — a v3 packet returns its window credit first
// — and wakes the drain after the job's last outstanding fetch. The
// drain keeps the job in the dispatcher until then.
func (c *Card) txLanded(pkt *Packet) {
	tx := &c.tx
	if tx.method == fetchV3 {
		c.txWindow.Release(int64(pkt.Bytes))
	}
	c.injectQ.TryPut(pkt)
	tx.outstanding--
	if tx.outstanding == 0 {
		c.txDrained.Broadcast()
	}
}

// fetchAt issues read requests for n bytes of the job's GPU memory,
// pacing them at the hardware generator cadence from the engine's cursor
// onward (the cursor persists across packets so the request stream is
// continuous), and returns the arrival time of the last response byte in
// the TX FIFO. The GPU responder serializes the requests on its internal
// read pipe.
func (c *Card) fetchAt(n units.ByteSize) (last sim.Time) {
	tx, src := &c.tx, c.tx.job.SrcGPU
	if now := c.Eng.Now(); tx.cursor < now {
		tx.cursor = now
	}
	k := int((n + c.Cfg.ReadReqBytes - 1) / c.Cfg.ReadReqBytes)
	if cap(tx.reqTimes) < k {
		tx.reqTimes = make([]sim.Time, k)
	}
	at := tx.reqTimes[:k]
	for i := range at {
		at[i] = tx.cursor
		tx.cursor = tx.cursor.Add(c.Cfg.ReadReqEvery)
	}
	// The whole request train is booked on the card -> GPU path before
	// the GPU serves it and its response train is booked on the GPU ->
	// card path: each channel gets the bookings a request-by-request loop
	// would give it, in the same order, because no time passes here and
	// the two paths share no channel. A PCIe path climbs the up channels
	// on its source's side and descends the down channels on its
	// destination's side, so requests and responses use opposite
	// directions of every full-duplex link they cross.
	c.Fab.Path(c.PCI, src.PCI).SendRawTrain(at, c.Cfg.ReadReqTLP)
	last = src.P2PServeTrain(at, n, c.Cfg.ReadReqBytes, c.Fab.Path(src.PCI, c.PCI))
	if c.Rec.Enabled() {
		c.Rec.Emit(last, c.Name+".gputx", "fetch_done", int64(n), fmt.Sprintf("%d requests", k))
	}
	return last
}

// bar1Reader returns the card's read engine for the source GPU's BAR1
// aperture, built on first use and kept across jobs like hostReader.
func (c *Card) bar1Reader(g *gpu.Device) *pcie.Reader {
	r := c.bar1Readers[g]
	if r == nil {
		if c.bar1Readers == nil {
			c.bar1Readers = make(map[*gpu.Device]*pcie.Reader)
		}
		r = g.BAR1Reader(c.Fab, c.PCI)
		c.bar1Readers[g] = r
	}
	return r
}
