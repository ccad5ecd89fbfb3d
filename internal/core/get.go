package core

import (
	"fmt"

	"apenetsim/internal/sim"
	"apenetsim/internal/units"
)

// RDMA GET: remote reads as a request/response exchange over the torus.
//
// The paper's API is PUT-only; the APEnet+ follow-up cards add GET, which
// this engine models as two crossings of the same routed fabric:
//
//	requester                              responder
//	---------                              ---------
//	SubmitGet: window slot (table-full
//	  blocks), driver cost, request
//	  descriptor into the TX path  ------> RX intercepts JobGetRequest:
//	                                         parse/validate (Nios "GET"),
//	                                         BUF_LIST lookup + the same
//	                                         translation stage as PUT
//	                                         (read-side hits/misses land
//	                                         in the card's TLB stats),
//	                                         read-DMA programming (Nios
//	                                         "GET"), then the reply as an
//	  RX receives JobGetReply as an          ordinary host/GPU-read TX job
//	  ordinary data stream: validate <-----  (or a JobGetError control
//	  against the caller's registered        message when validation
//	  buffer, translate, RX DMA;             fails)
//	  completion matches reqID in the
//	  outstanding table and lands
//	  GetDone on the GetCQ
//
// Both crossings ask the pluggable router hop by hop, so adaptive
// deviation and fault detours are counted on the card that injected each
// leg: request detours on the requester, reply detours on the responder.
// A partitioned destination is refused synchronously at SubmitGet
// (mirroring Submit's ENETUNREACH); a partition discovered on the reply
// crossing fails the outstanding request with an error completion.

// GetJob is one RDMA GET submitted to the card: read Bytes from
// RemoteAddr on RemoteRank into the local registered buffer at LocalAddr.
type GetJob struct {
	// ID is the request ID (reqID): requester-local, minted at submit,
	// echoed by the reply, and reported as Completion.JobID.
	ID         uint64
	RemoteRank int
	RemoteAddr uint64
	LocalAddr  uint64
	Bytes      units.ByteSize
	// Payload is application data carried to the GetDone completion.
	Payload any

	// Submitted is stamped when the driver accepts the job.
	Submitted sim.Time
}

// getMeta is the request/response bookkeeping a GET-class TXJob carries
// across the torus.
type getMeta struct {
	reqID      uint64
	requester  int            // requester rank: where the reply goes
	remoteAddr uint64         // address read on the responder
	bytes      units.ByteSize // payload to read (the request's wire Bytes is just the descriptor size)
	replyAddr  uint64         // requester-side landing address
	status     string         // error-reply cause ("" on requests / data replies)
}

// SubmitGet enqueues a GET, blocking while the outstanding-request table
// is full (the GET-side mirror of Submit's TX-queue backpressure) and
// paying the per-message driver cost. Like Submit, destinations the
// router cannot reach fail here, synchronously.
func (c *Card) SubmitGet(p *sim.Proc, job *GetJob) error {
	if job.Bytes <= 0 {
		panic("core: empty GET")
	}
	if job.RemoteRank < 0 || job.RemoteRank >= c.Net.Dims.Nodes() {
		return fmt.Errorf("core: no rank %d in torus %v", job.RemoteRank, c.Net.Dims)
	}
	if job.RemoteRank != c.Rank && !c.Net.Reachable(c.Coord, c.Net.Dims.CoordOf(job.RemoteRank)) {
		c.stats.GetRequests++
		c.stats.GetErrors++
		return fmt.Errorf("core: rank %d (%v) unreachable from rank %d (%v): torus partitioned by down links",
			job.RemoteRank, c.Net.Dims.CoordOf(job.RemoteRank), c.Rank, c.Coord)
	}
	c.getWindow.Acquire(p, 1)
	c.nextReqID++
	job.ID = c.nextReqID
	job.Submitted = p.Now()
	c.outstandingGets[job.ID] = job
	if n := int64(len(c.outstandingGets)); n > c.stats.OutstandingGetsPeak {
		c.stats.OutstandingGetsPeak = n
	}
	c.stats.GetRequests++
	p.Sleep(c.Cfg.TXDriverPerMessage)
	req := &TXJob{
		Kind:    JobGetRequest,
		DstRank: job.RemoteRank,
		DstAddr: job.RemoteAddr,
		Bytes:   c.Cfg.GetRequestBytes,
		get: &getMeta{
			reqID:      job.ID,
			requester:  c.Rank,
			remoteAddr: job.RemoteAddr,
			bytes:      job.Bytes,
			replyAddr:  job.LocalAddr,
		},
	}
	c.assignJobID(req)
	if c.Rec.Enabled() {
		c.Rec.Emit(p.Now(), c.Name+".get", "get_request", int64(job.Bytes),
			fmt.Sprintf("req %d: rank %d addr %#x -> local %#x", job.ID, job.RemoteRank, job.RemoteAddr, job.LocalAddr))
	}
	if c.Rec.Stages() {
		c.stage(job.Submitted, p.Now(), "submit", req, job.Bytes, stageNote(req, c.Rank))
	}
	req.enqueued = p.Now()
	c.txq.Put(p, req)
	return nil
}

// OutstandingGets returns the current outstanding-request table depth.
func (c *Card) OutstandingGets() int { return len(c.outstandingGets) }

// rxGetRequest is the responder's half of a GET: the RX engine intercepts
// the request before the PUT validate stage and runs the responder
// pipeline — parse, BUF_LIST validation, the shared translation stage,
// read-DMA programming — charging the firmware work to the Nios II "GET"
// task so responder occupancy is measurable next to "RX" and
// "GPU_P2P_TX". The steps below run in that order as RX engine states;
// the serve stage span starts here.
func (c *Card) rxGetRequest() bool {
	rx := &c.rx
	rx.t0, rx.state = c.Eng.Now(), rxGetParsed
	return c.Nios.Exec(rx.nios, "GET", c.Cfg.GetRequestHandling, rx.run)
}

// rxGetParsed validates a parsed GET request against the BUF_LIST and
// translates its remote address.
func (c *Card) rxGetParsed() bool {
	rx := &c.rx
	m := rx.pkt.Job.get
	var scanned int
	rx.entry, scanned, rx.ok = c.BufList.Lookup(m.remoteAddr, m.bytes)
	return c.translateAt("GET", m.remoteAddr, scanned, rx.ok)
}

// rxGetTranslated answers an unregistered request with an error reply and
// otherwise programs the read DMA.
func (c *Card) rxGetTranslated() bool {
	rx := &c.rx
	if m := rx.pkt.Job.get; !rx.ok {
		c.replyGetError(m, fmt.Sprintf("remote address %#x+%v not registered on rank %d", m.remoteAddr, m.bytes, c.Rank))
		return c.rxDone()
	}
	rx.state = rxServe
	return c.Nios.Exec(rx.nios, "GET", c.Cfg.GetReadDMASetup, rx.run)
}

// rxServe injects the reply as an ordinary routed data stream: a
// host-read (DMA engine) or GPU-P2P-read (gpu.Device) TX job toward the
// requester's reply buffer.
func (c *Card) rxServe() {
	m, entry := c.rx.pkt.Job.get, c.rx.entry
	reply := &TXJob{
		Kind:    JobGetReply,
		SrcKind: entry.Kind,
		SrcGPU:  entry.GPU,
		DstRank: m.requester,
		DstAddr: m.replyAddr,
		Bytes:   m.bytes,
		get:     m,
	}
	if c.Rec.Enabled() {
		c.Rec.Emit(c.Eng.Now(), c.Name+".get", "get_reply", int64(m.bytes),
			fmt.Sprintf("req %d: %s read %#x -> rank %d", m.reqID, entry.Kind, m.remoteAddr, m.requester))
	}
	if c.Rec.Stages() {
		c.stage(c.rx.t0, c.Eng.Now(), "serve", reply, m.bytes, fmt.Sprintf("responder=%d", c.Rank))
	}
	c.submitGetReply(reply)
}

// replyGetError sends a GET error reply: a control message that fails the
// requester's outstanding entry with status. If the requester itself is
// unreachable the failure is delivered directly (the simulation's
// equivalent of the requester timing out a request the fabric can no
// longer answer).
func (c *Card) replyGetError(m *getMeta, status string) {
	if c.Rec.Enabled() {
		c.Rec.Emit(c.Eng.Now(), c.Name+".get", "get_reply", 0,
			fmt.Sprintf("req %d: error to rank %d: %s", m.reqID, m.requester, status))
	}
	if !c.Net.Reachable(c.Coord, c.Net.Dims.CoordOf(m.requester)) {
		c.failRemoteGet(m, "error reply undeliverable: "+status)
		return
	}
	em := *m
	em.status = status
	errJob := &TXJob{
		Kind:    JobGetError,
		DstRank: m.requester,
		DstAddr: m.replyAddr,
		Bytes:   c.Cfg.GetRequestBytes,
		get:     &em,
	}
	c.submitGetReply(errJob)
}

// submitGetReply hands a reply (data or error) to the GET responder. The
// RX engine never waits here — the queue is unbounded — so request
// processing cannot deadlock against TX backpressure.
func (c *Card) submitGetReply(job *TXJob) {
	c.assignJobID(job)
	job.Submitted = c.Eng.Now()
	job.enqueued = job.Submitted
	c.getReplyQ.TryPut(job)
}

// getResponder drains validated GET replies into the normal TX path,
// where they serialize with the card's own jobs and pay the same read
// engines (host DMA / GPU_P2P_TX) and injection costs as a PUT. job is
// the reply waiting for TX queue space, if any.
type getResponder struct {
	job *TXJob
	run func() // stepGetResponder, bound once in Start
}

// stepGetResponder moves replies into the TX queue until the reply queue
// is empty or the TX queue is full.
func (c *Card) stepGetResponder() {
	g := &c.getRsp
	for {
		if g.job == nil {
			job, ok := c.getReplyQ.GetFunc(g.run)
			if !ok {
				return
			}
			if !c.Net.Reachable(c.Coord, c.Net.Dims.CoordOf(job.DstRank)) {
				// The reply crossing is partitioned (links died after the
				// request crossed): ENETUNREACH propagates to the
				// requester as an error completion instead of a hang.
				c.failRemoteGet(job.get, fmt.Sprintf("reply unreachable: rank %d cut off from rank %d", job.DstRank, c.Rank))
				continue
			}
			g.job = job
		}
		if !c.txq.PutFunc(g.job, g.run) {
			return
		}
		g.job = nil
	}
}

// failRemoteGet fails the requester's outstanding entry from this card:
// the simulation's stand-in for the requester-side timeout a real card
// would need when the fabric swallows a request or reply. Like the loss
// tail it runs through onCard, so on a sharded torus the failure is
// posted to the requester's shard instead of editing its state from
// this one.
func (c *Card) failRemoteGet(m *getMeta, reason string) {
	if rc := c.Net.Card(m.requester); rc != nil {
		onCard(c, rc, c.Eng.Now(), func() { rc.finishGet(m.reqID, 0, reason) })
	}
}

// finishGet completes the outstanding request reqID — success when err is
// empty, failure otherwise — releasing its table slot and raising GetDone
// on the GetCQ. Unknown reqIDs (an entry already failed by a partial
// reply) are ignored.
func (c *Card) finishGet(reqID uint64, arrivedBytes units.ByteSize, err string) {
	job, ok := c.outstandingGets[reqID]
	if !ok {
		return
	}
	delete(c.outstandingGets, reqID)
	c.getWindow.Release(1)
	if err == "" {
		c.stats.GetBytes += int64(arrivedBytes)
	} else {
		c.stats.GetErrors++
	}
	if c.Rec.Enabled() {
		detail := fmt.Sprintf("req %d: %v from rank %d", reqID, job.Bytes, job.RemoteRank)
		if err != "" {
			detail = fmt.Sprintf("req %d: ERROR: %s", reqID, err)
		}
		c.Rec.Emit(c.Eng.Now(), c.Name+".get", "get_done", int64(arrivedBytes), detail)
	}
	c.GetCQ.TryPut(Completion{
		Kind:    GetDone,
		JobID:   reqID,
		SrcRank: job.RemoteRank,
		DstRank: c.Rank,
		DstAddr: job.LocalAddr,
		Bytes:   arrivedBytes,
		At:      c.Eng.Now(),
		Payload: job.Payload,
		Err:     err,
	})
}
