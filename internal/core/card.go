package core

import (
	"fmt"

	"apenetsim/internal/gpu"
	"apenetsim/internal/nios"
	"apenetsim/internal/pcie"
	"apenetsim/internal/sim"
	"apenetsim/internal/torus"
	"apenetsim/internal/trace"
	"apenetsim/internal/units"
	"apenetsim/internal/v2p"
)

// Card is one APEnet+ board: PCIe endpoint, DNP (torus links + router +
// network interface) and the Nios II firmware.
type Card struct {
	Eng   *sim.Engine
	Cfg   Config
	Rec   *trace.Recorder
	Name  string
	Rank  int
	Coord torus.Coord
	Net   *Network

	Fab     *pcie.Fabric
	PCI     *pcie.Device
	HostMem *pcie.Device
	Nios    *nios.CPU

	BufList *BufList

	// SendCQ receives SendDone completions, RecvCQ receives RecvDone
	// completions, GetCQ receives GetDone completions (unbounded:
	// completion queues live in host memory).
	SendCQ *sim.Queue[Completion]
	RecvCQ *sim.Queue[Completion]
	GetCQ  *sim.Queue[Completion]

	txq     *sim.Queue[*TXJob]
	injectQ *sim.Queue[*Packet]
	txFIFO  *sim.ByteFIFO
	rxQ     *sim.Queue[*Packet]

	// getReplyQ decouples the RX engine from TX backpressure: the RX
	// stage hands validated GET replies to the responder engine, which
	// alone waits for TX queue space. Without it, two cards GETting from
	// each other could deadlock (RX stalled on a full TX queue on both
	// sides, each TX waiting for the other's RX to drain credits).
	getReplyQ *sim.Queue[*TXJob]

	// The card's five engines — TX dispatcher, injector, RX pipeline,
	// Nios TX worker and GET responder — are event-driven state
	// machines: each keeps its in-flight job or packet here and resumes
	// through one continuation bound in Start.
	tx     txEngine
	inj    injector
	rx     rxEngine
	niosTX niosTXWorker
	getRsp getResponder

	// getWindow is the outstanding-request table's capacity: SubmitGet
	// acquires a slot (blocking when the table is full) and completion —
	// success or error — releases it.
	getWindow *sim.Semaphore
	// outstandingGets maps reqID -> in-flight GET, matching replies back
	// to their requests whatever order responders answer in.
	outstandingGets map[uint64]*GetJob
	nextReqID       uint64

	// niosTXQ carries deferred per-packet firmware work (source V2P) that
	// runs concurrently with the hardware TX engines but steals Nios time
	// from RX processing.
	niosTXQ *sim.Queue[sim.Duration]

	// txDrained is broadcast when the TX job's last outstanding fetch
	// lands; txWindow is the v3 engine's flow-control window, full again
	// whenever a job has drained.
	txDrained *sim.Signal
	txWindow  *sim.Semaphore

	// hostReader and bar1Readers (one per source GPU, built on first
	// use) are the TX read engines, kept across jobs.
	hostReader  *pcie.Reader
	bar1Readers map[*gpu.Device]*pcie.Reader
	switchCh    *pcie.Channel // flush-mode drain
	loopCh      *pcie.Channel // local injection->extraction port

	// ledger is the link-level flow control pool: senders take a credit
	// per packet before injecting toward this card and the RX engine
	// returns it after processing (see credit.go). It is owned by this
	// card's shard. creditSeq numbers this card's own outgoing credit
	// requests, half of the pure tie-break key.
	ledger    *creditLedger
	creditSeq uint64

	// orderSeq numbers this card's injected packets; packed with the rank
	// it forms the pure tie key ordering same-time hop bookings (see
	// Network.forwardOrdered).
	orderSeq uint64

	// xlat resolves RX address translations (firmware walk or hardware
	// TLB) and accounts their cost; one instance per card.
	xlat v2p.Translator

	rxProgress map[uint64]units.ByteSize
	// rxDropped tracks bytes dropped per in-flight RX job so partially
	// delivered messages can be drained instead of stranding their
	// rxProgress entries forever.
	rxDropped map[uint64]units.ByteSize

	nextJobID uint64
	stats     CardStats
	started   bool
}

// CardStats counts card activity.
type CardStats struct {
	JobsSubmitted int64
	TXPackets     int64
	TXBytes       int64
	RXPackets     int64
	RXBytes       int64
	RXDrops       int64
	// RXDroppedBytes is the payload volume the RX firmware discarded.
	RXDroppedBytes int64
	// IncompleteRXJobs counts messages whose last byte arrived but that
	// can never complete because some packets were dropped; their
	// progress state has been drained and no RecvDone was raised.
	IncompleteRXJobs int64

	// Routing counters for traffic this card injected (see internal/route).
	// AdaptiveDeviations counts hops routed off the dimension-ordered
	// direction; RoutedAroundJobs counts jobs detoured around links marked
	// down; UnreachableJobs counts PUTs refused at submit time because the
	// destination was cut off; UnroutablePackets counts packets lost to a
	// dead link mid-route (fault-blind routers only).
	AdaptiveDeviations int64
	RoutedAroundJobs   int64
	UnreachableJobs    int64
	UnroutablePackets  int64

	// GET requester-side counters (see get.go). GetRequests counts GETs
	// this card issued (including ones later refused or failed); GetBytes
	// is the payload volume successfully pulled in; GetErrors counts GETs
	// completed with an error — synchronous refusals, responder error
	// replies, and replies lost to dead links; OutstandingGetsPeak is the
	// high-water mark of the outstanding-request table.
	GetRequests         int64
	GetBytes            int64
	GetErrors           int64
	OutstandingGetsPeak int64
}

// NewCard creates a card on a node's PCIe fabric and registers it in the
// torus at coord. hostMem is the PCIe device representing host memory
// (usually the root complex); gpus reachable for P2P are referenced by
// jobs/buffers directly.
func NewCard(eng *sim.Engine, cfg Config, rec *trace.Recorder, name string,
	fab *pcie.Fabric, pci, hostMem *pcie.Device, net *Network, coord torus.Coord) (*Card, error) {

	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Card{
		Eng:     eng,
		Cfg:     cfg,
		Rec:     rec,
		Name:    name,
		Coord:   coord,
		Net:     net,
		Fab:     fab,
		PCI:     pci,
		HostMem: hostMem,
		Nios:    nios.New(eng, name+".nios", cfg.NiosClockMHz),
		BufList: &BufList{},

		SendCQ: sim.NewQueue[Completion](eng, name+".sendcq", 0),
		RecvCQ: sim.NewQueue[Completion](eng, name+".recvcq", 0),
		GetCQ:  sim.NewQueue[Completion](eng, name+".getcq", 0),

		txq:       sim.NewQueue[*TXJob](eng, name+".txq", 64),
		injectQ:   sim.NewQueue[*Packet](eng, name+".injq", 0),
		txFIFO:    sim.NewByteFIFO(eng, name+".txfifo", int64(cfg.TXFIFOBytes)),
		rxQ:       sim.NewQueue[*Packet](eng, name+".rxq", 0),
		niosTXQ:   sim.NewQueue[sim.Duration](eng, name+".niostxq", 0),
		getReplyQ: sim.NewQueue[*TXJob](eng, name+".getrspq", 0),

		outstandingGets: make(map[uint64]*GetJob),

		switchCh: pcie.NewChannel(eng, name+".switch", cfg.SwitchBandwidth),
		loopCh:   pcie.NewChannel(eng, name+".loop", cfg.LinkBandwidth),

		xlat: cfg.Translation.New(v2p.Costs{
			BufListBase: cfg.RXBufListBase,
			PerBuffer:   cfg.RXPerBuffer,
			Walk:        cfg.RXV2PWalk,
		}),

		rxProgress: make(map[uint64]units.ByteSize),
		rxDropped:  make(map[uint64]units.ByteSize),
	}
	credits := cfg.RXQueuePackets
	if credits <= 0 {
		credits = 16
	}
	c.ledger = newCreditLedger(int(credits))
	gets := cfg.MaxOutstandingGets
	if gets <= 0 {
		gets = 16
	}
	c.getWindow = sim.NewSemaphore(eng, int64(gets))
	if c.Cfg.GetRequestBytes <= 0 {
		// Default descriptor size, clamped so it always fits one packet
		// (the RX engine serves a GET per arriving control packet).
		c.Cfg.GetRequestBytes = 32
		if c.Cfg.GetRequestBytes > c.Cfg.MaxPayload {
			c.Cfg.GetRequestBytes = c.Cfg.MaxPayload
		}
	}
	c.txDrained = sim.NewSignal(eng)
	if cfg.TXVersion == 3 {
		c.txWindow = sim.NewSemaphore(eng, int64(cfg.PrefetchWindow))
	}
	c.hostReader = fab.NewReader(pci, hostMem, cfg.HostReadOutstanding, cfg.HostReadChunk)
	c.Nios.SetRecorder(rec)
	net.register(c)
	return c, nil
}

// Start binds the card's five engines and schedules their start events,
// all at the current time, in the order tx, inject, rx, niosTX, getrsp.
// Call once after construction.
func (c *Card) Start() {
	if c.started {
		panic("core: card started twice")
	}
	c.started = true
	c.tx.run, c.tx.nios = c.stepTX, c.Nios.NewSlot()
	c.inj.run = c.stepInjector
	c.inj.request = func() { c.inj.dest.creditRequest(c, c.inj.reqT, c.inj.reqSeq) }
	c.rx.run, c.rx.nios = c.stepRX, c.Nios.NewSlot()
	c.niosTX.run, c.niosTX.nios = c.stepNiosTX, c.Nios.NewSlot()
	c.getRsp.run = c.stepGetResponder
	now := c.Eng.Now()
	c.Eng.At(now, c.tx.run)
	c.Eng.At(now, c.inj.run)
	c.Eng.At(now, c.rx.run)
	c.Eng.At(now, c.niosTX.run)
	c.Eng.At(now, c.getRsp.run)
}

// Stats returns a snapshot of activity counters.
func (c *Card) Stats() CardStats { return c.stats }

// Translator returns the card's RX address-translation engine.
func (c *Card) Translator() v2p.Translator { return c.xlat }

// TranslationStats snapshots the RX translator's hit/miss/fill counters.
func (c *Card) TranslationStats() v2p.Stats { return c.xlat.Stats() }

// PendingRXJobs returns the number of in-flight receive jobs — jobs with
// delivered or dropped bytes whose last byte has not yet arrived.
// Drained jobs (completed or retired as incomplete) are not counted.
func (c *Card) PendingRXJobs() int {
	n := len(c.rxProgress)
	for id := range c.rxDropped {
		if _, also := c.rxProgress[id]; !also {
			n++
		}
	}
	return n
}

// RegisterBuffer pins and registers a buffer with the card, paying the
// driver/firmware cost; the entry becomes visible to the RX path
// (BUF_LIST) immediately after.
func (c *Card) RegisterBuffer(p *sim.Proc, e *BufEntry) error {
	if e.Size <= 0 {
		return fmt.Errorf("core: registering empty buffer")
	}
	if e.Kind == GPUMem && e.GPU == nil {
		return fmt.Errorf("core: GPU buffer without device")
	}
	cost := c.Cfg.RegHostCost
	if e.Kind == GPUMem {
		cost = c.Cfg.RegGPUCost
	}
	p.Sleep(cost)
	c.BufList.Register(e)
	return nil
}

// Submit enqueues a PUT job, blocking while the card's TX queue is full
// (the paper's benchmark loop "enqueuing as many RDMA PUT as possible as
// to keep the transmission queue constantly full" exercises exactly this).
// The per-message kernel-driver cost is paid by the caller, modeling the
// synchronous part of the PUT API. Jobs toward destinations the router
// cannot reach — a rank outside the torus, or a node cut off by links
// marked down — fail here, synchronously, like a driver returning
// ENETUNREACH: nothing enters the TX pipeline, so degraded-torus runs
// end with an error instead of a hang.
func (c *Card) Submit(p *sim.Proc, job *TXJob) error {
	if job.Bytes <= 0 {
		panic("core: empty job")
	}
	if job.SrcKind == GPUMem && job.SrcGPU == nil {
		panic("core: GPU job without source device")
	}
	if job.DstRank < 0 || job.DstRank >= c.Net.Dims.Nodes() {
		return fmt.Errorf("core: no rank %d in torus %v", job.DstRank, c.Net.Dims)
	}
	if job.DstRank != c.Rank && !c.Net.Reachable(c.Coord, c.Net.Dims.CoordOf(job.DstRank)) {
		c.stats.UnreachableJobs++
		return fmt.Errorf("core: rank %d (%v) unreachable from rank %d (%v): torus partitioned by down links",
			job.DstRank, c.Net.Dims.CoordOf(job.DstRank), c.Rank, c.Coord)
	}
	c.assignJobID(job)
	job.Submitted = p.Now()
	p.Sleep(c.Cfg.TXDriverPerMessage)
	if c.Rec.Stages() {
		c.stage(job.Submitted, p.Now(), "submit", job, job.Bytes, stageNote(job, c.Rank))
	}
	c.stats.JobsSubmitted++
	job.enqueued = p.Now()
	c.txq.Put(p, job)
	return nil
}

// assignJobID mints a cluster-unique wire ID for a job this card injects
// and stamps it as the source.
func (c *Card) assignJobID(job *TXJob) {
	c.nextJobID++
	job.ID = c.nextJobID<<16 | uint64(c.Rank&0xffff) // unique across cards
	job.srcRank = c.Rank
}

// packetize splits a job into packets of at most MaxPayload, built in
// one slab: a job allocates its packets once, whatever their number.
func (c *Card) packetize(job *TXJob) []Packet {
	pkts := make([]Packet, (job.Bytes+c.Cfg.MaxPayload-1)/c.Cfg.MaxPayload)
	remaining := job.Bytes
	for seq := range pkts {
		sz := c.Cfg.MaxPayload
		if sz > remaining {
			sz = remaining
		}
		remaining -= sz
		pkts[seq] = Packet{Job: job, Seq: seq, Bytes: sz, Last: remaining == 0}
	}
	return pkts
}

// waitUntil is a state machine's SleepUntil: it reports true when t is
// not in the future, and otherwise schedules fn at t.
func (c *Card) waitUntil(t sim.Time, fn func()) bool {
	if t <= c.Eng.Now() {
		return true
	}
	c.Eng.At(t, fn)
	return false
}

// niosTXWorker executes deferred per-packet TX firmware work (source V2P
// translation, descriptor push). It contends with RX processing for the
// Nios II — the mechanism behind the loop-back bandwidth loss and the
// v2/v3 difference in Fig 5.
type niosTXWorker struct {
	nios *nios.Slot
	run  func() // stepNiosTX, bound once in Start
}

// stepNiosTX runs queued firmware work until the queue is empty or a
// task has to wait for the core.
func (c *Card) stepNiosTX() {
	w := &c.niosTX
	for {
		cost, ok := c.niosTXQ.GetFunc(w.run)
		if !ok || !c.Nios.Exec(w.nios, "GPU_P2P_TX", cost, w.run) {
			return
		}
	}
}

func (c *Card) wireSize(pkt *Packet) units.ByteSize {
	return pkt.Bytes + c.Cfg.HeaderBytes
}

// completePacketTX accounts an injected packet and delivers the local
// SendDone completion for the job's last packet. GET-class jobs raise no
// SendDone: the requester completes on GetDone, and the responder's
// replies are firmware-internal traffic no host process waits for.
func (c *Card) completePacketTX(pkt *Packet) {
	c.stats.TXPackets++
	c.stats.TXBytes += int64(pkt.Bytes)
	if pkt.Last && pkt.Job.Kind == JobPut {
		c.SendCQ.TryPut(Completion{
			Kind:    SendDone,
			JobID:   pkt.Job.ID,
			SrcRank: c.Rank,
			DstRank: pkt.Job.DstRank,
			DstAddr: pkt.Job.DstAddr,
			Bytes:   pkt.Job.Bytes,
			At:      c.Eng.Now(),
		})
	}
}
