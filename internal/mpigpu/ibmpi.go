package mpigpu

import (
	"fmt"

	"apenetsim/internal/cluster"
	"apenetsim/internal/cuda"
	"apenetsim/internal/ib"
	"apenetsim/internal/sim"
	"apenetsim/internal/units"
)

// IBComm is the InfiniBand transport: a CUDA-aware MPI (MVAPICH2 or
// OpenMPI flavor) over ConnectX-2 verbs. GPU messages are staged through
// pinned host bounce buffers — synchronously below the pipeline threshold,
// chunked-and-pipelined above it. This is the software-only approach the
// paper contrasts with APEnet+'s hardware peer-to-peer path.
type IBComm struct {
	cfg  Config
	hca  *ib.HCA
	ctx  *cuda.Context
	rank int
	size int

	in      *inbox
	order   *orderedDelivery
	sendSeq []uint64
	sendq   *sim.Queue[*ibSend]
	rxState map[msgKey]*rxAssembly
	h2d     *cuda.Stream
	// msgIDs numbers the world's messages; shared by its communicators,
	// which all run on the cluster engine.
	msgIDs *uint64
}

type ibSend struct {
	dst     int
	n       units.ByteSize
	gpuSrc  bool
	payload any
	req     *Req
}

type msgKey struct {
	src int
	id  uint64
}

type rxAssembly struct {
	got      units.ByteSize
	lastSeen bool
	want     units.ByteSize
}

type ibEnvelope struct {
	envelope
	id uint64
}

// NewIBWorld builds one IB communicator per node (GPU gpuIdx) with the
// given MPI flavor.
func NewIBWorld(cl *cluster.Cluster, n int, gpuIdx int, cfg Config) ([]*IBComm, error) {
	if n > len(cl.Nodes) {
		return nil, fmt.Errorf("mpigpu: %d ranks on %d nodes", n, len(cl.Nodes))
	}
	comms := make([]*IBComm, n)
	msgIDs := new(uint64)
	for i := 0; i < n; i++ {
		node := cl.Nodes[i]
		if node.HCA == nil {
			return nil, fmt.Errorf("mpigpu: node %d has no HCA", i)
		}
		ctx := cuda.NewContext(cl.Eng, node.Fab, node.GPU(gpuIdx), node.HostMem)
		c := &IBComm{
			cfg:     cfg,
			hca:     node.HCA,
			ctx:     ctx,
			rank:    i,
			size:    n,
			in:      newInbox(cl.Eng, fmt.Sprintf("ib%d.inbox", i), n),
			sendSeq: make([]uint64, n),
			sendq:   sim.NewQueue[*ibSend](cl.Eng, fmt.Sprintf("ib%d.sendq", i), 0),
			rxState: map[msgKey]*rxAssembly{},
			h2d:     ctx.NewStream(fmt.Sprintf("ib%d.h2d", i)),
			msgIDs:  msgIDs,
		}
		c.order = newOrderedDelivery(c.in, n)
		comms[i] = c
	}
	for _, c := range comms {
		c := c
		cl.Eng.Go(fmt.Sprintf("ib%d.sender", c.rank), c.runSender)
		cl.Eng.Go(fmt.Sprintf("ib%d.demux", c.rank), c.runDemux)
	}
	return comms, nil
}

// Rank returns this communicator's rank.
func (c *IBComm) Rank() int { return c.rank }

// Size returns the world size.
func (c *IBComm) Size() int { return c.size }

// Isend queues a message for transmission.
func (c *IBComm) Isend(p *sim.Proc, dst int, n units.ByteSize, gpuSrc bool, payload any) *Req {
	req := newReq(c.hca.Eng)
	c.sendq.Put(p, &ibSend{dst: dst, n: n, gpuSrc: gpuSrc, payload: payload, req: req})
	return req
}

// Send is Isend + Wait.
func (c *IBComm) Send(p *sim.Proc, dst int, n units.ByteSize, gpuSrc bool, payload any) {
	c.Isend(p, dst, n, gpuSrc, payload).Wait(p)
}

// Recv blocks for the next message from src.
func (c *IBComm) Recv(p *sim.Proc, src int) Msg {
	return c.in.queues[src].Get(p)
}

// runSender is the MPI progress engine: GPU sources pay the pointer check
// and protocol overhead, then either a synchronous staging copy (small) or
// a chunked pipeline of async copies interleaved with sends (large).
func (c *IBComm) runSender(p *sim.Proc) {
	for {
		s := c.sendq.Get(p)
		*c.msgIDs++
		id := *c.msgIDs
		seq := c.sendSeq[s.dst]
		c.sendSeq[s.dst]++
		if !s.gpuSrc {
			env := ibEnvelope{envelope{user: s.payload, bytes: s.n, last: true, seq: seq}, id}
			c.hca.PostSend(p, s.dst, s.n, env, nil)
			s.req.complete()
			continue
		}
		// GPU source: UVA pointer classification + protocol setup. The
		// progress engine serializes the staging chain per GPU message
		// (the bounce buffer is reused, so the next message's copy waits
		// for this message's send completion) — the reason MVAPICH2's
		// G-G bandwidth at mid sizes sits well below the wire rate.
		p.Sleep(c.cfg.PtrCheck + c.cfg.ProtoOverhead)
		sent := false
		sentSig := sim.NewSignal(c.hca.Eng)
		onWireDone := func() {
			sent = true
			sentSig.Broadcast()
		}
		if s.n <= c.cfg.PipelineThreshold {
			c.ctx.MemcpyD2H(p, s.n)
			env := ibEnvelope{envelope{user: s.payload, bytes: s.n, last: true, gpuDst: true, seq: seq}, id}
			c.hca.PostSend(p, s.dst, s.n, env, onWireDone)
			s.req.complete()
			for !sent {
				sentSig.Wait(p, "ibmpi.rendezvous")
			}
			continue
		}
		// Pipelined path: D2H chunk k+1 overlaps the wire time of chunk k
		// because PostSend is asynchronous; the message as a whole is
		// still rendezvous-serialized against the next one.
		d2h := c.ctx.NewStream(fmt.Sprintf("ib%d.d2h.%d", c.rank, id))
		remaining := s.n
		chunk := 0
		for remaining > 0 {
			n := c.cfg.PipelineChunk
			if n > remaining {
				n = remaining
			}
			remaining -= n
			ev := d2h.MemcpyD2HAsync(p, n)
			ev.Wait(p)
			env := ibEnvelope{envelope{user: s.payload, bytes: s.n, chunk: chunk, last: remaining == 0, gpuDst: true, seq: seq}, id}
			done := (func())(nil)
			if remaining == 0 {
				done = onWireDone
			}
			c.hca.PostSend(p, s.dst, n, env, done)
			chunk++
		}
		s.req.complete()
		for !sent {
			sentSig.Wait(p, "ibmpi.rendezvous")
		}
	}
}

// runDemux assembles chunks; GPU-destined chunks are copied H2D on the
// receive pipeline stream, and the message is delivered when its last
// chunk lands in device memory.
func (c *IBComm) runDemux(p *sim.Proc) {
	for {
		comp := c.hca.RecvCQ.Get(p)
		env := comp.Payload.(ibEnvelope)
		if !env.gpuDst {
			c.order.deliver(p, comp.SrcRank, env.seq, Msg{
				Src: comp.SrcRank, Bytes: env.bytes, Payload: env.user, At: comp.At,
			})
			continue
		}
		key := msgKey{comp.SrcRank, env.id}
		st := c.rxState[key]
		if st == nil {
			st = &rxAssembly{want: env.bytes}
			c.rxState[key] = st
		}
		st.got += comp.Bytes
		// Receive-side staging: small messages get one synchronous copy
		// in the delivery path; pipelined messages stream chunks through
		// the H2D stream as they arrive.
		small := env.bytes <= c.cfg.PipelineThreshold
		var ev *cuda.Event
		if !small {
			ev = c.h2d.MemcpyH2DAsync(p, comp.Bytes)
		}
		if env.last {
			st.lastSeen = true
		}
		if st.lastSeen && st.got >= st.want {
			delete(c.rxState, key)
			proto := c.cfg.ProtoOverhead
			src := comp.SrcRank
			user := env.user
			want := st.want
			eng := c.hca.Eng
			evv := ev
			seq := env.seq
			eng.Go(fmt.Sprintf("ib%d.deliver", c.rank), func(dp *sim.Proc) {
				if small {
					c.ctx.MemcpyH2D(dp, want)
				} else {
					evv.Wait(dp)
				}
				dp.Sleep(proto)
				c.order.deliver(dp, src, seq, Msg{Src: src, Bytes: want, GPU: true, Payload: user, At: dp.Now()})
			})
		}
	}
}
