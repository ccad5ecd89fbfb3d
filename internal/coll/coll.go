// Package coll implements collective communication over the simulated
// APEnet+ RDMA peer-to-peer path: halo/neighbor exchange, ring and
// dimension-ordered allreduce, broadcast, and all-to-all, on tori far
// beyond the paper's 4×2×1 platform (up to 8×8×8 = 512 cards).
//
// These are the traffic patterns the APEnet+ line of work exists to
// serve — the HSG halo exchanges and BFS frontier all-to-alls of the
// paper's §V, and the lattice-QCD collectives the follow-on APEnet+
// papers target at petaflops scale. Every collective is built from the
// same RDMA PUT primitive the paper's own benchmarks use, so the card's
// calibrated TX/RX engines, firmware serialization, and link-level flow
// control all apply, and the per-link meters on core.Network show where
// a pattern saturates the torus.
//
// Programming model: a World builds one Rank per torus node; each rank
// runs the same program (SPMD) in its own simulated process, and every
// rank must issue the same sequence of collective calls — tags that
// match sends to receives are derived from a per-rank operation counter,
// exactly like MPI's implicit ordering. Collectives optionally reduce a
// small vector of float64 values carried alongside the timed wire bytes,
// which is how the tests check results against a serial reduction
// without simulating large payload memories.
package coll

import (
	"fmt"

	"apenetsim/internal/cluster"
	"apenetsim/internal/core"
	"apenetsim/internal/gpu"
	"apenetsim/internal/rdma"
	"apenetsim/internal/sim"
	"apenetsim/internal/timeseries"
	"apenetsim/internal/torus"
	"apenetsim/internal/trace"
	"apenetsim/internal/units"
)

// Config describes a collective world.
type Config struct {
	// Dims is the torus to build; every node gets an APEnet+ card.
	Dims torus.Dims
	// Card overrides the calibrated card configuration (nil = default).
	Card *core.Config
	// Buf selects where collective payloads live: core.HostMem (zero
	// value) or core.GPUMem, which adds one Fermi per node and moves
	// every transfer through the GPU peer-to-peer path.
	Buf core.MemKind
	// SlotBytes sizes each rank's registered send/receive buffers; it
	// bounds the largest single message a collective may send. Default
	// 4 MB.
	SlotBytes units.ByteSize
	// Rec, when non-nil, records trace events (and allows
	// Network.TraceLinkStats snapshots). Every slab gets its own
	// shard-private recorder — the emit path stays lock-free — and Run
	// merges the per-shard streams into Rec in the canonical order
	// (trace.SortCanonical), which is byte-identical across shard counts.
	Rec *trace.Recorder
	// TS, when non-nil, collects interval-sampled run telemetry during
	// Run — link utilization and backlog, outstanding collective sends,
	// TLB hit rate, and, with more than one shard, per-shard busy
	// fractions. Samples are taken at round barriers, so the sampling
	// instants (and therefore the series, unlike the event stream)
	// differ across shard counts. See internal/timeseries; apebench
	// -trace-out embeds the series in the capture file.
	TS *timeseries.Set
	// Shards is the number of slabs the torus is sliced into along its
	// longest dimension: each slab's nodes live on their own sim engine,
	// and the engines run in parallel under the conservative protocol of
	// sim.Group with the cable hop latency as lookahead. 0 and 1 both
	// mean one shard: the same group protocol on a single engine, with
	// no worker goroutine. Every router shards: hops are booked on the
	// engine owning each hop's source node at the packet's arrival time,
	// so an adaptive router's backlog probes read only that engine's
	// links. Results are bit-identical at every shard count. Requesting
	// more shards than the slab axis is long is an error (see
	// MaxShards).
	Shards int
}

// World is a set of SPMD ranks joined by a simulated APEnet+ torus.
type World struct {
	Eng   *sim.Engine
	Cl    *cluster.Cluster
	Dims  torus.Dims
	Cfg   Config
	Ranks []*Rank

	bar       *barrier
	g         *sim.Group
	shardRecs []*trace.Recorder // per-slab recorders, parallel to the group's engines
}

// Rank is one collective participant: a node, its card endpoint, and the
// registered buffers collectives move data through.
type Rank struct {
	ID    int
	Coord torus.Coord

	w    *World
	node *cluster.Node
	ep   *rdma.Endpoint

	send, recv *rdma.Buffer
	ops        uint64 // collective-call counter; the tag base generator
	sendsOut   int    // submitted PUTs not yet drained from the SendCQ
	pending    map[msgKey][]Msg
}

// Msg is a received collective message.
type Msg struct {
	Src  int
	Vals []float64
}

type msgKey struct {
	tag uint64
	src int
}

// collMsg rides as the PUT payload and carries the matching tag.
type collMsg struct {
	tag  uint64
	src  int
	vals []float64
}

func must(err error) {
	if err != nil {
		panic("coll: " + err.Error())
	}
}

// NewWorld builds a torus of cfg.Dims card-equipped nodes. When
// cfg.Buf is core.GPUMem every node also gets a Fermi C2050 and the
// collectives exercise the GPU P2P path end to end.
func NewWorld(eng *sim.Engine, cfg Config) (*World, error) {
	if !cfg.Dims.Valid() {
		return nil, fmt.Errorf("coll: invalid torus dimensions %v", cfg.Dims)
	}
	if cfg.SlotBytes <= 0 {
		cfg.SlotBytes = 4 * units.MB
	}
	cc := core.DefaultConfig()
	if cfg.Card != nil {
		cc = *cfg.Card
	}
	// The hop latency is the group lookahead, so it is checked before the
	// group is built.
	if err := cc.Validate(); err != nil {
		return nil, err
	}
	var specs []gpu.Spec
	if cfg.Buf == core.GPUMem {
		specs = []gpu.Spec{gpu.Fermi2050()}
	}
	n := cfg.Dims.Nodes()

	// Slice the torus into slabs along its longest dimension and give each
	// slab its own engine in a sim.Group (see Config.Shards).
	shards := cfg.Shards
	if shards < 1 {
		shards = 1
	}
	axis := slabAxis(cfg.Dims)
	if ax := axisLen(cfg.Dims, axis); shards > ax {
		// A slab needs at least one plane of the axis: more engines than
		// planes would leave some with no cards and the slab map
		// (axis coordinate * shards / axis length) collapses. Refuse
		// loudly rather than guessing what the caller meant.
		return nil, fmt.Errorf("coll: %d shards requested but torus %v slices into at most %d slabs along its longest axis (see MaxShards)",
			shards, cfg.Dims, ax)
	}
	g := sim.NewGroup(eng, shards, cc.HopLatency)
	slabOf := func(i int) int {
		return axisCoord(cfg.Dims.CoordOf(i), axis) * shards / axisLen(cfg.Dims, axis)
	}

	// Per-shard trace buffers: each slab's components emit into their
	// own recorder (single-writer, no locks on the emit path), mirroring
	// the attached recorder's mode; Run merges them back.
	var shardRecs []*trace.Recorder
	recOf := func(i int) *trace.Recorder { return nil }
	if cfg.Rec.Enabled() {
		shardRecs = make([]*trace.Recorder, shards)
		for k := range shardRecs {
			shardRecs[k] = trace.New()
			shardRecs[k].SetStages(cfg.Rec.Stages())
		}
		recOf = func(i int) *trace.Recorder { return shardRecs[slabOf(i)] }
	}

	cl, err := cluster.New(eng, cfg.Rec, cfg.Dims, n, func(i int) cluster.NodeConfig {
		return cluster.NodeConfig{GPUSpecs: specs, Card: &cc, Eng: g.Engine(slabOf(i)), Rec: recOf(i)}
	})
	if err != nil {
		return nil, err
	}
	w := &World{Eng: eng, Cl: cl, Dims: cfg.Dims, Cfg: cfg, bar: &barrier{n: n, g: g},
		g: g, shardRecs: shardRecs}
	for i, node := range cl.Nodes {
		w.Ranks = append(w.Ranks, &Rank{
			ID:      i,
			Coord:   node.Coord,
			w:       w,
			node:    node,
			ep:      rdma.NewEndpoint(node.Card),
			pending: map[msgKey][]Msg{},
		})
	}
	return w, nil
}

// Net returns the torus network (for link stats).
func (w *World) Net() *core.Network { return w.Cl.Net }

// Shards returns the shard count the world runs on.
func (w *World) Shards() int { return w.g.Shards() }

// MaxShards returns the largest legal Config.Shards for a torus: the
// length of its slab axis (the longest dimension, ties broken toward Z).
func MaxShards(d torus.Dims) int { return axisLen(d, slabAxis(d)) }

// slabAxis picks the dimension to slice into slabs: the longest one, with
// ties broken toward Z. Dimension-ordered routing corrects X, then Y, then
// Z, so slabs along the latest long axis keep the earlier correction hops
// inside the packet's current slab and minimize cross-shard traffic.
func slabAxis(d torus.Dims) int {
	axis, size := 0, d.X
	if d.Y >= size {
		axis, size = 1, d.Y
	}
	if d.Z >= size {
		axis = 2
	}
	return axis
}

func axisLen(d torus.Dims, axis int) int {
	switch axis {
	case 0:
		return d.X
	case 1:
		return d.Y
	}
	return d.Z
}

func axisCoord(c torus.Coord, axis int) int {
	switch axis {
	case 0:
		return c.X
	case 1:
		return c.Y
	}
	return c.Z
}

// Run spawns one process per rank executing body and drives the engine to
// completion. Each rank registers its buffers first; body starts after a
// world barrier, so ranks enter aligned.
func (w *World) Run(body func(p *sim.Proc, r *Rank)) {
	// Events recorded before this Run (earlier worlds sharing the
	// recorder, world markers) keep their order; only this run's capture
	// is merged/normalized below.
	mark := w.Cfg.Rec.Len()
	for _, r := range w.Ranks {
		r := r
		// Each rank's process lives on its node's engine: its shard's.
		r.node.Card.Eng.Go(fmt.Sprintf("coll.rank%d", r.ID), func(p *sim.Proc) {
			r.setup(p)
			w.Barrier(p)
			body(p, r)
		})
	}
	w.installSampling()
	w.Eng.Run()
	w.mergeTrace(mark)
	if w.Cfg.Rec.Stages() {
		// Stage captures carry the final link counters so the renderer's
		// link table matches the network's own meters.
		w.Net().TraceLinkStats(w.Cfg.Rec)
	}
}

// mergeTrace folds this run's capture into the attached recorder in the
// canonical order: it appends the per-shard streams (in shard order) and
// sorts, which ends at the identical byte stream for the identical model
// results — what lets a capture taken at 1, 2, or 4 shards compare equal.
func (w *World) mergeTrace(mark int) {
	if !w.Cfg.Rec.Enabled() {
		return
	}
	streams := make([][]trace.Event, len(w.shardRecs))
	for i, r := range w.shardRecs {
		streams[i] = r.Events()
	}
	w.Cfg.Rec.MergeCanonical(mark, streams...)
	for _, r := range w.shardRecs {
		r.Reset()
	}
}

// setup allocates and registers the rank's communication buffers.
func (r *Rank) setup(p *sim.Proc) {
	cfg := r.w.Cfg
	var err error
	if cfg.Buf == core.GPUMem {
		r.send, err = r.ep.NewGPUBuffer(p, r.node.GPU(0), cfg.SlotBytes)
		must(err)
		r.recv, err = r.ep.NewGPUBuffer(p, r.node.GPU(0), cfg.SlotBytes)
		must(err)
	} else {
		r.send, err = r.ep.NewHostBuffer(p, cfg.SlotBytes)
		must(err)
		r.recv, err = r.ep.NewHostBuffer(p, cfg.SlotBytes)
		must(err)
	}
}

// Barrier blocks until every rank has arrived. It is a zero-cost
// simulation rendezvous (no network traffic): collectives use it only to
// align phases for timing, never as part of the measured pattern.
func (w *World) Barrier(p *sim.Proc) { w.bar.wait(p) }

// Timed runs fn between two world barriers and returns its makespan; the
// barriers align all ranks, so every rank observes the same duration.
func (r *Rank) Timed(p *sim.Proc, fn func()) sim.Duration {
	r.w.Barrier(p)
	start := p.Now()
	fn()
	r.w.Barrier(p)
	return p.Now().Sub(start)
}

// opBase mints the tag base for one collective call. All ranks issue the
// same call sequence (SPMD), so their counters agree and tags match.
func (r *Rank) opBase() uint64 {
	r.ops++
	return r.ops << 16
}

// put issues one collective message: a PUT of n wire bytes into the
// destination rank's receive slot, with the tag and values riding as
// payload. vals are copied so the sender may keep mutating its vector.
func (r *Rank) put(p *sim.Proc, dst int, n units.ByteSize, tag uint64, vals []float64) {
	if dst == r.ID {
		panic("coll: self-send")
	}
	if n < 1 {
		n = 1 // empty segments still need a control message on the wire
	}
	if n > r.w.Cfg.SlotBytes {
		panic(fmt.Sprintf("coll: message %v exceeds slot %v", n, r.w.Cfg.SlotBytes))
	}
	var cp []float64
	if len(vals) > 0 {
		cp = append(cp, vals...)
	}
	peer := r.w.Ranks[dst]
	_, err := r.ep.Put(p, dst, peer.recv.Addr, r.send, 0, n, rdma.PutFlags{
		Payload: collMsg{tag: tag, src: r.ID, vals: cp},
	})
	must(err)
	r.sendsOut++
}

// TryPut issues one PUT of n wire bytes toward dst's receive slot and
// returns the submission error, if any. Collectives always panic on PUT
// failure (a healthy world never fails); degraded-routing experiments
// use TryPut to probe whether a partitioned torus cleanly refuses
// traffic without taking down the SPMD program. The probe rides a
// normally tagged payload, so one that does get delivered (the torus
// was degraded but connected) just sits in the receiver's pending
// buffer like any unconsumed message. It advances only the caller's
// collective-call counter — probe asymmetrically, or between aligned
// collective phases.
func (r *Rank) TryPut(p *sim.Proc, dst int, n units.ByteSize) error {
	if n < 1 {
		n = 1
	}
	if n > r.w.Cfg.SlotBytes {
		return fmt.Errorf("coll: message %v exceeds slot %v", n, r.w.Cfg.SlotBytes)
	}
	base := r.opBase()
	peer := r.w.Ranks[dst]
	_, err := r.ep.Put(p, dst, peer.recv.Addr, r.send, 0, n, rdma.PutFlags{
		Payload: collMsg{tag: base, src: r.ID},
	})
	if err == nil {
		r.sendsOut++
	}
	return err
}

// get blocks until the message with the given tag from src arrives,
// buffering any other completions that surface first (MPI-style matching
// over the card's single receive completion queue).
func (r *Rank) get(p *sim.Proc, tag uint64, src int) Msg {
	key := msgKey{tag, src}
	for {
		if q := r.pending[key]; len(q) > 0 {
			m := q[0]
			if len(q) == 1 {
				delete(r.pending, key)
			} else {
				r.pending[key] = q[1:]
			}
			return m
		}
		comp := r.ep.WaitRecv(p)
		cm, ok := comp.Payload.(collMsg)
		if !ok {
			panic("coll: foreign completion on collective endpoint")
		}
		k := msgKey{cm.tag, cm.src}
		r.pending[k] = append(r.pending[k], Msg{Src: cm.src, Vals: cm.vals})
	}
}

// drainSends consumes the local completions of every PUT issued so far,
// so the send queue cannot grow without bound across phases.
func (r *Rank) drainSends(p *sim.Proc) {
	for r.sendsOut > 0 {
		r.ep.WaitSend(p)
		r.sendsOut--
	}
}

// barrier is a coordinator rendezvous on shard 0: arrivals are posted
// there, and the last one wakes every rank.
type barrier struct {
	n     int
	g     *sim.Group
	waits []barrierArrival // arrivals so far, in ingestion order
}

type barrierArrival struct {
	p     *sim.Proc
	shard int
	t     sim.Time
}

// wait posts the arrival to the coordinator (shard 0) as an infra
// message and parks until the coordinator wakes it at the rendezvous
// time.
func (b *barrier) wait(p *sim.Proc) {
	e, t, proc := p.Engine(), p.Now(), p
	sh := e.Shard()
	e.Post(0, t, true, func() { b.arrive(proc, sh, t) })
	p.Park("coll.barrier")
}

// arrive runs on shard 0. The n-th arrival completes the rendezvous: all
// ranks resume at the latest arrival time. Arrivals were ingested in
// deterministic merge-key order, so the last one carries the maximum
// stamp; its wake is infra (the last arriver continues at once, costing
// no event) while the other n-1 wakes are counted events. A rank cannot
// reach the next barrier before this one completes, so one arrival list
// suffices.
func (b *barrier) arrive(p *sim.Proc, shard int, t sim.Time) {
	b.waits = append(b.waits, barrierArrival{p, shard, t})
	if len(b.waits) < b.n {
		return
	}
	waits := b.waits
	b.waits = nil
	maxT := waits[len(waits)-1].t
	co := b.g.Engine(0)
	for i, w := range waits {
		w := w
		co.Post(w.shard, maxT, i == len(waits)-1, func() { w.p.Engine().Wake(w.p) })
	}
}
