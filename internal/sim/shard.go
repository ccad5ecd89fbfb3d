package sim

import "fmt"

// Group runs one or more engines — shards of one simulation — in
// parallel under a conservative parallel-discrete-event protocol.
//
// The simulation is partitioned so that every model component (card,
// proc, link calendar) lives on exactly one shard, and all interaction
// that crosses a shard boundary goes through Post: a timestamped message
// into the destination shard's mailbox. Execution proceeds in windowed
// rounds:
//
//  1. barrier: ingest every mailbox into the destination heaps,
//  2. compute minNext = the earliest pending timestamp across shards,
//  3. set the horizon H = minNext + lookahead,
//  4. in parallel, each shard executes its own events with t < H,
//  5. repeat until every heap and mailbox is empty.
//
// A multi-shard group runs each shard's window on a persistent worker
// goroutine, coordinated from Run. A one-shard group, which runs the
// same protocol on a single engine, has no worker: its event loop takes
// the barrier step itself whenever its window runs dry, so a round costs
// no goroutine switch. Both take the same step (barrier).
//
// The lookahead is the minimum latency of any cross-shard interaction
// (for a torus: the cable hop latency), so a message generated inside a
// round and stamped a full hop later can never land inside the window
// that produced it. Messages stamped earlier than that — bookkeeping of
// the cross-shard protocols themselves — are allowed to arrive in the
// destination's logical past; the engine executes them retroactively
// (Step rewinds the clock to the event's stamp), which keeps every
// computed timestamp exact while relaxing execution order.
//
// Determinism: the merge order of ingested events is the pure tuple
// (time, class, order, source shard, source sequence) — see eventLess —
// and rounds are separated by full barriers, so results are a function
// of the model and the shard mapping only, never of worker scheduling.
type Group struct {
	engines   []*Engine
	lookahead Duration
	outbox    [][][]event // [src][dst], written only by src's worker
	postSeq   []uint64    // per-source Post counter
	running   bool
	// floor is the current round's minNext: a global lower bound on the
	// stamp of any event still to execute, and therefore on the `from` of
	// any future calendar reservation. Calendar pruning uses it instead of
	// a shard's own clock, which may rewind for late-lane messages (see
	// Engine.PruneHorizon). Written only at the round barrier; workers
	// read it, with the barrier providing the happens-before edge.
	floor Time

	// rounds and busyShardRounds count the current run's windows and, summed
	// over them, the shards with events in the window (see
	// Account.ShardRounds).
	rounds, busyShardRounds uint64

	// Persistent shard workers of a multi-shard group. A multi-million-
	// round run parks one long-lived goroutine per shard on its work
	// channel instead of spawning shards×rounds goroutines: the
	// coordinator hands each busy shard the round's horizon, the worker
	// drains its heap up to it and reports on done. The channel operations
	// carry the happens-before edges between coordinator and workers.
	work      []chan Time
	done      chan struct{}
	workersUp bool
	// inline is set while a one-shard group runs: its loop, on the driver
	// or on a blocked proc, takes each barrier step (see Engine.next).
	inline bool

	// OnRound, when set, is called at the end of every round, at the
	// barrier: with every shard parked, so cross-shard reads are safe.
	// A multi-shard group calls it on the coordinator once every activated
	// worker has drained; a one-shard group calls it on the goroutine that
	// holds its loop, between two events. floor is the round's minNext
	// (the global lower bound on any remaining event stamp) and busy[i]
	// reports whether shard i had work this round. The busy slice is
	// reused across rounds; callers must not retain it. Set it before Run;
	// the group never writes it.
	OnRound func(floor Time, busy []bool)

	busyFlags []bool // reused per-round scratch handed to OnRound
}

// NewGroup builds a sharded execution group of n shards around an
// existing engine, which becomes shard 0; n-1 sibling engines are
// created sharing its Account (without counting as extra engines, so
// accounting stays comparable with a serial run). The lookahead must be
// positive: it is the minimum cross-shard latency the model guarantees.
// After NewGroup, eng.Run() drives the whole group and eng.Shutdown()
// tears it down.
func NewGroup(eng *Engine, n int, lookahead Duration) *Group {
	if n < 1 {
		panic(fmt.Sprintf("sim: group needs at least 1 shard, got %d", n))
	}
	if lookahead <= 0 {
		panic(fmt.Sprintf("sim: group needs positive lookahead, got %v", lookahead))
	}
	if eng.group != nil {
		panic("sim: engine already belongs to a group")
	}
	g := &Group{
		engines:   make([]*Engine, n),
		lookahead: lookahead,
		outbox:    make([][][]event, n),
		postSeq:   make([]uint64, n),
		busyFlags: make([]bool, n),
	}
	g.engines[0] = eng
	for i := 1; i < n; i++ {
		// Siblings share the account but do not call addEngine: the
		// group is one logical engine as far as accounting goes.
		g.engines[i] = newEngine(eng.account)
	}
	for i, e := range g.engines {
		e.group = g
		e.shard = i
		g.outbox[i] = make([][]event, n)
	}
	return g
}

// Shards returns the number of shards in the group.
func (g *Group) Shards() int { return len(g.engines) }

// Engine returns the engine of shard i.
func (g *Group) Engine(i int) *Engine { return g.engines[i] }

// Running reports whether the group is mid-run. Mutations that must not
// race with workers (fault injection, topology changes) are only legal
// while a multi-shard group is not running; a one-shard group has no
// worker.
func (g *Group) Running() bool { return g.running }

// Post schedules fn at time t on shard dst, ordered by the pure key
// (t, source shard, source sequence). infra marks protocol bookkeeping
// that should not count as a simulation step. Must be called from the
// calling shard's own execution context (or from host context between
// rounds). t may lie in the destination's past; it then executes
// retroactively at the next barrier.
func (e *Engine) Post(dst int, t Time, infra bool, fn func()) {
	e.post("Post", dst, event{t: t, fn: fn, class: untied, infra: infra})
}

// PostKeyed is Post with a model-level tie key (see AtInfraKeyed): the
// event is infra and executes, at equal time, after every unkeyed event
// and in key order among keyed ones — the same place AtInfraKeyed puts
// it when scheduled locally. Unlike plain infra posts the stamp must respect
// the group's lookahead (t at least now+lookahead), so keyed events are
// never ingested retroactively: every shard sees all same-time keyed
// events before executing any of them.
func (e *Engine) PostKeyed(dst int, t Time, key uint64, fn func()) {
	e.post("PostKeyed", dst, event{t: t, fn: fn, order: key, class: keyed, infra: true})
}

// PostTied is a counted Post whose order among the events ingested for
// the same time is the model-level tie rather than the sender's (shard,
// seq): tied events execute after untied ingested ones and in tie order
// among themselves, so same-time arrivals from different senders —
// packets converging on one card — merge in one order at every shard
// count. Like any unkeyed ingested event it runs after the
// destination's local events of that time and before keyed bookings.
func (e *Engine) PostTied(dst int, t Time, tie uint64, fn func()) {
	e.post("PostTied", dst, event{t: t, fn: fn, order: tie, class: tied})
}

// post appends ev, stamped with the sender's shard and next sequence
// number, to the outbox for shard dst.
func (e *Engine) post(op string, dst int, ev event) {
	g := e.group
	if g == nil {
		panic("sim: " + op + " on an engine outside a group")
	}
	src := e.shard
	ev.src, ev.seq = int32(src), g.postSeq[src]
	g.postSeq[src]++
	g.outbox[src][dst] = append(g.outbox[src][dst], ev)
}

// ingest drains every mailbox into the destination heaps. The heap order
// (t, class, order, src, seq) totally orders ingested events, so
// insertion order is irrelevant.
func (g *Group) ingest() {
	for src := range g.engines {
		for dst, msgs := range g.outbox[src] {
			for i := range msgs {
				g.engines[dst].push(&msgs[i])
			}
			g.outbox[src][dst] = msgs[:0]
		}
	}
}

// startWorkers spawns the persistent per-shard workers, once per group.
func (g *Group) startWorkers() {
	g.work = make([]chan Time, len(g.engines))
	g.done = make(chan struct{}, len(g.engines))
	for i := range g.engines {
		// Buffered so the coordinator never blocks handing out a round:
		// by the time a shard is re-activated its worker has already
		// signaled done and is parked on (or about to reach) the receive.
		g.work[i] = make(chan Time, 1)
		go g.worker(i)
	}
	g.workersUp = true
}

// worker drains shard i's heap up to each horizon received on its work
// channel, as the driver of the shard's loop. It exits when the channel
// closes at shutdown.
func (g *Group) worker(i int) {
	e := g.engines[i]
	for horizon := range g.work[i] {
		e.drive(horizon - 1)
		g.done <- struct{}{}
	}
}

// barrier is the step between two rounds, the one both execution paths
// take: the coordinator of a multi-shard group, and the loop of a
// one-shard group when its window runs dry. It reports the round just
// run to OnRound, ingests every mailbox, and opens the next round: floor
// becomes the earliest pending stamp, busyFlags marks the shards with
// events before the returned horizon, and the round is counted. ok is
// false once every heap and mailbox is empty.
func (g *Group) barrier() (horizon Time, ok bool) {
	if g.rounds > 0 && g.OnRound != nil {
		g.OnRound(g.floor, g.busyFlags)
	}
	g.ingest()
	floor, ok := g.minPending()
	if !ok {
		return 0, false
	}
	g.floor = floor
	horizon = floor.Add(g.lookahead)
	// Window statistics: the busy-shard count per round is the run's
	// parallel occupancy, the deterministic ceiling on multi-core
	// speedup (see Account.ShardRounds).
	g.rounds++
	for i, e := range g.engines {
		busy := len(e.heap) > 0 && e.heap[0].t < horizon
		g.busyFlags[i] = busy
		if busy {
			g.busyShardRounds++
		}
	}
	return horizon, true
}

// run executes the whole group until every heap and mailbox drains. A
// one-shard group runs its loop on the calling goroutine from a closed
// window, so its first barrier opens the first round; a multi-shard
// group hands each round's busy shards to their workers.
func (g *Group) run() {
	g.running, g.rounds, g.busyShardRounds = true, 0, 0
	// A panic out of the loop must not leave the group taking barrier
	// steps, or Shutdown's closed window would run events.
	defer func() { g.running, g.inline = false, false }()
	if len(g.engines) == 1 {
		g.inline = true
		g.engines[0].drive(closed)
	} else {
		if !g.workersUp {
			g.startWorkers()
		}
		for {
			horizon, ok := g.barrier()
			if !ok {
				break
			}
			active := 0
			for i, busy := range g.busyFlags {
				if busy {
					g.work[i] <- horizon
					active++
				}
			}
			for ; active > 0; active-- {
				<-g.done
			}
		}
		// Only a multi-shard group reports its windows: on one shard
		// every round is busy, so the count says nothing of occupancy.
		g.engines[0].account.addShardRounds(g.rounds, g.busyShardRounds)
	}
	// Align every shard's clock to the time of the globally last event.
	// Timestamps are exact across shard counts, so this is the same final
	// clock at every shard count — post-run reads (link utilization
	// denominators, trace stamps) see identical time.
	var maxNow Time
	for _, e := range g.engines {
		if e.now > maxNow {
			maxNow = e.now
		}
	}
	for _, e := range g.engines {
		e.now = maxNow
		e.flushAccount()
	}
}

// minPending returns the earliest pending timestamp across all shards.
func (g *Group) minPending() (Time, bool) {
	var min Time
	found := false
	for _, e := range g.engines {
		if len(e.heap) > 0 && (!found || e.heap[0].t < min) {
			min = e.heap[0].t
			found = true
		}
	}
	return min, found
}

// shutdown retires the persistent workers, tears down every shard's
// procs, and flushes accounting.
func (g *Group) shutdown() {
	if g.workersUp {
		for _, c := range g.work {
			close(c)
		}
		g.workersUp = false
	}
	for _, e := range g.engines {
		e.shutdownLocal()
	}
}
