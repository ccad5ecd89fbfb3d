package sim

import (
	"fmt"
	"sort"
)

// event is one scheduled callback, held by value in the engine's heap.
type event struct {
	t  Time
	fn func()
	// proc, when set, is the proc this event resumes in place of a
	// callback: the start, Sleep, Signal and Semaphore wakes.
	proc *Proc
	// seq is the engine's sequence number for a local event and the
	// sender's Post sequence number for an ingested one; src is the
	// sender's shard (0 for local events).
	seq uint64
	// order is the tie of a tied event or the key of a keyed one (see
	// PostTied and AtInfraKeyed), 0 otherwise.
	order uint64
	src   int32
	class uint8
	// infra marks bookkeeping events (mailbox ingestion, credit grants,
	// barrier rendezvous, hop bookings): they execute like any event but
	// are excluded from the step count, keeping nsteps comparable between
	// serial and sharded runs.
	infra bool
}

// Event classes, in the order equal-time events run: the engine's own
// events, then events ingested from other shards' mailboxes, untied
// (Post) before tied (PostTied), and last the keyed bookings
// (AtInfraKeyed, PostKeyed).
const (
	local uint8 = iota
	untied
	tied
	keyed
)

// eventLess orders the heap by the tuple (t, class, order, src, seq).
// Every field is a pure function of timestamps, model keys and sequence
// numbers, so the merge order of a sharded run never depends on worker
// scheduling, and keyed events (calendar bookings) run in the same order
// whether they sit in one serial heap or arrived from different shards.
func eventLess(a, b *event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.class != b.class {
		return a.class < b.class
	}
	if a.order != b.order {
		return a.order < b.order
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.seq < b.seq
}

// Engine is a deterministic discrete-event scheduler.
//
// Engines are not safe for concurrent use; a whole simulation (engine,
// procs, model components) forms one single-threaded unit. Multiple
// independent engines may run in parallel (e.g. parallel tests or
// parameter sweeps).
//
// The event loop runs on whichever goroutine holds the right to run it.
// Run, RunUntil, Step and a Group worker's window start it on their own
// goroutine, the driver. An event that resumes a proc hands the loop to
// that proc, and the proc keeps it: when it blocks again it executes the
// following events itself, continues with no goroutine switch when the
// next resumed proc is itself, and otherwise hands the loop straight to
// the resumed proc with one channel send. The loop returns to the driver
// only when the window closes, a proc exits, or something panics; the
// driver then re-raises the panic, an event callback's with its original
// value and a proc's wrapped with the proc's name. A running one-shard
// group's loop crosses the round barriers itself (see Group).
type Engine struct {
	now     Time
	workEnd Time // time of the last executed non-infra event
	heap    []event
	seq     uint64
	nsteps  uint64
	peak    int // high-water mark of the event queue
	procs   map[*Proc]struct{}
	account *Account
	flushed uint64 // steps already reported to the account

	// Sharded execution: non-nil when this engine is one shard of a
	// Group. shard is its index within the group.
	group *Group
	shard int

	// The current window: events stamped at or before until run in it.
	until Time
	// inCallback is set while an event callback runs; woken is the proc
	// the callback resumes with Wake, once it returns.
	inCallback bool
	woken      *Proc
	// back returns the loop to the driver; panicVal is the panic, if any,
	// the driver must re-raise when it gets the loop back.
	back     chan struct{}
	panicVal any
}

// Window bounds: no event is stamped at or before closed, and every
// event is stamped at or before forever.
const (
	closed  Time = -1
	forever Time = 1<<63 - 1
)

// New returns a new Engine at time zero.
func New() *Engine {
	return NewWithAccount(nil)
}

// NewWithAccount returns a new Engine whose executed-step count is
// aggregated into the Account (nil is fine and equivalent to New).
// Steps are flushed to the account when Run returns and at Shutdown.
func NewWithAccount(a *Account) *Engine {
	a.addEngine()
	return newEngine(a)
}

func newEngine(a *Account) *Engine {
	return &Engine{procs: make(map[*Proc]struct{}), account: a, back: make(chan struct{})}
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Steps returns the number of events executed so far.
func (e *Engine) Steps() uint64 { return e.nsteps }

// WorkEnd returns the time of the last executed non-infra event — the
// simulation's natural end. Unlike Now, it is unaffected by trailing
// infrastructure bookkeeping that runs after the last real event.
func (e *Engine) WorkEnd() Time { return e.workEnd }

// PeakPending returns the largest number of simultaneously queued events
// seen so far — the event-queue high-water mark, a direct measure of how
// much simulation state a run keeps in flight.
func (e *Engine) PeakPending() int { return e.peak }

// At schedules fn to run at absolute time t. Scheduling in the past
// panics: that is always a model bug.
func (e *Engine) At(t Time, fn func()) {
	e.schedule(&event{t: t, fn: fn})
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Duration, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.At(e.now.Add(d), fn)
}

// AtInfraKeyed schedules fn at absolute time t as infrastructure
// bookkeeping with a model-level tie key: it executes like any event but
// is excluded from the step count, and at equal time keyed events
// execute after every unkeyed event and among themselves in ascending
// key order. The key must be a pure function of model state (e.g.
// packed (card rank, packet seq)), never of scheduling — that is what
// lets a local schedule and a cross-shard PostKeyed agree on the order
// of same-time calendar bookings.
func (e *Engine) AtInfraKeyed(t Time, key uint64, fn func()) {
	e.schedule(&event{t: t, fn: fn, order: key, class: keyed, infra: true})
}

// wakeAt schedules a counted event at t that resumes p.
func (e *Engine) wakeAt(t Time, p *Proc) {
	e.schedule(&event{t: t, proc: p})
}

// schedule stamps a local event with the engine's next sequence number
// and queues it. Scheduling in the past panics.
func (e *Engine) schedule(ev *event) {
	if ev.t < e.now {
		panic(fmt.Sprintf("sim: scheduling event in the past (%v < now %v)", ev.t, e.now))
	}
	ev.seq = e.seq
	e.seq++
	e.push(ev)
}

// Step executes the single next event and, when it resumes a proc, lets
// that proc run until it blocks. It returns false when the event queue
// is empty.
func (e *Engine) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	e.open(closed)
	if p := e.exec(); p != nil {
		e.handOff(p)
	}
	return true
}

// Run executes events until the queue is empty. On a sharded engine
// (one built into a Group) Run drives the whole group: every shard's
// events, in windowed rounds, until all heaps and mailboxes drain.
func (e *Engine) Run() {
	if e.group != nil {
		e.group.run()
		return
	}
	e.drive(forever)
	e.flushAccount()
}

// open starts a window on the driver. It also clears callback state a
// panic may have left behind.
func (e *Engine) open(until Time) {
	e.until, e.inCallback, e.woken = until, false, nil
}

// drive runs the loop on the driver until every event stamped at or
// before until has executed and every proc they resumed has blocked.
func (e *Engine) drive(until Time) {
	e.open(until)
	for p := e.next(); p != nil; p = e.next() {
		e.handOff(p)
	}
}

// handOff gives the loop to p and waits until it comes back, re-raising
// the panic it may bring.
func (e *Engine) handOff(p *Proc) {
	p.resume()
	<-e.back
	if v := e.panicVal; v != nil {
		e.panicVal = nil
		panic(v)
	}
}

// next executes the window's events until one resumes a proc and returns
// that proc, or nil once the window has no event left — where a running
// one-shard group instead takes the barrier step and runs the next window.
func (e *Engine) next() *Proc {
	for {
		for len(e.heap) > 0 && e.heap[0].t <= e.until {
			if p := e.exec(); p != nil {
				return p
			}
		}
		g := e.group
		if g == nil || !g.inline {
			return nil
		}
		horizon, ok := g.barrier()
		if !ok {
			g.inline = false
			return nil
		}
		e.until = horizon - 1
	}
}

// loop is next run by a blocked proc. A panic raised by an event
// callback is caught and left in panicVal with its original value, and
// loop returns nil: the proc then hands the loop to the driver, which
// re-raises it.
func (e *Engine) loop() *Proc {
	defer func() {
		if r := recover(); r != nil {
			e.inCallback, e.woken, e.panicVal = false, nil, r
		}
	}()
	return e.next()
}

// exec pops and executes the earliest event and returns the live proc
// it resumes, if any.
func (e *Engine) exec() *Proc {
	ev := &e.heap[0]
	t, fn, p, infra := ev.t, ev.fn, ev.proc, ev.infra
	e.pop()
	e.now = t
	if !infra {
		e.nsteps++
		e.workEnd = t
	}
	if p == nil {
		e.inCallback = true
		fn()
		e.inCallback = false
		p, e.woken = e.woken, nil
	}
	if p == nil || p.dead {
		return nil
	}
	return p
}

// flushAccount reports steps executed since the last flush and the
// event-queue high-water mark.
func (e *Engine) flushAccount() {
	if e.nsteps > e.flushed {
		e.account.addSteps(e.nsteps - e.flushed)
		e.flushed = e.nsteps
	}
	e.account.notePeakPending(uint64(e.peak))
}

// RunUntil executes events with timestamps <= t, then sets the clock to
// t. Executed steps are flushed to the Account just as Run does, so
// RunUntil-driven simulations report steps as they happen rather than
// only at Shutdown.
func (e *Engine) RunUntil(t Time) {
	if e.group != nil {
		panic("sim: RunUntil is not supported on a sharded engine; use Run")
	}
	e.drive(t)
	if t > e.now {
		e.now = t
	}
	e.flushAccount()
}

// RunFor advances the simulation by d.
func (e *Engine) RunFor(d Duration) { e.RunUntil(e.now.Add(d)) }

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return len(e.heap) }

// Blocked returns a sorted description of every live proc that is parked,
// with the reason it blocked. After Run() returns, entries here are either
// server loops legitimately waiting for input, or deadlocked procs —
// useful in tests and when debugging models.
func (e *Engine) Blocked() []string {
	var out []string
	for p := range e.procs {
		if why := p.why.String(); why != "" {
			out = append(out, p.name+": "+why)
		}
	}
	sort.Strings(out)
	return out
}

// Shutdown kills all live procs so their goroutines exit. Call it when a
// simulation is finished if the engine hosted server-style procs that
// never terminate on their own. On a sharded engine Shutdown tears down
// the whole group.
func (e *Engine) Shutdown() {
	if e.group != nil {
		e.group.shutdown()
		return
	}
	e.shutdownLocal()
}

// shutdownLocal kills this engine's procs and flushes its account.
func (e *Engine) shutdownLocal() {
	// A closed window: a killed proc that blocks in deferred cleanup
	// runs no events and hands the loop straight back.
	e.open(closed)
	for len(e.procs) > 0 {
		var p *Proc
		// Pick any proc; kill order does not matter for determinism
		// because killed procs run no model code.
		for q := range e.procs {
			p = q
			break
		}
		p.killed = true
		if !p.launched {
			// The start event has not fired: there is no goroutine.
			p.dead = true
			delete(e.procs, p)
			continue
		}
		e.handOff(p)
	}
	e.flushAccount()
}

// Shard returns this engine's index within its Group (0 outside one).
func (e *Engine) Shard() int { return e.shard }

// PruneHorizon returns the latest time before which expired state (like
// calendar reservations that already ended) can safely be discarded. For
// an engine outside a group that is simply now: nothing books in the
// past. In a group of any shard count, one included, an engine's clock
// may rewind when a late-lane message executes retroactively, and the
// retroactively resumed code may book calendar time below the shard's
// previous clock — but never below the group's round floor, so pruning
// is clamped there instead.
func (e *Engine) PruneHorizon() Time {
	if e.group != nil && e.group.floor < e.now {
		return e.group.floor
	}
	return e.now
}

// Group returns the Group this engine belongs to, or nil.
func (e *Engine) Group() *Group { return e.group }

// The heap is a binary min-heap of event values under eventLess. push
// and pop sift a hole: parents or children move one slot each, and the
// placed event is written once at its final slot.

func (e *Engine) push(ev *event) {
	h := append(e.heap, event{})
	e.heap = h
	if len(h) > e.peak {
		e.peak = len(h)
	}
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(ev, &h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = *ev
}

// pop removes the earliest event; the heap must not be empty.
func (e *Engine) pop() {
	h := e.heap
	n := len(h) - 1
	x := h[n]
	h[n] = event{} // drop the fired callback's references
	h = h[:n]
	e.heap = h
	if n == 0 {
		return
	}
	i := 0
	for {
		small := 2*i + 1
		if small >= n {
			break
		}
		if r := small + 1; r < n && eventLess(&h[r], &h[small]) {
			small = r
		}
		if !eventLess(&h[small], &x) {
			break
		}
		h[i] = h[small]
		i = small
	}
	h[i] = x
}
