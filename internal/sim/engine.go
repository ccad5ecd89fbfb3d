package sim

import (
	"fmt"
	"sort"
)

// Event is a scheduled callback. It can be canceled before it fires.
type Event struct {
	t        Time
	seq      uint64
	fn       func()
	idx      int // heap index, -1 when not queued
	canceled bool

	// Sharded execution (see Group). Events ingested from another
	// shard's mailbox carry ext=true plus the sender's (shard, seq) so
	// the merge order is a function of timestamps alone, never of worker
	// scheduling. infra marks bookkeeping events of the cross-shard
	// protocols themselves (mailbox ingestion, credit grants, barrier
	// rendezvous): they execute like any event but are excluded from the
	// step count, keeping nsteps comparable with the serial engine.
	ext    bool
	extSrc int
	extSeq uint64
	infra  bool

	// pooled events return to the engine's free list when they fire.
	// Only events whose pointer never escapes the sim package (mailbox
	// ingestions, AtInfra bookkeeping) are pooled: an *Event returned by
	// At/After may be held by the caller for Cancel, and recycling it
	// would alias a later, unrelated event. The free list is per-engine
	// and only touched by that engine's own execution, so reuse order is
	// deterministic — unlike sync.Pool, it cannot vary with scheduling.
	pooled bool

	// key, when non-zero, is a model-level total order for events that
	// must execute in the same relative order serially and sharded (link
	// calendar bookings). At equal time, keyed events run after all
	// unkeyed ones and among themselves in key order — regardless of
	// which shard posted them or in what sequence. See AtInfraKeyed.
	key uint64
	// tie, when non-zero, orders an ingested unkeyed event among the
	// ingested events of equal time by model state instead of by its
	// sender's (shard, seq): tied events run after untied ones and in tie
	// order among themselves. See PostTied.
	tie uint64

	// proc, when set, is the proc this event resumes in place of a
	// callback: the start, Sleep, Signal and Semaphore wakes. Such events
	// are pooled, so a wake allocates nothing.
	proc *Proc
}

// Time returns the time at which the event is scheduled to fire.
func (ev *Event) Time() Time { return ev.t }

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
// value and a proc's wrapped with the proc's name.
type Engine struct {
	now     Time
	workEnd Time // time of the last executed non-infra event
	heap    []heapEntry
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

	// free recycles fired pooled events (see Event.pooled). Bounded by
	// the event-queue high-water mark, it turns the per-message Event
	// allocation of mailbox ingestion into a pointer swap.
	free []*Event

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
// infrastructure bookkeeping (e.g. a telemetry sampler tick that rounds
// the clock up past the last real event).
func (e *Engine) WorkEnd() Time { return e.workEnd }

// PeakPending returns the largest number of simultaneously queued events
// seen so far — the event-queue high-water mark, a direct measure of how
// much simulation state a run keeps in flight.
func (e *Engine) PeakPending() int { return e.peak }

// At schedules fn to run at absolute time t. Scheduling in the past
// panics: that is always a model bug.
func (e *Engine) At(t Time, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event in the past (%v < now %v)", t, e.now))
	}
	ev := e.alloc()
	ev.t, ev.seq, ev.fn = t, e.seq, fn
	e.seq++
	e.push(ev)
	return ev
}

// AtInfra schedules fn at absolute time t as infrastructure bookkeeping:
// it executes like any event but is excluded from the step count (the
// serial-engine counterpart of an infra Post). The event cannot be
// canceled — no handle escapes, which is what lets it return to the
// free list when it fires.
func (e *Engine) AtInfra(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event in the past (%v < now %v)", t, e.now))
	}
	ev := e.alloc()
	ev.t, ev.seq, ev.fn, ev.infra, ev.pooled = t, e.seq, fn, true, true
	e.seq++
	e.push(ev)
}

// AtInfraKeyed is AtInfra with a model-level tie key: at equal time,
// keyed events execute after every unkeyed event and among themselves
// in ascending key order. The key must be a pure function of model
// state (e.g. packed (card rank, packet seq)), never of scheduling —
// that is what lets a serial heap and a sharded mailbox merge agree on
// the order of same-time calendar bookings. key must be non-zero.
func (e *Engine) AtInfraKeyed(t Time, key uint64, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event in the past (%v < now %v)", t, e.now))
	}
	ev := e.alloc()
	ev.t, ev.seq, ev.fn, ev.infra, ev.pooled, ev.key = t, e.seq, fn, true, true, key
	e.seq++
	e.push(ev)
}

// wakeAt schedules a counted event at t that resumes p.
func (e *Engine) wakeAt(t Time, p *Proc) {
	ev := e.alloc()
	ev.t, ev.seq, ev.proc, ev.pooled = t, e.seq, p, true
	e.seq++
	e.push(ev)
}

// alloc returns a zeroed Event, reusing the free list when possible.
func (e *Engine) alloc() *Event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free = e.free[:n-1]
		return ev
	}
	return &Event{}
}

// recycle returns a fired pooled event to the free list.
func (e *Engine) recycle(ev *Event) {
	*ev = Event{}
	e.free = append(e.free, ev)
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Duration, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.At(e.now.Add(d), fn)
}

// Cancel prevents a scheduled event from firing. Canceling an event that
// already fired (or was already canceled) is a no-op.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.canceled || ev.idx < 0 {
		if ev != nil {
			ev.canceled = true
		}
		return
	}
	ev.canceled = true
	e.remove(ev)
}

// Step executes the single next event and, when it resumes a proc, lets
// that proc run until it blocks. It returns false when the event queue
// is empty.
func (e *Engine) Step() bool {
	ev := e.pop()
	if ev == nil {
		return false
	}
	e.open(closed)
	if p := e.exec(ev); p != nil {
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
// that proc, or nil once the window has no event left.
func (e *Engine) next() *Proc {
	for len(e.heap) > 0 && e.heap[0].t <= e.until {
		if p := e.exec(e.pop()); p != nil {
			return p
		}
	}
	return nil
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

// exec executes the popped event ev and returns the live proc it
// resumes, if any.
func (e *Engine) exec(ev *Event) *Proc {
	e.now = ev.t
	if !ev.infra {
		e.nsteps++
		e.workEnd = ev.t
	}
	p, fn := ev.proc, ev.fn
	if ev.pooled {
		// Recycle before running fn: the callback may schedule again and
		// can reuse this very slot. fn never holds the event pointer.
		e.recycle(ev)
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

// Shard returns this engine's index within its Group (0 when serial).
func (e *Engine) Shard() int { return e.shard }

// PruneHorizon returns the latest time before which expired state (like
// calendar reservations that already ended) can safely be discarded. For
// a serial engine that is simply now: nothing books in the past. A
// sharded engine's clock may rewind when a late-lane message executes
// retroactively, and the retroactively resumed code may book calendar
// time below the shard's previous clock — but never below the group's
// round floor, so pruning is clamped there instead.
func (e *Engine) PruneHorizon() Time {
	if e.group != nil && e.group.floor < e.now {
		return e.group.floor
	}
	return e.now
}

// Group returns the Group this engine belongs to, or nil when serial.
func (e *Engine) Group() *Group { return e.group }

// heap operations: min-heap ordered by (t, seq); events ingested from
// another shard's mailbox sort after local events at the same time,
// ordered among themselves by tie (see PostTied), then by the sender's
// (shard, seq). The key is a
// pure function of timestamps and sequence numbers, so the merge order
// is independent of worker scheduling.

func eventLess(a, b *Event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	// Keyed events (calendar bookings) sort after every unkeyed event at
	// the same time and by pure key among themselves, so their order is
	// identical whether they sit in one serial heap or arrived as posts
	// from different shards.
	if (a.key != 0) != (b.key != 0) {
		return a.key == 0
	}
	if a.key != 0 {
		return a.key < b.key
	}
	if a.ext != b.ext {
		return !a.ext // local events before ingested ones at equal time
	}
	if !a.ext {
		return a.seq < b.seq
	}
	if a.tie != b.tie {
		return a.tie < b.tie
	}
	if a.extSrc != b.extSrc {
		return a.extSrc < b.extSrc
	}
	return a.extSeq < b.extSeq
}

// heapEntry is one heap slot: the event's time rides next to the pointer,
// so the comparisons of a sift resolve without loading the events unless
// their times tie.
type heapEntry struct {
	t  Time
	ev *Event
}

func entryLess(a, b heapEntry) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return eventLess(a.ev, b.ev)
}

func (e *Engine) push(ev *Event) {
	e.heap = append(e.heap, heapEntry{ev.t, ev})
	if len(e.heap) > e.peak {
		e.peak = len(e.heap)
	}
	e.up(len(e.heap) - 1)
}

func (e *Engine) peek() *Event {
	if len(e.heap) == 0 {
		return nil
	}
	return e.heap[0].ev
}

func (e *Engine) pop() *Event {
	if len(e.heap) == 0 {
		return nil
	}
	ev := e.heap[0].ev
	e.remove(ev)
	return ev
}

func (e *Engine) remove(ev *Event) {
	i := ev.idx
	last := len(e.heap) - 1
	if i != last {
		e.heap[i] = e.heap[last]
	}
	e.heap = e.heap[:last]
	ev.idx = -1
	if i < len(e.heap) && e.down(i) == i {
		e.up(i)
	}
}

// up and down sift the entry at i through a hole: parents or children
// move one slot each, and the entry is written once at its final slot.

func (e *Engine) up(i int) {
	x := e.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !entryLess(x, e.heap[parent]) {
			break
		}
		e.heap[i] = e.heap[parent]
		e.heap[i].ev.idx = i
		i = parent
	}
	e.heap[i] = x
	x.ev.idx = i
}

// down returns the entry's final slot.
func (e *Engine) down(i int) int {
	x := e.heap[i]
	n := len(e.heap)
	for {
		small := 2*i + 1
		if small >= n {
			break
		}
		if r := small + 1; r < n && entryLess(e.heap[r], e.heap[small]) {
			small = r
		}
		if !entryLess(e.heap[small], x) {
			break
		}
		e.heap[i] = e.heap[small]
		e.heap[i].ev.idx = i
		i = small
	}
	e.heap[i] = x
	x.ev.idx = i
	return i
}
