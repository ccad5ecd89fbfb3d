package sim

import "fmt"

// Signal is a condition-variable-like primitive. Procs Wait on it and
// callbacks WaitFunc on it, in one FIFO; a Broadcast wakes every current
// waiter (in FIFO order), a Pulse wakes only the first. As with condition
// variables, waiters re-check their predicate in a loop.
type Signal struct {
	eng     *Engine
	waiters fifo[waiter]
}

// waiter is one entry of a wait FIFO: a blocked proc, or the callback a
// waiting state machine resumes through.
type waiter struct {
	p  *Proc
	fn func()
}

// wake schedules w at the current time: a proc wake or a callback event,
// either way one counted event taking the engine's next sequence number.
func (e *Engine) wake(w waiter) {
	e.schedule(&event{t: e.now, proc: w.p, fn: w.fn})
}

// NewSignal returns a Signal bound to e.
func NewSignal(e *Engine) *Signal { return &Signal{eng: e} }

// Wait parks p until the next Broadcast/Pulse. reason is reported by
// Engine.Blocked.
func (s *Signal) Wait(p *Proc, reason string) { s.wait(p, waitReason{what: reason}) }

func (s *Signal) wait(p *Proc, why waitReason) {
	s.waiters.push(waiter{p: p})
	p.block(why)
}

// WaitFunc is the callback form of Wait: fn joins the same FIFO as
// blocked procs, and the Broadcast or Pulse that reaches it schedules fn
// at that time, where it would have scheduled a proc's wake. fn runs
// once; a callback that still finds its predicate false waits again.
func (s *Signal) WaitFunc(fn func()) {
	s.waiters.push(waiter{fn: fn})
}

// Broadcast wakes all current waiters in FIFO order. The wakes are
// delivered as zero-delay events, so they interleave deterministically
// with other same-time events.
func (s *Signal) Broadcast() {
	for s.waiters.len() > 0 {
		s.eng.wake(s.waiters.pop())
	}
}

// Pulse wakes only the first (oldest) waiter.
func (s *Signal) Pulse() {
	if s.waiters.len() > 0 {
		s.eng.wake(s.waiters.pop())
	}
}

// Waiting returns the number of procs and callbacks currently waiting.
func (s *Signal) Waiting() int { return s.waiters.len() }

// Semaphore is a counting semaphore with strict FIFO granting: a large
// request at the head of the queue blocks later smaller ones, which keeps
// resource handoff deterministic and starvation-free (this matters when
// modeling DMA engines and firmware run queues). Blocked procs and
// waiting callbacks share the one queue.
type Semaphore struct {
	eng   *Engine
	avail int64
	queue fifo[semWait]
}

type semWait struct {
	w waiter
	n int64
}

// NewSemaphore returns a semaphore with n initial units.
func NewSemaphore(e *Engine, n int64) *Semaphore {
	if n < 0 {
		panic("sim: negative semaphore count")
	}
	return &Semaphore{eng: e, avail: n}
}

// Acquire takes n units, blocking p until they are available and it is
// p's turn (FIFO).
func (s *Semaphore) Acquire(p *Proc, n int64) {
	if s.take(n) {
		return
	}
	s.queue.push(semWait{w: waiter{p: p}, n: n})
	p.block(waitReason{what: "sem.acquire", units: n, sem: true})
}

// AcquireFunc is the callback form of Acquire. It takes n units and
// reports true when they are free and nobody is queued, so the caller
// continues at once. Otherwise it queues fn behind the waiting procs and
// callbacks and reports false; the grant schedules fn, already holding
// the units, where it would have scheduled a proc's wake.
func (s *Semaphore) AcquireFunc(n int64, fn func()) bool {
	if s.take(n) {
		return true
	}
	s.queue.push(semWait{w: waiter{fn: fn}, n: n})
	return false
}

// take takes n units when they are free and nobody is queued.
func (s *Semaphore) take(n int64) bool {
	if n < 0 {
		panic("sim: negative acquire")
	}
	if s.queue.len() == 0 && s.avail >= n {
		s.avail -= n
		return true
	}
	return false
}

// Release returns n units and grants queued waiters in FIFO order.
func (s *Semaphore) Release(n int64) {
	if n < 0 {
		panic("sim: negative release")
	}
	s.avail += n
	for s.queue.len() > 0 && s.queue.front().n <= s.avail {
		w := s.queue.pop()
		s.avail -= w.n
		s.eng.wake(w.w)
	}
}

// Queue is a bounded FIFO of items with blocking Put/Get, modeling
// hardware queues and mailboxes. A capacity of 0 means unbounded. Procs
// block in Put and Get; state machines use PutFunc and GetFunc, which
// wait through the same signal.
type Queue[T any] struct {
	eng      *Engine
	name     string
	capacity int
	items    fifo[T]
	changed  *Signal
}

// NewQueue returns a queue with the given capacity (0 = unbounded).
func NewQueue[T any](e *Engine, name string, capacity int) *Queue[T] {
	return &Queue[T]{eng: e, name: name, capacity: capacity, changed: NewSignal(e)}
}

// Put appends v, blocking while the queue is full.
func (q *Queue[T]) Put(p *Proc, v T) {
	for !q.TryPut(v) {
		q.changed.wait(p, waitReason{what: q.name, op: "put"})
	}
}

// PutFunc is the callback form of Put: it appends v and reports true when
// there is room; otherwise fn waits for the queue's next change and
// PutFunc reports false. fn runs once and retries.
func (q *Queue[T]) PutFunc(v T, fn func()) bool {
	if q.TryPut(v) {
		return true
	}
	q.changed.WaitFunc(fn)
	return false
}

// TryPut appends v if there is room, reporting success.
func (q *Queue[T]) TryPut(v T) bool {
	if q.capacity > 0 && q.items.len() >= q.capacity {
		return false
	}
	q.items.push(v)
	q.changed.Broadcast()
	return true
}

// Get removes and returns the head item, blocking while the queue is empty.
func (q *Queue[T]) Get(p *Proc) T {
	for {
		if v, ok := q.TryGet(); ok {
			return v
		}
		q.changed.wait(p, waitReason{what: q.name, op: "get"})
	}
}

// GetFunc is the callback form of Get: it removes and returns the head
// item when there is one; otherwise fn waits for the queue's next change
// and GetFunc reports false. fn runs once and retries.
func (q *Queue[T]) GetFunc(fn func()) (T, bool) {
	v, ok := q.TryGet()
	if !ok {
		q.changed.WaitFunc(fn)
	}
	return v, ok
}

// TryGet removes and returns the head item if any.
func (q *Queue[T]) TryGet() (T, bool) {
	var zero T
	if q.items.len() == 0 {
		return zero, false
	}
	v := q.items.pop()
	q.changed.Broadcast()
	return v, true
}

// Len returns the current number of queued items.
func (q *Queue[T]) Len() int { return q.items.len() }

// ByteFIFO models a byte-granularity hardware FIFO (like the APEnet+
// 32 KB TX FIFO) between two state machines: a producer that stalls while
// its bytes do not fit and a consumer that stalls until they are there.
type ByteFIFO struct {
	eng      *Engine
	name     string
	capacity int64
	level    int64
	changed  *Signal
}

// NewByteFIFO returns a FIFO holding up to capacity bytes.
func NewByteFIFO(e *Engine, name string, capacity int64) *ByteFIFO {
	if capacity <= 0 {
		panic("sim: ByteFIFO capacity must be positive")
	}
	return &ByteFIFO{eng: e, name: name, capacity: capacity, changed: NewSignal(e)}
}

// PutFunc inserts n bytes and reports true when there is room for all of
// them; otherwise fn waits for the FIFO's next change and PutFunc reports
// false. fn runs once and retries.
func (f *ByteFIFO) PutFunc(n int64, fn func()) bool {
	if n > f.capacity {
		panic(fmt.Sprintf("sim: %s: put %d exceeds capacity %d", f.name, n, f.capacity))
	}
	if f.level+n > f.capacity {
		f.changed.WaitFunc(fn)
		return false
	}
	f.level += n
	f.changed.Broadcast()
	return true
}

// GetFunc removes n bytes and reports true when they are present;
// otherwise fn waits for the FIFO's next change and GetFunc reports
// false. fn runs once and retries.
func (f *ByteFIFO) GetFunc(n int64, fn func()) bool {
	if f.level < n {
		f.changed.WaitFunc(fn)
		return false
	}
	f.level -= n
	f.changed.Broadcast()
	return true
}

// Level returns the current fill level in bytes.
func (f *ByteFIFO) Level() int64 { return f.level }

// fifo is a slice-backed FIFO that keeps its backing array: pop advances
// a head index and rewinds to the start once the FIFO empties, and push
// shifts the live items down rather than grow an array that is at least
// half consumed. A FIFO that drains and refills in steady state
// therefore never allocates.
type fifo[T any] struct {
	buf  []T
	head int
}

func (f *fifo[T]) len() int { return len(f.buf) - f.head }

// front returns the oldest item; the FIFO must not be empty.
func (f *fifo[T]) front() T { return f.buf[f.head] }

func (f *fifo[T]) push(v T) {
	if len(f.buf) == cap(f.buf) && 2*f.head >= len(f.buf) && f.head > 0 {
		n := copy(f.buf, f.buf[f.head:])
		clear(f.buf[n:])
		f.buf, f.head = f.buf[:n], 0
	}
	f.buf = append(f.buf, v)
}

// pop removes and returns the oldest item; the FIFO must not be empty.
func (f *fifo[T]) pop() T {
	v := f.buf[f.head]
	var zero T
	f.buf[f.head] = zero
	f.head++
	if f.head == len(f.buf) {
		f.buf, f.head = f.buf[:0], 0
	}
	return v
}
