package sim

import "fmt"

// Signal is a condition-variable-like primitive. Procs Wait on it; a
// Broadcast wakes every current waiter (in FIFO order), a Pulse wakes only
// the first. As with condition variables, waiters re-check their predicate
// in a loop.
type Signal struct {
	eng     *Engine
	waiters fifo[*Proc]
}

// NewSignal returns a Signal bound to e.
func NewSignal(e *Engine) *Signal { return &Signal{eng: e} }

// Wait parks p until the next Broadcast/Pulse. reason is reported by
// Engine.Blocked.
func (s *Signal) Wait(p *Proc, reason string) { s.wait(p, waitReason{what: reason}) }

func (s *Signal) wait(p *Proc, why waitReason) {
	s.waiters.push(p)
	p.block(why)
}

// Broadcast wakes all current waiters in FIFO order. The wakes are
// delivered as zero-delay events, so they interleave deterministically
// with other same-time events.
func (s *Signal) Broadcast() {
	for s.waiters.len() > 0 {
		s.eng.wakeAt(s.eng.now, s.waiters.pop())
	}
}

// Pulse wakes only the first (oldest) waiter.
func (s *Signal) Pulse() {
	if s.waiters.len() > 0 {
		s.eng.wakeAt(s.eng.now, s.waiters.pop())
	}
}

// Waiting returns the number of procs currently waiting.
func (s *Signal) Waiting() int { return s.waiters.len() }

// Semaphore is a counting semaphore with strict FIFO granting: a large
// request at the head of the queue blocks later smaller ones, which keeps
// resource handoff deterministic and starvation-free (this matters when
// modeling DMA engines and firmware run queues).
type Semaphore struct {
	eng   *Engine
	avail int64
	queue fifo[semWait]
}

type semWait struct {
	p *Proc
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
	if n < 0 {
		panic("sim: negative acquire")
	}
	if s.queue.len() == 0 && s.avail >= n {
		s.avail -= n
		return
	}
	s.queue.push(semWait{p: p, n: n})
	p.block(waitReason{what: "sem.acquire", units: n, sem: true})
}

// TryAcquire takes n units without blocking; it reports whether it
// succeeded. It fails when waiters are queued, preserving FIFO fairness.
func (s *Semaphore) TryAcquire(n int64) bool {
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
	s.drain()
}

func (s *Semaphore) drain() {
	for s.queue.len() > 0 && s.queue.front().n <= s.avail {
		w := s.queue.pop()
		s.avail -= w.n
		s.eng.wakeAt(s.eng.now, w.p)
	}
}

// Queue is a bounded FIFO of items with blocking Put/Get, modeling
// hardware queues and mailboxes. A capacity of 0 means unbounded.
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
	for q.capacity > 0 && q.items.len() >= q.capacity {
		q.changed.wait(p, waitReason{what: q.name, op: "put"})
	}
	q.items.push(v)
	q.changed.Broadcast()
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
	for q.items.len() == 0 {
		q.changed.wait(p, waitReason{what: q.name, op: "get"})
	}
	v := q.items.pop()
	q.changed.Broadcast()
	return v
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
// 32 KB TX FIFO) with blocking producers/consumers and level thresholds
// for flow-control logic (almost-full / almost-empty watermarks).
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

// Put inserts n bytes, blocking until there is room for all of them.
func (f *ByteFIFO) Put(p *Proc, n int64) {
	if n > f.capacity {
		panic(fmt.Sprintf("sim: %s: put %d exceeds capacity %d", f.name, n, f.capacity))
	}
	for f.level+n > f.capacity {
		f.changed.wait(p, waitReason{what: f.name, op: "put"})
	}
	f.level += n
	f.changed.Broadcast()
}

// Get removes n bytes, blocking until they are present.
func (f *ByteFIFO) Get(p *Proc, n int64) {
	for f.level < n {
		f.changed.wait(p, waitReason{what: f.name, op: "get"})
	}
	f.level -= n
	f.changed.Broadcast()
}

// GetUpTo removes up to max bytes (at least 1), blocking while empty.
func (f *ByteFIFO) GetUpTo(p *Proc, max int64) int64 {
	for f.level == 0 {
		f.changed.wait(p, waitReason{what: f.name, op: "get"})
	}
	n := f.level
	if n > max {
		n = max
	}
	f.level -= n
	f.changed.Broadcast()
	return n
}

// WaitLevelBelow blocks until the fill level drops below mark.
func (f *ByteFIFO) WaitLevelBelow(p *Proc, mark int64) {
	for f.level >= mark {
		f.changed.wait(p, waitReason{what: f.name, op: "belowmark"})
	}
}

// Level returns the current fill level in bytes.
func (f *ByteFIFO) Level() int64 { return f.level }

// Free returns the remaining space in bytes.
func (f *ByteFIFO) Free() int64 { return f.capacity - f.level }

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
