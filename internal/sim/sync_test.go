package sim

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
)

func TestSemaphoreFIFO(t *testing.T) {
	e := New()
	sem := NewSemaphore(e, 0)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.Go("w", func(p *Proc) {
			p.Sleep(Duration(i) * Nanosecond) // stagger arrival
			sem.Acquire(p, 1)
			order = append(order, i)
		})
	}
	e.Go("releaser", func(p *Proc) {
		p.Sleep(Microsecond)
		for i := 0; i < 5; i++ {
			sem.Release(1)
			p.Sleep(Nanosecond)
		}
	})
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("not FIFO: %v", order)
		}
	}
}

func TestSemaphoreLargeRequestBlocksSmaller(t *testing.T) {
	e := New()
	sem := NewSemaphore(e, 3)
	var got []string
	e.Go("big", func(p *Proc) {
		sem.Acquire(p, 5)
		got = append(got, "big")
	})
	e.Go("small", func(p *Proc) {
		p.Sleep(Nanosecond)
		sem.Acquire(p, 1) // arrives later; must NOT jump the queue
		got = append(got, "small")
	})
	e.Go("rel", func(p *Proc) {
		p.Sleep(Microsecond)
		sem.Release(3)
	})
	e.Run()
	if len(got) != 2 || got[0] != "big" || got[1] != "small" {
		t.Fatalf("grant order = %v, want [big small]", got)
	}
}

func TestQueueBlockingAndCapacity(t *testing.T) {
	e := New()
	q := NewQueue[int](e, "q", 2)
	var got []int
	var putDone []Time
	e.Go("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			q.Put(p, i)
			putDone = append(putDone, p.Now())
		}
	})
	e.Go("consumer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(10 * Microsecond)
			got = append(got, q.Get(p))
		}
	})
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO violated: %v", got)
		}
	}
	// First two puts at t=0 (room in queue); later ones must have waited.
	if putDone[0] != 0 || putDone[1] != 0 {
		t.Fatalf("early puts blocked: %v", putDone)
	}
	if putDone[2] == 0 {
		t.Fatalf("third put did not block on full queue: %v", putDone)
	}
}

func TestQueueConservationProperty(t *testing.T) {
	f := func(vals []uint8, capRaw uint8) bool {
		e := New()
		capacity := int(capRaw%8) + 1
		q := NewQueue[uint8](e, "q", capacity)
		var got []uint8
		e.Go("p", func(p *Proc) {
			for _, v := range vals {
				q.Put(p, v)
			}
		})
		e.Go("c", func(p *Proc) {
			for range vals {
				got = append(got, q.Get(p))
			}
		})
		e.Run()
		if len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestByteFIFOBackpressure streams 100 4 KB puts through a 32 KB FIFO
// whose consumer takes one every microsecond: the producer stalls on a
// full FIFO and each stall ends at the get that makes room.
func TestByteFIFOBackpressure(t *testing.T) {
	e := New()
	f := NewByteFIFO(e, "tx", 32*1024)
	var levelPeak int64
	var put int
	var produce func()
	produce = func() {
		for put < 100 && f.PutFunc(4096, produce) {
			put++
			if f.Level() > levelPeak {
				levelPeak = f.Level()
			}
		}
	}
	var drained int64
	var consume func()
	consume = func() {
		if !f.GetFunc(4096, consume) {
			return
		}
		if drained += 4096; drained < 100*4096 {
			e.After(Microsecond, consume)
		}
	}
	e.At(0, produce)
	e.After(Microsecond, consume)
	e.Run()
	if levelPeak > 32*1024 {
		t.Fatalf("FIFO exceeded capacity: %d", levelPeak)
	}
	if levelPeak != 32*1024 || put != 100 || drained != 100*4096 {
		t.Fatalf("peak %d, %d puts, %d drained: want a full FIFO, 100 puts, %d drained", levelPeak, put, drained, 100*4096)
	}
	if f.Level() != 0 {
		t.Fatalf("FIFO not drained: %d", f.Level())
	}
	if want := Time(100 * Microsecond); e.Now() != want {
		t.Fatalf("last get at %v, want %v", e.Now(), want)
	}
}

// TestByteFIFOGetWaitsForData pins the consumer side: a get of more bytes
// than the FIFO holds waits, and resumes at the put that brings them.
func TestByteFIFOGetWaitsForData(t *testing.T) {
	e := New()
	f := NewByteFIFO(e, "tx", 1000)
	var got Time = -1
	var get func()
	get = func() {
		if f.GetFunc(600, get) {
			got = e.Now()
		}
	}
	e.At(0, get)
	e.At(Time(5*Microsecond), func() { f.PutFunc(400, nil) }) // 400: not enough
	e.At(Time(10*Microsecond), func() { f.PutFunc(200, nil) })
	e.Run()
	if got != Time(10*Microsecond) || f.Level() != 0 {
		t.Fatalf("get resumed at %v with %d bytes left, want 10us and 0", got, f.Level())
	}
}

func TestSignalPulseWakesOne(t *testing.T) {
	e := New()
	s := NewSignal(e)
	woken := 0
	for i := 0; i < 3; i++ {
		e.Go("w", func(p *Proc) {
			s.Wait(p, "test")
			woken++
		})
	}
	e.Go("pulser", func(p *Proc) {
		p.Sleep(Microsecond)
		s.Pulse()
	})
	e.Run()
	if woken != 1 {
		t.Fatalf("woken = %d, want 1", woken)
	}
	if s.Waiting() != 2 {
		t.Fatalf("waiting = %d, want 2", s.Waiting())
	}
	e.Shutdown()
}

// TestMixedWaitersWakeInArrivalOrder queues procs and callbacks,
// alternately, on one Signal, one Semaphore and one Queue: every
// primitive wakes them in arrival order, each wake at the time of the
// Broadcast, Release or Put that grants it. A callback's wake is an event
// in the slot a proc's wake takes, never a call made inline.
func TestMixedWaitersWakeInArrivalOrder(t *testing.T) {
	const n = 6
	type woke struct {
		id int
		at Time
	}
	check := func(t *testing.T, got []woke, at func(i int) Time) {
		t.Helper()
		if len(got) != n {
			t.Fatalf("%d wakes, want %d: %v", len(got), n, got)
		}
		for i, w := range got {
			if w.id != i || w.at != at(i) {
				t.Fatalf("wake %d = waiter %d at %v, want waiter %d at %v (all: %v)", i, w.id, w.at, i, at(i), got)
			}
		}
	}
	// arrive queues waiter i at i ns: even ones as procs, odd ones as
	// callbacks.
	arrive := func(e *Engine, i int, proc func(p *Proc), callback func()) {
		if i%2 == 0 {
			e.Go("w", func(p *Proc) {
				p.Sleep(Duration(i) * Nanosecond)
				proc(p)
			})
			return
		}
		e.At(Time(Duration(i)*Nanosecond), callback)
	}
	t.Run("signal", func(t *testing.T) {
		e := New()
		s := NewSignal(e)
		var got []woke
		for i := 0; i < n; i++ {
			i := i
			arrive(e, i, func(p *Proc) {
				s.Wait(p, "test")
				got = append(got, woke{i, p.Now()})
			}, func() {
				s.WaitFunc(func() { got = append(got, woke{i, e.Now()}) })
			})
		}
		e.At(Time(Microsecond), s.Broadcast)
		e.Run()
		check(t, got, func(int) Time { return Time(Microsecond) })
	})
	t.Run("semaphore", func(t *testing.T) {
		e := New()
		sem := NewSemaphore(e, 0)
		var got []woke
		for i := 0; i < n; i++ {
			i := i
			arrive(e, i, func(p *Proc) {
				sem.Acquire(p, 1)
				got = append(got, woke{i, p.Now()})
			}, func() {
				if sem.AcquireFunc(1, func() { got = append(got, woke{i, e.Now()}) }) {
					t.Error("acquired a unit of an empty semaphore")
				}
			})
		}
		// One unit per microsecond from 1 us on, then two at once at
		// 10 us: waiter i is granted at the release that reaches it.
		release := func(i int) Time { return Time(Duration(i+1) * Microsecond) }
		for i := 0; i < n-2; i++ {
			e.At(release(i), func() { sem.Release(1) })
		}
		e.At(Time(10*Microsecond), func() { sem.Release(2) })
		e.Run()
		check(t, got, func(i int) Time {
			if i >= n-2 {
				return Time(10 * Microsecond)
			}
			return release(i)
		})
	})
	t.Run("queue", func(t *testing.T) {
		e := New()
		q := NewQueue[int](e, "q", 0)
		var got []woke
		for i := 0; i < n; i++ {
			i := i
			arrive(e, i, func(p *Proc) {
				q.Get(p)
				got = append(got, woke{i, p.Now()})
			}, func() {
				// A waiter is woken at most once per Put before its
				// turn; the cap stops a callback that is rewoken inline
				// from looping forever.
				tries := 0
				var get func()
				get = func() {
					if tries++; tries > 2*n {
						t.Errorf("waiter %d woken %d times", i, tries)
						return
					}
					if _, ok := q.GetFunc(get); ok {
						got = append(got, woke{i, e.Now()})
					}
				}
				get()
			})
		}
		// One item per microsecond: each Put wakes every waiter, the
		// oldest takes the item and the rest wait again, in order.
		for i := 0; i < n; i++ {
			e.At(Time(Duration(i+1)*Microsecond), func() { q.TryPut(0) })
		}
		e.Run()
		check(t, got, func(i int) Time { return Time(Duration(i+1) * Microsecond) })
	})
}

// waitWorld is a small model of a card engine: a producer proc feeds a
// two-slot Queue; two consumers take items, hold a one-unit Semaphore
// (the Nios II) for a microsecond each and Broadcast a Signal; a watcher
// counts the broadcasts. With callbacks set, the consumers and the
// watcher are state machines instead of procs. It logs every step with
// its time.
func waitWorld(callbacks bool) (log []string, steps uint64, end Time) {
	e := New()
	defer e.Shutdown()
	q := NewQueue[int](e, "q", 2)
	core := NewSemaphore(e, 1)
	done := NewSignal(e)
	note := func(who, what string, item int) {
		log = append(log, fmt.Sprintf("%v %s %s %d", e.Now(), who, what, item))
	}
	const items = 20
	e.Go("producer", func(p *Proc) {
		for i := 0; i < items; i++ {
			q.Put(p, i)
			note("producer", "put", i)
			p.Sleep(300 * Nanosecond)
		}
	})
	for _, name := range []string{"a", "b"} {
		name := name
		if !callbacks {
			e.Go(name, func(p *Proc) {
				for {
					item := q.Get(p)
					note(name, "got", item)
					core.Acquire(p, 1)
					note(name, "acquired", item)
					p.Sleep(Microsecond)
					core.Release(1)
					note(name, "released", item)
					done.Broadcast()
				}
			})
			continue
		}
		var state, item int
		var step func()
		step = func() {
			for {
				switch state {
				case 0:
					v, ok := q.GetFunc(step)
					if !ok {
						return
					}
					item, state = v, 1
					note(name, "got", item)
					if !core.AcquireFunc(1, step) {
						return
					}
				case 1:
					note(name, "acquired", item)
					state = 2
					e.After(Microsecond, step)
					return
				case 2:
					core.Release(1)
					note(name, "released", item)
					done.Broadcast()
					state = 0
				}
			}
		}
		e.At(0, step)
	}
	wakes := 0
	if !callbacks {
		e.Go("watcher", func(p *Proc) {
			for {
				done.Wait(p, "done")
				wakes++
				note("watcher", "woke", wakes)
			}
		})
	} else {
		var watch func()
		watch = func() {
			wakes++
			note("watcher", "woke", wakes)
			done.WaitFunc(watch)
		}
		e.At(0, func() { done.WaitFunc(watch) })
	}
	e.Run()
	return log, e.Steps(), e.Now()
}

// TestCallbackWaitersMatchProcs runs waitWorld with proc and with
// callback waiters: the same steps at the same times, and the same number
// of executed events.
func TestCallbackWaitersMatchProcs(t *testing.T) {
	procLog, procSteps, procEnd := waitWorld(false)
	cbLog, cbSteps, cbEnd := waitWorld(true)
	if !reflect.DeepEqual(procLog, cbLog) {
		for i := range procLog {
			if i >= len(cbLog) || procLog[i] != cbLog[i] {
				t.Fatalf("step %d: procs %q, callbacks %q", i, procLog[i], cbLog[min(i, len(cbLog)-1)])
			}
		}
		t.Fatalf("callback world logs %d steps, proc world %d", len(cbLog), len(procLog))
	}
	if procSteps != cbSteps || procEnd != cbEnd {
		t.Fatalf("callback world: %d events ending at %v; proc world: %d ending at %v",
			cbSteps, cbEnd, procSteps, procEnd)
	}
	if len(procLog) < 80 {
		t.Fatalf("only %d logged steps: the world did not run", len(procLog))
	}
}
