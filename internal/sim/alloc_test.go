package sim

import "testing"

// Allocation pins for the event hot path. A 32^3 LQCD run executes on
// the order of 10^8 events; these tests pin the invariant that the
// steady state — scheduling, cross-shard posting, ingestion, execution —
// performs zero heap allocations per event once the heap array and
// outbox slabs have grown to the run's working set. Any change that
// reintroduces a per-event allocation fails here instead of showing up
// as GC time in a benchmark nobody reran.

// TestStepAllocFree pins the serial engine's self-sustaining loop for
// every way to schedule a callback: an event that reschedules itself
// with a reused closure is stored by value in the heap, so Step (pop,
// callback, push) allocates nothing.
func TestStepAllocFree(t *testing.T) {
	cases := []struct {
		name     string
		schedule func(eng *Engine, fn func())
	}{
		{"At", func(eng *Engine, fn func()) { eng.At(eng.Now().Add(Microsecond), fn) }},
		{"After", func(eng *Engine, fn func()) { eng.After(Microsecond, fn) }},
		{"AtInfraKeyed", func(eng *Engine, fn func()) { eng.AtInfraKeyed(eng.Now().Add(Microsecond), 1, fn) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			eng := New()
			var tick func()
			tick = func() { c.schedule(eng, tick) }
			c.schedule(eng, tick)
			for i := 0; i < 64; i++ { // warm the heap array
				eng.Step()
			}
			if allocs := testing.AllocsPerRun(256, func() { eng.Step() }); allocs != 0 {
				t.Errorf("Engine.Step with %s allocated %.1f objects per event, want 0", c.name, allocs)
			}
		})
	}
}

// TestPostAllocFree pins Engine.Post: once an outbox slab has grown to
// the round's message volume, posting is an append into reused capacity.
func TestPostAllocFree(t *testing.T) {
	eng := New()
	g := NewGroup(eng, 2, Microsecond)
	e0 := g.Engine(0)
	fn := func() {}
	const burst = 32
	for i := 0; i < burst; i++ { // grow the slab once
		e0.Post(1, Time(i), true, fn)
	}
	g.outbox[0][1] = g.outbox[0][1][:0]
	allocs := testing.AllocsPerRun(64, func() {
		for i := 0; i < burst; i++ {
			e0.Post(1, Time(i), true, fn)
		}
		g.outbox[0][1] = g.outbox[0][1][:0]
	})
	if allocs != 0 {
		t.Errorf("Engine.Post allocated %.1f objects per %d-message burst, want 0", allocs, burst)
	}
}

// TestGroupRoundAllocFree pins the full cross-shard cycle — Post into
// the outbox, barrier ingestion into the destination heap, Step on the
// destination — at zero allocations per message in steady state: the
// outbox slab is truncated in place and ingestion copies each event into
// the destination heap's array.
func TestGroupRoundAllocFree(t *testing.T) {
	eng := New()
	g := NewGroup(eng, 2, Microsecond)
	e0, e1 := g.Engine(0), g.Engine(1)
	fn := func() {}
	now := Time(0)
	cycle := func() {
		now = now.Add(Microsecond)
		e0.Post(1, now, true, fn)
		g.ingest()
		e1.Step()
	}
	for i := 0; i < 64; i++ { // warm slab and heap
		cycle()
	}
	if allocs := testing.AllocsPerRun(256, cycle); allocs != 0 {
		t.Errorf("post+ingest+step cycle allocated %.1f objects per message, want 0", allocs)
	}
}

// TestOneShardRoundAllocFree pins the inline barrier of a one-shard
// group: a run of rounds that each ingest one self-post and execute it
// allocates nothing once the outbox slab and heap have grown.
func TestOneShardRoundAllocFree(t *testing.T) {
	eng := New()
	NewGroup(eng, 1, Microsecond)
	left := 0
	var tick func()
	tick = func() {
		if left > 0 {
			left--
			eng.Post(0, eng.Now().Add(Microsecond), true, tick)
		}
	}
	run := func() {
		left = 16
		eng.Post(0, eng.Now(), true, tick)
		eng.Run()
	}
	for i := 0; i < 4; i++ { // warm slab and heap
		run()
	}
	if allocs := testing.AllocsPerRun(64, run); allocs != 0 {
		t.Errorf("a 17-round one-shard run allocated %.1f objects, want 0", allocs)
	}
}

// TestWakeAllocFree pins allocation-free wakes: once the heap array and
// waiter queues have grown, a RunUntil window in which a blocked proc is
// woken — by its Sleep event, a Signal Broadcast or Pulse, a Semaphore
// grant or a Queue Put — and blocks again allocates nothing. Nor does a
// window in which a callback bound once waits the same way and waits
// again. Wake events carry the proc or the callback instead of a new
// closure, waiter queues reuse their arrays, and blocking stores its
// reason without formatting it.
func TestWakeAllocFree(t *testing.T) {
	// ticker reschedules fn every microsecond as keyed infra bookkeeping,
	// which TestStepAllocFree already pins alloc-free.
	ticker := func(eng *Engine, fn func()) {
		var tick func()
		tick = func() {
			fn()
			eng.AtInfraKeyed(eng.Now().Add(Microsecond), 1, tick)
		}
		eng.AtInfraKeyed(eng.Now().Add(Microsecond), 1, tick)
	}
	cases := []struct {
		name  string
		setup func(eng *Engine)
	}{
		{"sleep", func(eng *Engine) {
			eng.Go("sleeper", func(p *Proc) {
				for {
					p.Sleep(Microsecond)
				}
			})
		}},
		{"broadcast", func(eng *Engine) {
			sig := NewSignal(eng)
			eng.Go("waiter", func(p *Proc) {
				for {
					sig.Wait(p, "tick")
				}
			})
			ticker(eng, sig.Broadcast)
		}},
		{"pulse", func(eng *Engine) {
			sig := NewSignal(eng)
			eng.Go("waiter", func(p *Proc) {
				for {
					sig.Wait(p, "tick")
				}
			})
			ticker(eng, sig.Pulse)
		}},
		{"semaphore", func(eng *Engine) {
			sem := NewSemaphore(eng, 0)
			eng.Go("acquirer", func(p *Proc) {
				for {
					sem.Acquire(p, 1)
				}
			})
			ticker(eng, func() { sem.Release(1) })
		}},
		{"queue", func(eng *Engine) {
			q := NewQueue[int](eng, "q", 1)
			eng.Go("consumer", func(p *Proc) {
				for {
					q.Get(p)
				}
			})
			eng.Go("producer", func(p *Proc) {
				for i := 0; ; i++ {
					p.Sleep(Microsecond)
					q.Put(p, i)
				}
			})
		}},
		{"broadcast-func", func(eng *Engine) {
			sig := NewSignal(eng)
			var wait func()
			wait = func() { sig.WaitFunc(wait) }
			wait()
			ticker(eng, sig.Broadcast)
		}},
		{"pulse-func", func(eng *Engine) {
			sig := NewSignal(eng)
			var wait func()
			wait = func() { sig.WaitFunc(wait) }
			wait()
			ticker(eng, sig.Pulse)
		}},
		{"semaphore-func", func(eng *Engine) {
			sem := NewSemaphore(eng, 0)
			var acquire func()
			acquire = func() {
				for sem.AcquireFunc(1, acquire) {
				}
			}
			acquire()
			ticker(eng, func() { sem.Release(1) })
		}},
		{"queue-func", func(eng *Engine) {
			q := NewQueue[int](eng, "q", 1)
			var get, put func()
			get = func() {
				for {
					if _, ok := q.GetFunc(get); !ok {
						return
					}
				}
			}
			put = func() {
				if q.PutFunc(0, put) {
					eng.After(Microsecond, put)
				}
			}
			get()
			eng.After(Microsecond, put)
		}},
		{"bytefifo-func", func(eng *Engine) {
			f := NewByteFIFO(eng, "fifo", 64)
			var get, put func()
			get = func() {
				for f.GetFunc(8, get) {
				}
			}
			put = func() {
				if f.PutFunc(8, put) {
					eng.After(Microsecond, put)
				}
			}
			get()
			eng.After(Microsecond, put)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			eng := New()
			defer eng.Shutdown()
			c.setup(eng)
			window := func() { eng.RunUntil(eng.Now().Add(Microsecond)) }
			for i := 0; i < 64; i++ { // warm the heap and queues
				window()
			}
			steps := eng.Steps()
			if allocs := testing.AllocsPerRun(256, window); allocs != 0 {
				t.Errorf("%s wake allocated %.1f objects per window, want 0", c.name, allocs)
			}
			if eng.Steps() == steps {
				t.Fatal("no proc woke during the measured windows")
			}
		})
	}
}
