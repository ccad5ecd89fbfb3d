package sim

import (
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

func TestSemaphoreTryAcquire(t *testing.T) {
	e := New()
	sem := NewSemaphore(e, 2)
	if !sem.TryAcquire(2) {
		t.Fatal("TryAcquire(2) failed with 2 available")
	}
	if sem.TryAcquire(1) {
		t.Fatal("TryAcquire(1) succeeded with 0 available")
	}
	sem.Release(1)
	if !sem.TryAcquire(1) {
		t.Fatal("TryAcquire(1) failed after release")
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

func TestByteFIFOBackpressure(t *testing.T) {
	e := New()
	f := NewByteFIFO(e, "tx", 32*1024)
	var levelPeak int64
	e.Go("producer", func(p *Proc) {
		for i := 0; i < 100; i++ {
			f.Put(p, 4096)
			if f.Level() > levelPeak {
				levelPeak = f.Level()
			}
		}
	})
	e.Go("consumer", func(p *Proc) {
		var drained int64
		for drained < 100*4096 {
			p.Sleep(Microsecond)
			drained += f.GetUpTo(p, 4096)
		}
	})
	e.Run()
	if levelPeak > 32*1024 {
		t.Fatalf("FIFO exceeded capacity: %d", levelPeak)
	}
	if f.Level() != 0 {
		t.Fatalf("FIFO not drained: %d", f.Level())
	}
}

func TestByteFIFOWaitLevelBelow(t *testing.T) {
	e := New()
	f := NewByteFIFO(e, "tx", 1000)
	var resumed Time
	e.Go("fc", func(p *Proc) {
		f.Put(p, 900)
		f.WaitLevelBelow(p, 512)
		resumed = p.Now()
	})
	e.Go("drain", func(p *Proc) {
		p.Sleep(5 * Microsecond)
		f.Get(p, 200) // level 700: still above mark
		p.Sleep(5 * Microsecond)
		f.Get(p, 400) // level 300: below mark
	})
	e.Run()
	if resumed != Time(10*Microsecond) {
		t.Fatalf("flow control resumed at %v, want 10us", resumed)
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
