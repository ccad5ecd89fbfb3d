package sim

import (
	"reflect"
	"strings"
	"testing"
)

func TestProcSleep(t *testing.T) {
	e := New()
	var wakes []Time
	e.Go("sleeper", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(10 * Microsecond)
			wakes = append(wakes, p.Now())
		}
	})
	e.Run()
	want := []Time{Time(10 * Microsecond), Time(20 * Microsecond), Time(30 * Microsecond)}
	if len(wakes) != 3 {
		t.Fatalf("wakes = %v", wakes)
	}
	for i := range want {
		if wakes[i] != want[i] {
			t.Fatalf("wake %d = %v, want %v", i, wakes[i], want[i])
		}
	}
	if len(e.procs) != 0 {
		t.Fatal("proc not reaped after completion")
	}
}

func TestProcInterleaving(t *testing.T) {
	e := New()
	var order []string
	e.Go("a", func(p *Proc) {
		order = append(order, "a0")
		p.Sleep(2 * Nanosecond)
		order = append(order, "a2")
	})
	e.Go("b", func(p *Proc) {
		order = append(order, "b0")
		p.Sleep(1 * Nanosecond)
		order = append(order, "b1")
	})
	e.Run()
	got := strings.Join(order, ",")
	if got != "a0,b0,b1,a2" {
		t.Fatalf("order = %s", got)
	}
}

func TestProcPanicPropagates(t *testing.T) {
	e := New()
	e.Go("boom", func(p *Proc) {
		p.Sleep(Nanosecond)
		panic("kapow")
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic to propagate out of Run")
		}
		if !strings.Contains(r.(string), "kapow") || !strings.Contains(r.(string), "boom") {
			t.Fatalf("panic message %q lacks proc name or cause", r)
		}
	}()
	e.Run()
}

func TestProcShutdown(t *testing.T) {
	e := New()
	sig := NewSignal(e)
	cleanupRan := false
	e.Go("server", func(p *Proc) {
		defer func() { cleanupRan = true }()
		for {
			sig.Wait(p, "idle")
		}
	})
	e.Run()
	if got := e.Blocked(); len(got) != 1 || got[0] != "server: idle" {
		t.Fatalf("Blocked() = %v", got)
	}
	e.Shutdown()
	if len(e.procs) != 0 {
		t.Fatal("procs remain after Shutdown")
	}
	if cleanupRan {
		// Kill unwinds via panic, so deferred cleanup DOES run; both
		// behaviors are defensible but we promise deferred cleanup runs.
	}
	if !cleanupRan {
		t.Fatal("deferred cleanup did not run on Shutdown")
	}
}

func TestProcShutdownBeforeStart(t *testing.T) {
	e := New()
	ran := false
	e.Go("late", func(p *Proc) { ran = true })
	// Shutdown before Run: the start event has not fired.
	e.Shutdown()
	e.Run()
	if ran {
		t.Fatal("killed proc body ran")
	}
}

func TestProcSleepUntil(t *testing.T) {
	e := New()
	e.Go("u", func(p *Proc) {
		p.SleepUntil(Time(5 * Microsecond))
		if p.Now() != Time(5*Microsecond) {
			t.Errorf("now = %v", p.Now())
		}
		p.SleepUntil(Time(1 * Microsecond)) // in the past: no-op
		if p.Now() != Time(5*Microsecond) {
			t.Errorf("now moved backwards: %v", p.Now())
		}
	})
	e.Run()
}

func TestManyProcsDeterminism(t *testing.T) {
	run := func() []string {
		e := New()
		var order []string
		for i := 0; i < 20; i++ {
			name := string(rune('a' + i))
			e.Go(name, func(p *Proc) {
				for j := 0; j < 5; j++ {
					p.Sleep(Duration(1+j) * Microsecond)
					order = append(order, name)
				}
			})
		}
		e.Run()
		return order
	}
	a := strings.Join(run(), "")
	for i := 0; i < 3; i++ {
		if b := strings.Join(run(), ""); b != a {
			t.Fatalf("nondeterministic proc interleaving:\n%s\n%s", a, b)
		}
	}
}

// catch runs fn and returns what it panicked with, or nil.
func catch(fn func()) (r any) {
	defer func() { r = recover() }()
	fn()
	return nil
}

// TestCallbackPanicOnProcLoop: a proc that blocks runs the event loop, so
// the next callback executes on its goroutine. A panic there must leave
// Run with the callback's own value, not wrapped as a panic of the proc,
// and the proc stays blocked where it was.
func TestCallbackPanicOnProcLoop(t *testing.T) {
	e := New()
	var holder bool
	e.Go("holder", func(p *Proc) {
		holder = true
		p.Sleep(10 * Nanosecond)
	})
	e.At(Time(5*Nanosecond), func() {
		if !holder {
			t.Error("callback ran before the proc blocked")
		}
		e.At(0, func() {}) // scheduling into the past panics
	})
	r := catch(e.Run)
	msg, ok := r.(string)
	if !ok || !strings.HasPrefix(msg, "sim: scheduling event in the past") {
		t.Fatalf("Run panicked with %#v, want the callback's own panic", r)
	}
	if got := e.Blocked(); len(got) != 1 || got[0] != "holder: sleep" {
		t.Fatalf("Blocked() = %v, want [holder: sleep]", got)
	}
	e.Shutdown()
	if len(e.procs) != 0 {
		t.Fatal("procs remain after Shutdown")
	}
}

func TestTwoWakesInOneEventPanic(t *testing.T) {
	e := New()
	a := e.Go("a", func(p *Proc) { p.Park("a") })
	b := e.Go("b", func(p *Proc) { p.Park("b") })
	e.At(Time(Nanosecond), func() {
		e.Wake(a)
		e.Wake(b)
	})
	r := catch(e.Run)
	if msg, ok := r.(string); !ok || !strings.Contains(msg, "in one event") {
		t.Fatalf("Run panicked with %#v, want a two-wakes panic", r)
	}
	e.Shutdown()
}

// TestWakeIsDeferred: Wake resumes the proc only once the callback that
// called it returns.
func TestWakeIsDeferred(t *testing.T) {
	e := New()
	var order []string
	p := e.Go("p", func(p *Proc) {
		p.Park("wait")
		order = append(order, "proc")
	})
	e.At(Time(Nanosecond), func() {
		e.Wake(p)
		order = append(order, "callback")
	})
	e.Run()
	if got := strings.Join(order, ","); got != "callback,proc" {
		t.Fatalf("order = %s, want callback,proc", got)
	}
}

func TestBlockInsideCallbackPanics(t *testing.T) {
	for _, c := range []struct {
		name  string
		block func(p *Proc)
	}{
		{"sleep", func(p *Proc) { p.Sleep(Nanosecond) }},
		{"park", func(p *Proc) { p.Park("x") }},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := New()
			p := e.Go("p", func(p *Proc) { p.Park("idle") })
			e.At(Time(Nanosecond), func() { c.block(p) })
			r := catch(e.Run)
			if msg, ok := r.(string); !ok || !strings.Contains(msg, "inside an event callback") {
				t.Fatalf("Run panicked with %#v, want a block-in-callback panic", r)
			}
			e.Shutdown()
		})
	}
}

// chainRecord is one thing a chainWorld proc did, and when.
type chainRecord struct {
	at   Time
	what string
}

// chainWorld builds procs that hand the loop to one another mid-chain:
// sleepers at different periods plus a producer/consumer pair on a
// Signal, each recording what it did and when.
func chainWorld() (*Engine, *[]chainRecord) {
	e := New()
	var trace []chainRecord
	note := func(p *Proc, what string) {
		trace = append(trace, chainRecord{p.Now(), p.Name() + " " + what})
	}
	for i, period := range []Duration{3, 5, 7} {
		period := period * Nanosecond
		e.Go(string(rune('a'+i)), func(p *Proc) {
			for j := 0; j < 6; j++ {
				p.Sleep(period)
				note(p, "woke")
			}
		})
	}
	sig := NewSignal(e)
	items := 0
	e.Go("consumer", func(p *Proc) {
		for got := 0; got < 5; got++ {
			for items == 0 {
				sig.Wait(p, "empty")
			}
			items--
			note(p, "got")
		}
	})
	e.Go("producer", func(p *Proc) {
		for j := 0; j < 5; j++ {
			p.Sleep(4 * Nanosecond)
			items++
			sig.Pulse()
			note(p, "put")
		}
	})
	return e, &trace
}

// TestWindowsStopMidChain: Step and RunUntil return at their bound even
// while procs are passing the loop among themselves, and finishing with
// Run gives the same trace and step count as one uninterrupted Run.
func TestWindowsStopMidChain(t *testing.T) {
	ref, want := chainWorld()
	ref.Run()
	check := func(t *testing.T, e *Engine, got *[]chainRecord) {
		t.Helper()
		e.Run()
		if !reflect.DeepEqual(*got, *want) {
			t.Fatalf("trace differs from one Run:\n%v\nwant:\n%v", *got, *want)
		}
		if e.Steps() != ref.Steps() {
			t.Fatalf("Steps() = %d, want %d", e.Steps(), ref.Steps())
		}
	}

	t.Run("step", func(t *testing.T) {
		e, trace := chainWorld()
		for i := uint64(1); i <= 20; i++ {
			if !e.Step() {
				t.Fatal("Step found no event")
			}
			if e.Steps() != i {
				t.Fatalf("after %d Steps, Steps() = %d", i, e.Steps())
			}
		}
		check(t, e, trace)
	})
	t.Run("rununtil", func(t *testing.T) {
		e, trace := chainWorld()
		for bound := Time(2 * Nanosecond); bound < Time(20*Nanosecond); bound += Time(2 * Nanosecond) {
			e.RunUntil(bound)
			if e.Now() != bound {
				t.Fatalf("RunUntil(%v) left the clock at %v", bound, e.Now())
			}
			if len(e.heap) > 0 && e.heap[0].t <= bound {
				t.Fatalf("RunUntil(%v) left an event at %v", bound, e.heap[0].t)
			}
			if n := len(*trace); n > 0 && (*trace)[n-1].at > bound {
				t.Fatalf("RunUntil(%v) ran past its bound: %v", bound, (*trace)[n-1])
			}
		}
		check(t, e, trace)
	})
}

// TestBlockedReasons pins the text Blocked prints for every way a proc
// can block; blocking stores the reason's parts and only Blocked joins
// them.
func TestBlockedReasons(t *testing.T) {
	e := New()
	sem := NewSemaphore(e, 0)
	in := NewQueue[int](e, "inq", 0)
	full := NewQueue[int](e, "outq", 1)
	full.TryPut(0)
	e.Go("acquirer", func(p *Proc) { sem.Acquire(p, 3) })
	e.Go("getter", func(p *Proc) { in.Get(p) })
	e.Go("putter", func(p *Proc) { full.Put(p, 1) })
	e.Go("parker", func(p *Proc) { p.Park("rx credits") })
	e.Go("sleeper", func(p *Proc) { p.Sleep(Second) })
	e.RunFor(Nanosecond)
	e.Go("late", func(p *Proc) {})
	want := []string{
		"acquirer: sem.acquire(3)",
		"getter: inq.get",
		"late: start",
		"parker: rx credits",
		"putter: outq.put",
		"sleeper: sleep",
	}
	if got := e.Blocked(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Blocked() = %q\nwant %q", got, want)
	}
	e.Shutdown()
}
