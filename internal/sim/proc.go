package sim

import "fmt"

// Proc is a coroutine process driven by an Engine. A proc runs model code
// on its own goroutine, but the engine's driver and all procs alternate
// strictly: at any instant exactly one of them executes, so models stay
// deterministic and need no locking.
//
// A proc may block with Sleep or on sync primitives (Signal, Semaphore,
// Queue). A blocking proc runs the engine's event
// loop itself (see Engine): it keeps executing events until one resumes
// a proc, then continues at once when that proc is itself and otherwise
// hands the loop to the resumed proc with one channel send.
type Proc struct {
	name     string
	eng      *Engine
	fn       func(p *Proc)
	wake     chan struct{}
	why      waitReason
	launched bool // goroutine exists (start event has fired)
	dead     bool
	killed   bool
}

// waitReason is why a proc is blocked. Blocking only stores it; Blocked
// formats it, so a wait builds no string.
type waitReason struct {
	what  string // "start", "sleep", a Park/Wait reason, a queue or FIFO name
	op    string // printed after a dot when set ("put", "get", ...)
	units int64  // semaphore units, printed in parentheses when sem is set
	sem   bool
}

func (w waitReason) String() string {
	s := w.what
	if w.op != "" {
		s += "." + w.op
	}
	if w.sem {
		s += fmt.Sprintf("(%d)", w.units)
	}
	return s
}

// killSentinel is panicked inside a proc to unwind it during Shutdown.
type killSentinelType struct{}

var killSentinel = killSentinelType{}

// Go spawns a new proc named name running fn. The proc starts at the
// current simulation time (as a scheduled event, after already-queued
// events at this timestamp).
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{
		name: name,
		eng:  e,
		fn:   fn,
		wake: make(chan struct{}),
		why:  waitReason{what: "start"},
	}
	e.procs[p] = struct{}{}
	e.wakeAt(e.now, p)
	return p
}

// run is the proc's goroutine. It starts holding the loop and, however
// fn ends, gives the loop back to the driver: a model panic travels
// there wrapped with the proc's name, a kill silently.
func (p *Proc) run() {
	e := p.eng
	defer func() {
		p.dead = true
		delete(e.procs, p)
		if r := recover(); r != nil {
			if _, isKill := r.(killSentinelType); !isKill {
				e.panicVal = fmt.Sprintf("sim: proc %q panicked at %v: %v", p.name, e.now, r)
			}
		}
		e.back <- struct{}{}
	}()
	p.why = waitReason{}
	p.fn(p)
}

// resume hands the loop to the blocked proc p: its first resume starts
// its goroutine, later ones unblock it.
func (p *Proc) resume() {
	if !p.launched {
		p.launched = true
		go p.run()
		return
	}
	p.wake <- struct{}{}
}

// block parks the proc until some event resumes it. Meanwhile the proc
// runs the event loop: when the next resumed proc is p itself, block
// returns with no goroutine switch; otherwise p hands the loop to that
// proc, or to the driver when the window closes or an event callback
// panics, and waits. Model code never calls block directly; Sleep, Park
// and the sync primitives do.
func (p *Proc) block(why waitReason) {
	e := p.eng
	if p.dead {
		panic("sim: blocking a dead proc")
	}
	if e.inCallback {
		panic(fmt.Sprintf("sim: proc %q blocks inside an event callback", p.name))
	}
	p.why = why
	switch next := e.loop(); next {
	case p:
		p.why = waitReason{}
		return
	case nil:
		e.back <- struct{}{}
	default:
		next.resume()
	}
	<-p.wake
	if p.killed {
		panic(killSentinel)
	}
	p.why = waitReason{}
}

// Park blocks the proc until some engine event wakes it with Engine.Wake.
// It is the exported form of block, for cross-shard protocols (a proc
// waiting on a resource owned by another shard parks itself; the grant
// message posted back to its home shard wakes it). Wake must come from
// an event on the proc's own engine.
func (p *Proc) Park(reason string) { p.block(waitReason{what: reason}) }

// Wake resumes a proc parked with Park once the current event callback
// returns, so it must be the callback's last action. It must be called
// from an event callback on the proc's own engine, at most once per
// callback. Waking a proc that already exited is a no-op.
func (e *Engine) Wake(p *Proc) {
	if p.eng != e {
		panic(fmt.Sprintf("sim: waking proc %q on a foreign engine", p.name))
	}
	if !e.inCallback {
		panic(fmt.Sprintf("sim: waking proc %q outside an event callback", p.name))
	}
	if e.woken != nil {
		panic(fmt.Sprintf("sim: waking proc %q and proc %q in one event", e.woken.name, p.name))
	}
	if !p.launched && !p.dead {
		panic(fmt.Sprintf("sim: waking proc %q before its start event", p.name))
	}
	e.woken = p
}

// Name returns the proc's name.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine driving this proc.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current simulation time.
func (p *Proc) Now() Time { return p.eng.Now() }

// Sleep blocks the proc for d of simulated time. Even a zero sleep
// yields: the wake goes through the event queue, preserving FIFO
// ordering with same-time events.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative sleep %v", d))
	}
	p.eng.wakeAt(p.eng.now.Add(d), p)
	p.block(waitReason{what: "sleep"})
}

// SleepUntil blocks the proc until absolute time t (no-op if t <= now).
func (p *Proc) SleepUntil(t Time) {
	if t <= p.Now() {
		return
	}
	p.Sleep(t.Sub(p.Now()))
}
