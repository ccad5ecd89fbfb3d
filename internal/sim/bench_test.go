package sim_test

import (
	"fmt"
	"testing"

	"apenetsim/internal/sim"
)

// BenchmarkEngineStep measures the steady-state cost of one executed
// event — heap pop, callback, reschedule, heap push — with a standing
// population of pending events: 1,024, and the peak_pending real runs
// reach, 2,264 on a2a-adaptive, 4,608 on lqcd-8c and 18,432 on a 16³
// torus at 2 shards (a 32³ collective holds tens of thousands in flight).
// Those events all pend at distinct times; "lockstep" holds lqcd-8c's
// 4,608 over only 4 timestamps, the shape of its halo rounds, where
// nearly every pop has the timestamp of the one before.
func BenchmarkEngineStep(b *testing.B) {
	type shape struct {
		name           string
		pending, times int
	}
	var shapes []shape
	for _, n := range []int{1024, 2264, 4608, 18432} {
		shapes = append(shapes, shape{fmt.Sprintf("pending=%d", n), n, n})
	}
	shapes = append(shapes, shape{"lockstep", 4608, 4})
	for _, sh := range shapes {
		sh := sh
		b.Run(sh.name, func(b *testing.B) {
			eng := sim.New()
			var tick func()
			tick = func() { eng.After(sim.Duration(sh.times)*sim.Nanosecond, tick) }
			for i := 0; i < sh.pending; i++ {
				eng.After(sim.Duration(i%sh.times)*sim.Nanosecond, tick)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Step()
			}
		})
	}
}

// BenchmarkGroupRound measures the round machinery of a two-shard group
// with a ping-pong workload: each op is one cross-shard round trip — two
// windowed rounds, each carrying one Post, one barrier ingestion, one
// worker activation, and one executed event. It is the A/B meter for the
// per-round overhead (worker handoff, mailbox slabs, heap ingestion)
// independent of any model code.
//
// linux/amd64 (2.1 GHz Xeon, single core), -benchmem -benchtime 200000x:
//
//	BenchmarkGroupRound    ~1000 ns/op    0 B/op    0 allocs/op
//
// versus a per-round go func + sync.WaitGroup and a per-message event
// allocation: ~1430 ns/op, 224 B/op, 6 allocs/op — persistent workers
// and reused event storage remove every steady-state allocation (6 -> 0
// allocs/op) and ~30% of the round-trip time on one core.
func BenchmarkGroupRound(b *testing.B) {
	eng := sim.New()
	g := sim.NewGroup(eng, 2, sim.Microsecond)
	e0, e1 := g.Engine(0), g.Engine(1)
	remaining := b.N
	var ping, pong func()
	ping = func() {
		if remaining == 0 {
			return
		}
		remaining--
		e0.Post(1, e0.Now().Add(sim.Microsecond), false, pong)
	}
	pong = func() {
		e1.Post(0, e1.Now().Add(sim.Microsecond), false, ping)
	}
	eng.At(0, ping)
	b.ResetTimer()
	eng.Run()
	b.StopTimer()
	eng.Shutdown()
}

// BenchmarkProcSwitch measures one proc wake — the wake event, the
// resume, the proc's next Sleep and block — in the two shapes a model
// produces. In "self" a lone proc sleeps in a loop, so every wake
// resumes the proc that just blocked: it keeps running the event loop
// and continues with no goroutine switch. In "pair" two procs sleep in
// lockstep, so every wake resumes the other proc: the blocking proc
// hands the loop straight to it, one goroutine switch.
func BenchmarkProcSwitch(b *testing.B) {
	sleeper := func(n int) func(p *sim.Proc) {
		return func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(sim.Nanosecond)
			}
		}
	}
	b.Run("self", func(b *testing.B) {
		eng := sim.New()
		eng.Go("a", sleeper(b.N))
		b.ReportAllocs()
		b.ResetTimer()
		eng.Run()
	})
	b.Run("pair", func(b *testing.B) {
		eng := sim.New()
		eng.Go("a", sleeper((b.N+1)/2))
		eng.Go("b", sleeper(b.N/2))
		b.ReportAllocs()
		b.ResetTimer()
		eng.Run()
	})
}
