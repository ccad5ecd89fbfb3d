package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestRunUntilFlushesAccount is the regression test for RunUntil/RunFor
// under-reporting: executed steps must reach the Account when RunUntil
// returns, not only at the final Shutdown.
func TestRunUntilFlushesAccount(t *testing.T) {
	acct := &Account{}
	e := NewWithAccount(acct)
	for i := 0; i < 5; i++ {
		e.After(Duration(i)*Microsecond, func() {})
	}
	e.RunUntil(Time(2 * Microsecond))
	if got := acct.Steps(); got != 3 {
		t.Fatalf("RunUntil flushed %d steps to the account, want 3", got)
	}
	e.RunFor(10 * Microsecond)
	if got := acct.Steps(); got != 5 {
		t.Fatalf("RunFor flushed %d steps to the account, want 5", got)
	}
	if acct.PeakPending() == 0 {
		t.Fatal("RunUntil never reported the event-queue high-water mark")
	}
}

// shardKey is the deterministic merge key of one executed event: local
// events order by (t, seq) before ingested events at the same time,
// which order by (t, srcShard, srcSeq). It mirrors eventLess for the
// two classes this test schedules, local and untied.
type shardKey struct {
	t     Time
	ext   bool
	src   int
	seq   uint64
	label int
}

func keyLess(a, b shardKey) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.ext != b.ext {
		return !a.ext
	}
	if !a.ext {
		return a.seq < b.seq
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.seq < b.seq
}

// TestShardMergeProperty drives a 2-shard group through random event
// storms — local schedules plus cross-shard posts, simultaneous
// timestamps included — and demands each shard replays its events in
// exactly the (time, shard, seq) order of a single-threaded reference
// model built from the same schedule. 4 seeds x 10,000 ops.
func TestShardMergeProperty(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			const ops = 10000
			rng := rand.New(rand.NewSource(seed))

			eng := New()
			g := NewGroup(eng, 2, 100*Nanosecond)

			// The reference model: every scheduled event's merge key,
			// grouped by the shard it executes on. The real group must
			// replay each shard's set in sorted key order.
			expect := [2][]shardKey{}
			var got [2][]shardKey
			label := 0
			record := func(shard int, k shardKey) func() {
				k.label = label
				label++
				expect[shard] = append(expect[shard], k)
				lbl := k.label
				kk := k
				return func() {
					kk.label = lbl
					got[shard] = append(got[shard], kk)
				}
			}

			// Seed both shards with local activity, then random storms:
			// each op either schedules a local event or posts a
			// cross-shard message at a stamp drawn from a small window
			// (heavy timestamp collisions on purpose).
			postSeq := [2]uint64{}
			for i := 0; i < ops; i++ {
				src := rng.Intn(2)
				at := Time(rng.Int63n(500) * int64(Nanosecond))
				if rng.Intn(3) == 0 {
					// Cross-shard post: key is (t, src shard, post seq).
					dst := 1 - src
					fn := record(dst, shardKey{t: at, ext: true, src: src, seq: postSeq[src]})
					postSeq[src]++
					g.Engine(src).Post(dst, at, false, fn)
				} else {
					// Local event: key is (t, engine seq).
					e := g.Engine(src)
					fn := record(src, shardKey{t: at, seq: e.seq})
					e.At(at, fn)
				}
			}

			for s := range expect {
				sort.SliceStable(expect[s], func(i, j int) bool { return keyLess(expect[s][i], expect[s][j]) })
			}
			eng.Run()

			for s := range expect {
				if len(got[s]) != len(expect[s]) {
					t.Fatalf("shard %d executed %d events, reference has %d", s, len(got[s]), len(expect[s]))
				}
				for i := range got[s] {
					if got[s][i] != expect[s][i] {
						t.Fatalf("shard %d event %d fired out of order: got %+v, reference %+v",
							s, i, got[s][i], expect[s][i])
					}
				}
			}
		})
	}
}

// TestShardGroupDeterministic runs the same random storm twice on a
// 4-shard group and demands identical execution logs: the merge order
// must be a function of the schedule alone, not of worker scheduling.
func TestShardGroupDeterministic(t *testing.T) {
	storm := func() []string {
		const shards = 4
		eng := New()
		g := NewGroup(eng, shards, 50*Nanosecond)
		rng := rand.New(rand.NewSource(7))
		var mu [shards][]string
		for i := 0; i < 5000; i++ {
			src := rng.Intn(shards)
			dst := rng.Intn(shards)
			at := Time(rng.Int63n(300) * int64(Nanosecond))
			id := i
			s := src
			if dst == src {
				g.Engine(src).At(at, func() { mu[s] = append(mu[s], fmt.Sprintf("%d@%v", id, at)) })
			} else {
				d := dst
				g.Engine(src).Post(dst, at, false, func() { mu[d] = append(mu[d], fmt.Sprintf("%d@%v", id, at)) })
			}
		}
		eng.Run()
		var all []string
		for s := range mu {
			all = append(all, fmt.Sprintf("-- shard %d --", s))
			all = append(all, mu[s]...)
		}
		return all
	}
	a, b := storm(), storm()
	if len(a) != len(b) {
		t.Fatalf("runs executed different event counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("execution log diverged at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

// TestShardRetroactivePost checks the relaxed-order lane: a message
// stamped in the destination's past must still execute (with the clock
// rewound to its stamp), and timestamps computed from it stay exact.
func TestShardRetroactivePost(t *testing.T) {
	eng := New()
	g := NewGroup(eng, 2, 10*Nanosecond)
	var sawNow Time
	// Shard 1 runs far ahead of shard 0 within the first window's reach:
	// shard 0 then posts a message stamped earlier than shard 1's clock.
	g.Engine(1).At(Time(5*Nanosecond), func() {})
	g.Engine(0).At(Time(3*Nanosecond), func() {
		g.Engine(0).Post(1, Time(4*Nanosecond), false, func() {
			sawNow = g.Engine(1).Now()
		})
	})
	eng.Run()
	if sawNow != Time(4*Nanosecond) {
		t.Fatalf("retroactive post executed at %v, want clock rewound to 4ns", sawNow)
	}
}

// TestShardPostTiedOrder checks the order of same-time events on one
// shard: local events first, then untied posts, then tied posts in tie
// order whatever shard sent them, then keyed events in key order whether
// scheduled locally or posted. Tied posts count as steps, keyed events
// do not.
func TestShardPostTiedOrder(t *testing.T) {
	acct := &Account{}
	eng := NewWithAccount(acct)
	g := NewGroup(eng, 3, 10*Nanosecond)
	var got []string
	at := Time(20 * Nanosecond)
	log := func(s string) func() { return func() { got = append(got, s) } }
	// Shard 2 holds the lowest tie, shard 1 the highest; shard 0's untied
	// post goes first regardless, and its local keyed event runs after
	// shard 1's lower-keyed post.
	g.Engine(2).At(Time(1*Nanosecond), func() {
		g.Engine(2).PostTied(0, at, 1, log("tie1"))
		g.Engine(2).PostTied(0, at, 3, log("tie3"))
	})
	g.Engine(1).At(Time(1*Nanosecond), func() {
		g.Engine(1).PostKeyed(0, at, 4, log("key4"))
		g.Engine(1).PostTied(0, at, 2, log("tie2"))
	})
	g.Engine(0).At(Time(1*Nanosecond), func() {
		g.Engine(0).AtInfraKeyed(at, 5, log("key5"))
		g.Engine(0).Post(0, at, false, log("untied"))
		g.Engine(0).At(at, log("local"))
	})
	eng.Run()
	if want := "local untied tie1 tie2 tie3 key4 key5"; strings.Join(got, " ") != want {
		t.Fatalf("execution order %q, want %q", strings.Join(got, " "), want)
	}
	if steps := acct.Steps(); steps != 8 {
		t.Fatalf("account has %d steps, want 8 (4 local + 4 counted posts)", steps)
	}
}

// TestShardStepAccounting checks infra events are excluded from the
// step count and that group runs flush the shared account once drained.
func TestShardStepAccounting(t *testing.T) {
	acct := &Account{}
	eng := NewWithAccount(acct)
	g := NewGroup(eng, 2, 10*Nanosecond)
	if got := acct.Engines(); got != 1 {
		t.Fatalf("group counted %d engines, want 1 (siblings are not extra engines)", got)
	}
	g.Engine(0).At(Time(1*Nanosecond), func() {
		g.Engine(0).Post(1, Time(1*Nanosecond), true, func() {})  // infra: uncounted
		g.Engine(0).Post(1, Time(2*Nanosecond), false, func() {}) // counted
	})
	eng.Run()
	if got := acct.Steps(); got != 2 {
		t.Fatalf("account has %d steps, want 2 (1 local + 1 counted post; infra excluded)", got)
	}
}

// TestOneShardGroupRunsInline pins the one-shard group: it starts no
// worker, and its loop crosses every round barrier itself — on the
// driver, and on a blocked proc that holds the loop — with the rounds,
// OnRound floors, retroactive posts and final clock of shard 0 in a
// two-shard group whose other shard stays idle. Only the two-shard group
// reports its rounds to the account.
func TestOneShardGroupRunsInline(t *testing.T) {
	type outcome struct {
		log    []string
		floors []Time
		rounds uint64
		now    Time
	}
	run := func(shards int) outcome {
		var out outcome
		acct := &Account{}
		eng := NewWithAccount(acct)
		defer eng.Shutdown()
		g := NewGroup(eng, shards, 10*Nanosecond)
		g.OnRound = func(floor Time, busy []bool) { out.floors = append(out.floors, floor) }
		eng.Go("poster", func(p *Proc) {
			for i := 0; i < 4; i++ {
				at, i := p.Now(), i
				// Stamped now, ingested at the next barrier: it runs
				// retroactively, with the clock rewound to its stamp.
				eng.Post(0, at, true, func() { out.log = append(out.log, fmt.Sprintf("post%d@%v", i, eng.Now())) })
				p.Sleep(25 * Nanosecond)
				out.log = append(out.log, fmt.Sprintf("woke@%v", p.Now()))
			}
		})
		eng.At(Time(3*Nanosecond), func() { out.log = append(out.log, "callback") })
		eng.Run()
		if g.workersUp != (shards > 1) {
			t.Errorf("%d shards: workers started = %v", shards, g.workersUp)
		}
		if reported, _ := acct.ShardRounds(); (reported != 0) != (shards > 1) {
			t.Errorf("%d shards: account reports %d rounds", shards, reported)
		}
		out.rounds = g.rounds
		out.now = eng.Now()
		return out
	}
	one, two := run(1), run(2)
	if one.rounds == 0 || len(one.floors) != int(one.rounds) {
		t.Fatalf("one shard: %d rounds, %d OnRound calls", one.rounds, len(one.floors))
	}
	if !reflect.DeepEqual(one, two) {
		t.Fatalf("one-shard group differs from shard 0 of two:\n%+v\n%+v", one, two)
	}
	if want := Time(100 * Nanosecond); one.now != want {
		t.Fatalf("final clock %v, want %v", one.now, want)
	}
}

// TestOneShardGroupShutdownAfterPanic: a panic out of a one-shard
// group's Run leaves no barrier step behind, so Shutdown's closed window
// kills the procs without running another event.
func TestOneShardGroupShutdownAfterPanic(t *testing.T) {
	eng := New()
	NewGroup(eng, 1, 10*Nanosecond)
	ran := false
	eng.Go("sleeper", func(p *Proc) {
		defer p.Sleep(Nanosecond) // blocks during the kill
		p.Sleep(Microsecond)
	})
	eng.At(Time(Nanosecond), func() { panic("boom") })
	eng.At(Time(2*Nanosecond), func() { ran = true })
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("recovered %v, want the callback's panic", r)
			}
		}()
		eng.Run()
	}()
	eng.Shutdown()
	if ran {
		t.Fatal("Shutdown after a panicked run executed a pending event")
	}
}
