package coll

import (
	"reflect"
	"strings"
	"testing"

	"apenetsim/internal/core"
	"apenetsim/internal/route"
	"apenetsim/internal/sim"
	"apenetsim/internal/torus"
	"apenetsim/internal/trace"
	"apenetsim/internal/units"
)

// shardRun executes one representative SPMD program — a +X halo shift,
// a barrier-timed all-to-neighbors burst, and a loopback-free drain — on
// a 4x2x2 torus with the requested shard count, and returns everything
// observable: per-rank timings, per-card stats, per-link stats, total
// counted sim steps, and the final clock.
type shardOutcome struct {
	Durs  []sim.Duration
	Stats []core.CardStats
	Links []core.LinkStat
	Steps uint64
	Now   sim.Time
}

func shardRun(t *testing.T, shards int, wantShards int) shardOutcome {
	t.Helper()
	eng := sim.New()
	w, err := NewWorld(eng, Config{
		Dims:   torus.Dims{X: 4, Y: 2, Z: 2},
		Shards: shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.Shards() != wantShards {
		t.Fatalf("Shards() = %d, want %d", w.Shards(), wantShards)
	}
	durs := make([]sim.Duration, len(w.Ranks))
	w.Run(func(p *sim.Proc, r *Rank) {
		n := len(r.w.Ranks)
		// Phase 1: +X halo shift.
		base := r.opBase()
		right := r.w.Dims.Rank(r.w.Dims.Neighbor(r.Coord, torus.XPlus))
		left := r.w.Dims.Rank(r.w.Dims.Neighbor(r.Coord, torus.XMinus))
		durs[r.ID] = r.Timed(p, func() {
			r.put(p, right, 64*units.KB, base, []float64{float64(r.ID)})
			m := r.get(p, base, left)
			if int(m.Vals[0]) != left {
				t.Errorf("rank %d: halo from %d carried %v", r.ID, left, m.Vals)
			}
			r.drainSends(p)
		})
		// Phase 2: scatter to every other rank (crosses every shard
		// boundary, including multi-hop paths).
		base = r.opBase()
		r.Timed(p, func() {
			for d := 1; d < n; d++ {
				r.put(p, (r.ID+d)%n, 4*units.KB, base, nil)
			}
			for d := 1; d < n; d++ {
				r.get(p, base, (r.ID+n-d)%n)
			}
			r.drainSends(p)
		})
	})
	out := shardOutcome{Durs: durs, Links: w.Net().LinkStats(), Now: eng.Now()}
	for _, r := range w.Ranks {
		out.Stats = append(out.Stats, r.node.Card.Stats())
	}
	g := eng.Group()
	for i := 0; i < g.Shards(); i++ {
		out.Steps += g.Engine(i).Steps()
	}
	return out
}

// TestShardedCollEquivalence pins the sharded world to the default one:
// identical per-rank timings, per-card and per-link statistics, final
// clock, and total counted event steps at 1, 2, and 4 shards.
func TestShardedCollEquivalence(t *testing.T) {
	def := shardRun(t, 0, 1)
	if len(def.Links) == 0 {
		t.Fatal("default run metered no torus links")
	}
	for _, shards := range []int{2, 4} {
		got := shardRun(t, shards, shards)
		if !reflect.DeepEqual(got, def) {
			if got.Now != def.Now {
				t.Errorf("shards=%d: final clock %v, default %v", shards, got.Now, def.Now)
			}
			if got.Steps != def.Steps {
				t.Errorf("shards=%d: %d sim steps, default %d", shards, got.Steps, def.Steps)
			}
			for i := range def.Durs {
				if got.Durs[i] != def.Durs[i] {
					t.Errorf("shards=%d: rank %d timed %v, default %v", shards, i, got.Durs[i], def.Durs[i])
				}
			}
			for i := range def.Stats {
				if got.Stats[i] != def.Stats[i] {
					t.Errorf("shards=%d: card %d stats\n got %+v\nwant %+v", shards, i, got.Stats[i], def.Stats[i])
				}
			}
			if !reflect.DeepEqual(got.Links, def.Links) {
				t.Errorf("shards=%d: link stats\n got %+v\nwant %+v", shards, got.Links, def.Links)
			}
			t.FailNow()
		}
	}
}

// TestRoutedWorldsShardAsRequested pins that every router shards: hops
// are booked on their owner's engine at arrival time, so adaptive and
// fault-aware worlds run at the requested shard count, traced or not.
func TestRoutedWorldsShardAsRequested(t *testing.T) {
	for _, tc := range []struct {
		mode route.Mode
		rec  *trace.Recorder
	}{
		{route.ModeAdaptive, nil},
		{route.ModeFaultAware, nil},
		{route.ModeAdaptive, trace.New()},
	} {
		eng := sim.New()
		cc := core.DefaultConfig()
		cc.Routing.Mode = tc.mode
		w, err := NewWorld(eng, Config{Dims: torus.Dims{X: 4, Y: 2, Z: 2}, Card: &cc, Rec: tc.rec, Shards: 2})
		if err != nil {
			t.Fatalf("%v (traced=%v): %v", tc.mode, tc.rec != nil, err)
		}
		if w.Shards() != 2 {
			t.Errorf("%v (traced=%v) world runs %d shards, want 2", tc.mode, tc.rec != nil, w.Shards())
		}
		eng.Shutdown()
	}
}

// TestShardRequestNeedsHopLatency pins that a card configuration without
// a positive hop latency — the group lookahead — is an error at every
// shard count, one included.
func TestShardRequestNeedsHopLatency(t *testing.T) {
	cc := core.DefaultConfig()
	cc.HopLatency = 0
	dims := torus.Dims{X: 4, Y: 2, Z: 2}
	for _, shards := range []int{1, 2} {
		_, err := NewWorld(sim.New(), Config{Dims: dims, Card: &cc, Shards: shards})
		if err == nil {
			t.Fatalf("%d shards with zero hop latency: want an error, got a world", shards)
		}
		if !strings.Contains(err.Error(), "hop latency") {
			t.Fatalf("%d shards: zero-latency error %q does not name the hop latency", shards, err)
		}
	}
}

// TestShardClamping pins the validation rule for over-axis requests: more
// shards than the slab axis is long is a loud error, not a deep panic or
// a silent clamp.
func TestShardClamping(t *testing.T) {
	if got := MaxShards(torus.Dims{X: 2, Y: 2, Z: 2}); got != 2 {
		t.Fatalf("MaxShards(2x2x2) = %d, want 2", got)
	}
	_, err := NewWorld(sim.New(), Config{Dims: torus.Dims{X: 2, Y: 2, Z: 2}, Shards: 8})
	if err == nil {
		t.Fatal("8 shards on a 2x2x2 torus: want an error, got a world")
	}
	if !strings.Contains(err.Error(), "at most 2 slabs") {
		t.Fatalf("over-axis shard error %q does not name the slab limit", err)
	}
}
