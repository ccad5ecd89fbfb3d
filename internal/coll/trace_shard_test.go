package coll

import (
	"bytes"
	"fmt"
	"testing"

	"apenetsim/internal/sim"
	"apenetsim/internal/timeseries"
	"apenetsim/internal/torus"
	"apenetsim/internal/trace"
	"apenetsim/internal/units"
)

// tracedRun executes a halo, a dimension-order allreduce and an
// all-to-all under a stage-capture recorder and a telemetry sampler, and
// returns the merged capture serialized to JSON — the byte stream
// -trace-out would write (events only; series are sampled per round
// structure and deliberately excluded). The sampler is attached on
// purpose: sampling must not move an event. The all-to-all contends for
// credits and links, whose grants and bookings must resolve in one order
// at every shard count.
func tracedRun(t *testing.T, shards int) []byte {
	t.Helper()
	eng := sim.New()
	defer eng.Shutdown()
	rec := trace.New()
	rec.SetStages(true)
	w, err := NewWorld(eng, Config{
		Dims:   torus.Dims{X: 4, Y: 2, Z: 2},
		Rec:    rec,
		TS:     timeseries.NewSet(10 * sim.Microsecond),
		Shards: shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.Shards() != shards {
		t.Fatalf("Shards() = %d, want %d (tracing must not change the shard count)", w.Shards(), shards)
	}
	w.Run(func(p *sim.Proc, r *Rank) {
		base := r.opBase()
		right := r.w.Dims.Rank(r.w.Dims.Neighbor(r.Coord, torus.XPlus))
		left := r.w.Dims.Rank(r.w.Dims.Neighbor(r.Coord, torus.XMinus))
		r.Timed(p, func() {
			r.put(p, right, 64*units.KB, base, []float64{float64(r.ID)})
			r.get(p, base, left)
			r.drainSends(p)
		})
		r.Timed(p, func() {
			r.AllReduceDims(p, 32*units.KB, []float64{float64(r.ID)})
		})
		r.Timed(p, func() {
			r.AllToAll(p, 8*units.KB, nil)
		})
	})
	if rec.Len() == 0 {
		t.Fatal("traced run captured no events")
	}
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTracedCaptureShardInvariant is the determinism pin for the merged
// sharded capture: the same experiment traced on one shard and on
// 2/4-shard groups produces byte-identical merged event streams.
func TestTracedCaptureShardInvariant(t *testing.T) {
	one := tracedRun(t, 1)
	for _, shards := range []int{2, 4} {
		got := tracedRun(t, shards)
		if !bytes.Equal(got, one) {
			t.Fatalf("shards=%d: merged capture differs from one shard (%d vs %d bytes)", shards, len(got), len(one))
		}
	}
}

// TestTracedShardedWorldCapturesHops is the regression test for the old
// serial-forcing fallback: a traced sharded world must actually run
// sharded and still see wire-hop stage spans from every slab.
func TestTracedShardedWorldCapturesHops(t *testing.T) {
	eng := sim.New()
	defer eng.Shutdown()
	rec := trace.New()
	rec.SetStages(true)
	w, err := NewWorld(eng, Config{Dims: torus.Dims{X: 4, Y: 2, Z: 2}, Rec: rec, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if w.Shards() != 4 {
		t.Fatalf("Shards() = %d, want 4", w.Shards())
	}
	w.Run(func(p *sim.Proc, r *Rank) {
		base := r.opBase()
		right := r.w.Dims.Rank(r.w.Dims.Neighbor(r.Coord, torus.XPlus))
		left := r.w.Dims.Rank(r.w.Dims.Neighbor(r.Coord, torus.XMinus))
		r.put(p, right, 64*units.KB, base, nil)
		r.get(p, base, left)
		r.drainSends(p)
	})
	hops := rec.Filter("wire.", "hop")
	if len(hops) == 0 {
		t.Fatal("traced sharded world captured no wire-hop spans")
	}
	// A +X halo on a 4-wide X axis crosses every slab boundary, so the
	// merged stream must contain hops out of every X coordinate — one
	// per slab at 4 shards.
	seen := map[int]bool{}
	for _, ev := range hops {
		var x, y, z int
		if _, err := fmt.Sscanf(ev.Comp, "wire.(%d,%d,%d)", &x, &y, &z); err != nil {
			t.Fatalf("unparseable hop comp %q: %v", ev.Comp, err)
		}
		seen[x] = true
	}
	for x := 0; x < 4; x++ {
		if !seen[x] {
			t.Fatalf("no hops out of X=%d: a slab's capture is missing (saw %v)", x, seen)
		}
	}
}
