package route

import (
	"sync"
	"testing"
	"testing/quick"

	"apenetsim/internal/sim"
	"apenetsim/internal/torus"
	"apenetsim/internal/units"
)

// fakeView is an in-memory View: settable per-link backlog and up/down
// state over a torus, no simulation engine behind it.
type fakeView struct {
	dims    torus.Dims
	down    map[fakeLink]bool
	backlog map[fakeLink]sim.Duration
	epoch   uint64
}

type fakeLink struct {
	c torus.Coord
	d torus.Dir
}

func newFakeView(dims torus.Dims) *fakeView {
	return &fakeView{dims: dims, down: map[fakeLink]bool{}, backlog: map[fakeLink]sim.Duration{}}
}

func (v *fakeView) Torus() torus.Dims { return v.dims }
func (v *fakeView) LinkUp(from torus.Coord, dir torus.Dir) bool {
	return !v.down[fakeLink{from, dir}]
}
func (v *fakeView) QueueDelay(from torus.Coord, dir torus.Dir, at sim.Time, wire units.ByteSize) sim.Duration {
	return v.backlog[fakeLink{from, dir}]
}
func (v *fakeView) StateEpoch() uint64 { return v.epoch }

func (v *fakeView) cut(c torus.Coord, dir torus.Dir) {
	v.down[fakeLink{c, dir}] = true
	v.down[fakeLink{v.dims.Neighbor(c, dir), dir.Opposite()}] = true
	v.epoch++
}

// walk follows the router from a to b, failing on loops (> diameter*4
// hops) or a reported dead end. Returns the hop count.
func walk(t *testing.T, r Router, v View, a, b torus.Coord) int {
	t.Helper()
	cur := a
	hops := 0
	limit := 4 * (v.Torus().X + v.Torus().Y + v.Torus().Z)
	for cur != b {
		dec, ok := r.NextHop(v, cur, b, 0, 4096)
		if !ok {
			t.Fatalf("%s: no hop at %v toward %v after %d hops", r.Name(), cur, b, hops)
		}
		cur = v.Torus().Neighbor(cur, dec.Dir)
		hops++
		if hops > limit {
			t.Fatalf("%s: route %v->%v did not converge", r.Name(), a, b)
		}
	}
	return hops
}

// Every router, on a healthy idle torus, must reproduce the static
// dimension-ordered path exactly — that is what keeps the default
// experiment outputs bit-identical.
func TestHealthyIdleTorusMatchesDimensionOrder(t *testing.T) {
	dims := torus.Dims{X: 4, Y: 4, Z: 2}
	v := newFakeView(dims)
	for _, r := range []Router{NewDimensionOrder(), NewAdaptiveMinimal(0), NewAdaptiveMinimal(7), NewFaultAware()} {
		f := func(ar, br uint16) bool {
			a := dims.CoordOf(int(ar) % dims.Nodes())
			b := dims.CoordOf(int(br) % dims.Nodes())
			if a == b {
				return true
			}
			cur := a
			for _, want := range dims.Route(a, b) {
				dec, ok := r.NextHop(v, cur, b, 0, 4096)
				if !ok || dec.Dir != want || dec.Deviated || dec.FaultDetour {
					return false
				}
				cur = dims.Neighbor(cur, dec.Dir)
			}
			return cur == b
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%s deviates from dimension order on a healthy idle torus: %v", r.Name(), err)
		}
		if s := r.Stats(); s.Deviations != 0 {
			t.Errorf("%s: %d deviations on a healthy idle torus", r.Name(), s.Deviations)
		}
	}
}

// The adaptive router must leave the dimension-ordered direction when a
// strictly less-backlogged minimal alternative exists, stay on it for
// ties, and still deliver minimal-length routes.
func TestAdaptiveDeviatesUnderBacklog(t *testing.T) {
	dims := torus.Dims{X: 4, Y: 4, Z: 1}
	v := newFakeView(dims)
	r := NewAdaptiveMinimal(0)
	a, b := torus.Coord{X: 0, Y: 0, Z: 0}, torus.Coord{X: 1, Y: 1, Z: 0}

	// Idle: dimension order goes X+ first.
	if dec, ok := r.NextHop(v, a, b, 0, 4096); !ok || dec.Dir != torus.XPlus || dec.Deviated {
		t.Fatalf("idle first hop = %+v, want X+", dec)
	}
	// Backlog on X+ out of the source: deviate to Y+.
	v.backlog[fakeLink{a, torus.XPlus}] = sim.Microsecond
	if dec, ok := r.NextHop(v, a, b, 0, 4096); !ok || dec.Dir != torus.YPlus || !dec.Deviated || dec.FaultDetour {
		t.Fatalf("backlogged first hop = %+v, want a Y+ deviation (not a fault detour)", dec)
	}
	// Equal backlog on both: tie resolves back to the escape channel.
	v.backlog[fakeLink{a, torus.YPlus}] = sim.Microsecond
	if dec, ok := r.NextHop(v, a, b, 0, 4096); !ok || dec.Dir != torus.XPlus || dec.Deviated {
		t.Fatalf("tied first hop = %+v, want the X+ escape channel", dec)
	}
	s := r.Stats()
	if s.Deviations != 1 || s.Escapes != 1 || s.Decisions != 3 {
		t.Fatalf("stats = %+v, want 1 deviation, 1 escape, 3 decisions", s)
	}
	// Routes stay minimal whatever the backlog pattern.
	v.backlog[fakeLink{torus.Coord{X: 0, Y: 1, Z: 0}, torus.XPlus}] = 3 * sim.Microsecond
	if hops := walk(t, r, v, a, b); hops != dims.HopCount(a, b) {
		t.Fatalf("adaptive route took %d hops, want minimal %d", hops, dims.HopCount(a, b))
	}
}

// Seeded tie-breaking must be deterministic: same seed, same choices.
func TestAdaptiveSeedDeterminism(t *testing.T) {
	dims := torus.Dims{X: 4, Y: 4, Z: 4}
	mk := func(seed int64) []torus.Dir {
		v := newFakeView(dims)
		// Backlog the X escape so ties form between Y and Z candidates.
		for x := 0; x < 4; x++ {
			for y := 0; y < 4; y++ {
				for z := 0; z < 4; z++ {
					v.backlog[fakeLink{torus.Coord{X: x, Y: y, Z: z}, torus.XPlus}] = sim.Microsecond
				}
			}
		}
		r := NewAdaptiveMinimal(seed)
		var dirs []torus.Dir
		cur, dst := torus.Coord{X: 0, Y: 0, Z: 0}, torus.Coord{X: 2, Y: 2, Z: 2}
		for cur != dst {
			dec, ok := r.NextHop(v, cur, dst, 0, 4096)
			if !ok {
				t.Fatal("dead end")
			}
			dirs = append(dirs, dec.Dir)
			cur = dims.Neighbor(cur, dec.Dir)
		}
		return dirs
	}
	a1, a2 := mk(42), mk(42)
	if len(a1) != len(a2) {
		t.Fatalf("same seed, different route lengths: %v vs %v", a1, a2)
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("same seed, different routes: %v vs %v", a1, a2)
		}
	}
	if len(a1) != dims.HopCount(torus.Coord{X: 0, Y: 0, Z: 0}, torus.Coord{X: 2, Y: 2, Z: 2}) {
		t.Fatalf("seeded adaptive route not minimal: %v", a1)
	}
}

// FaultAware must detour around a cut cable with the shortest degraded
// path and report a partition instead of looping.
func TestFaultAwareDetourAndPartition(t *testing.T) {
	dims := torus.Dims{X: 4, Y: 2, Z: 2}
	v := newFakeView(dims)
	r := NewFaultAware()
	a, b := torus.Coord{X: 0, Y: 0, Z: 0}, torus.Coord{X: 1, Y: 0, Z: 0}

	if hops := walk(t, r, v, a, b); hops != 1 {
		t.Fatalf("healthy route %d hops, want 1", hops)
	}
	v.cut(a, torus.XPlus)
	// Direct cable dead: shortest detour leaves the X line and re-enters
	// (e.g. Y+, X+, Y-) — 3 hops.
	if hops := walk(t, r, v, a, b); hops != 3 {
		t.Fatalf("degraded route %d hops, want 3", hops)
	}
	if !r.Reachable(v, a, b) {
		t.Fatal("detourable pair reported unreachable")
	}
	if s := r.Stats(); s.Deviations == 0 {
		t.Fatalf("detour made no deviations: %+v", s)
	}

	// Cut every cable of b: partitioned.
	for dir := torus.Dir(0); dir < torus.NumDirs; dir++ {
		if dims.Neighbor(b, dir) != b {
			v.cut(b, dir)
		}
	}
	if r.Reachable(v, a, b) {
		t.Fatal("cut-off node reported reachable")
	}
	if _, ok := r.NextHop(v, a, b, 0, 4096); ok {
		t.Fatal("NextHop found a hop toward a cut-off node")
	}
	// Other pairs still route.
	if hops := walk(t, r, v, a, torus.Coord{X: 2, Y: 1, Z: 1}); hops != dims.HopCount(a, torus.Coord{X: 2, Y: 1, Z: 1}) {
		t.Fatalf("unrelated pair detoured: %d hops", hops)
	}
}

// The distance-field cache must refresh when link state changes.
func TestFaultAwareEpochInvalidation(t *testing.T) {
	dims := torus.Dims{X: 4, Y: 1, Z: 1}
	v := newFakeView(dims)
	r := NewFaultAware()
	a, b := torus.Coord{X: 0, Y: 0, Z: 0}, torus.Coord{X: 1, Y: 0, Z: 0}

	if hops := walk(t, r, v, a, b); hops != 1 {
		t.Fatalf("healthy hops = %d", hops)
	}
	v.cut(a, torus.XPlus)
	// On a 4-ring the only way around is the long way: 3 hops.
	if hops := walk(t, r, v, a, b); hops != 3 {
		t.Fatalf("post-cut hops = %d, want 3 (stale distance cache?)", hops)
	}
	// Restore and confirm the short path comes back.
	v.down = map[fakeLink]bool{}
	v.epoch++
	if hops := walk(t, r, v, a, b); hops != 1 {
		t.Fatalf("post-restore hops = %d, want 1", hops)
	}
}

// One router serves every shard of a sharded world: concurrent NextHop
// and Reachable calls must pick the same hops as a single caller would
// and lose no count. Run under -race to check the synchronization.
func TestRoutersConcurrentUse(t *testing.T) {
	dims := torus.Dims{X: 4, Y: 4, Z: 2}
	v := newFakeView(dims)
	v.cut(torus.Coord{X: 1, Y: 1, Z: 0}, torus.XPlus)
	v.backlog[fakeLink{torus.Coord{}, torus.XPlus}] = sim.Microsecond
	const workers = 4
	for _, mode := range []Mode{ModeDimensionOrder, ModeAdaptive, ModeFaultAware} {
		// Every ordered pair of nodes, once per worker; each worker checks
		// its hops against a second router asked by one caller.
		r, ref := Config{Mode: mode, Seed: 7}.New(), Config{Mode: mode, Seed: 7}.New()
		want := map[[2]int]Decision{}
		for a := 0; a < dims.Nodes(); a++ {
			for b := 0; b < dims.Nodes(); b++ {
				if a != b {
					want[[2]int{a, b}], _ = ref.NextHop(v, dims.CoordOf(a), dims.CoordOf(b), 0, 4096)
				}
			}
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for pair, dec := range want {
					a, b := dims.CoordOf(pair[0]), dims.CoordOf(pair[1])
					r.Reachable(v, a, b)
					if got, _ := r.NextHop(v, a, b, 0, 4096); got != dec {
						t.Errorf("%s: %v->%v concurrently %+v, alone %+v", r.Name(), a, b, got, dec)
					}
				}
			}()
		}
		wg.Wait()
		got, one := r.Stats(), ref.Stats()
		if got.Decisions != workers*one.Decisions || got.Deviations != workers*one.Deviations ||
			got.Escapes != workers*one.Escapes {
			t.Errorf("%s: %d workers counted %+v, one caller %+v", r.Name(), workers, got, one)
		}
	}
}

func TestConfig(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		name string
	}{
		{Config{}, "dor"},
		{Config{Mode: ModeAdaptive, Seed: 3}, "adaptive"},
		{Config{Mode: ModeFaultAware}, "fault"},
	} {
		if err := tc.cfg.Validate(); err != nil {
			t.Fatalf("%+v: %v", tc.cfg, err)
		}
		if got := tc.cfg.New().Name(); got != tc.name {
			t.Fatalf("%+v built %q, want %q", tc.cfg, got, tc.name)
		}
	}
	if err := (Config{Mode: Mode(9)}).Validate(); err == nil {
		t.Fatal("bad mode validated")
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Fatal("bogus mode parsed")
	}
	for s, want := range map[string]Mode{"": ModeDimensionOrder, "dor": ModeDimensionOrder,
		"adaptive": ModeAdaptive, "fault": ModeFaultAware, "fault-aware": ModeFaultAware} {
		m, err := ParseMode(s)
		if err != nil || m != want {
			t.Fatalf("ParseMode(%q) = %v, %v", s, m, err)
		}
	}
}
