package torus

import (
	"fmt"
	"math"
	"math/big"
	"testing"
	"testing/quick"
)

func TestParseDims(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Dims
		ok   bool
	}{
		{"8,8,8", Dims{8, 8, 8}, true},
		{"4,2,1", Dims{4, 2, 1}, true},
		{" 16 , 16, 32 ", Dims{16, 16, 32}, true},
		{"", Dims{}, false},
		{"8,8", Dims{}, false},
		{"8,8,8,8", Dims{}, false},
		{"8x8x8", Dims{}, false},
		{"0,2,2", Dims{}, false},
		{"4,-2,2", Dims{}, false},
		{"4,two,2", Dims{}, false},
		{"4,2,", Dims{}, false},
		// At most MaxNodes (64³) nodes, in any shape.
		{"64,64,64", Dims{64, 64, 64}, true},
		{"65,64,64", Dims{}, false},
		{"64,64,65", Dims{}, false},
		{"262144,1,1", Dims{262144, 1, 1}, true},
		{"1,1,262145", Dims{}, false},
		{"100000,100000,100000", Dims{}, false},
		// Products past an int are rejected, never wrapped.
		{"3037000500,3037000500,1", Dims{}, false},
		{"4294967296,4294967296,1", Dims{}, false},
		{"2097152,2097152,2097152", Dims{}, false},
		{fmt.Sprintf("1,1,%d", math.MaxInt), Dims{}, false},
		{fmt.Sprintf("1,%d,1", math.MaxInt), Dims{}, false},
		{fmt.Sprintf("2,1,%d", math.MaxInt), Dims{}, false},
		{fmt.Sprintf("1,%d,2", math.MaxInt), Dims{}, false},
		{fmt.Sprintf("1,1,%d", uint64(math.MaxInt)+1), Dims{}, false},
	} {
		got, err := ParseDims(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("ParseDims(%q) = %v, %v; want %v (ok=%v)", c.in, got, err, c.want, c.ok)
		}
	}
}

// FuzzParseDims checks that every input either fails or parses to dims
// whose Nodes is the exact product of the three sizes, at most MaxNodes,
// and that round-trip through the "X,Y,Z" form; the seed corpus lives in
// testdata/fuzz/FuzzParseDims. Run with
// `go test -fuzz FuzzParseDims ./internal/torus`.
func FuzzParseDims(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		d, err := ParseDims(s)
		if err != nil {
			return
		}
		exact := new(big.Int).Mul(big.NewInt(int64(d.X)), big.NewInt(int64(d.Y)))
		exact.Mul(exact, big.NewInt(int64(d.Z)))
		if !exact.IsInt64() || exact.Int64() != int64(d.Nodes()) {
			t.Fatalf("ParseDims(%q) = %v: Nodes() = %d, exact product %v", s, d, d.Nodes(), exact)
		}
		if d.Nodes() > MaxNodes {
			t.Fatalf("ParseDims(%q) = %v: %d nodes, more than MaxNodes %d", s, d, d.Nodes(), MaxNodes)
		}
		form := fmt.Sprintf("%d,%d,%d", d.X, d.Y, d.Z)
		back, err := ParseDims(form)
		if err != nil || back != d {
			t.Fatalf("ParseDims(%q) = %v, but %q parses to %v, %v", s, d, form, back, err)
		}
	})
}

func TestRankCoordRoundTrip(t *testing.T) {
	d := Dims{4, 2, 3}
	for r := 0; r < d.Nodes(); r++ {
		c := d.CoordOf(r)
		if got := d.Rank(c); got != r {
			t.Fatalf("rank(coord(%d)) = %d", r, got)
		}
	}
}

func TestNeighborWraps(t *testing.T) {
	d := Dims{4, 2, 1}
	c := Coord{3, 1, 0}
	if got := d.Neighbor(c, XPlus); got != (Coord{0, 1, 0}) {
		t.Fatalf("X+ wrap: %v", got)
	}
	if got := d.Neighbor(Coord{0, 0, 0}, XMinus); got != (Coord{3, 0, 0}) {
		t.Fatalf("X- wrap: %v", got)
	}
	if got := d.Neighbor(c, YPlus); got != (Coord{3, 0, 0}) {
		t.Fatalf("Y+ wrap: %v", got)
	}
	// Z dimension of size 1 wraps to itself.
	if got := d.Neighbor(c, ZPlus); got != c {
		t.Fatalf("Z+ on flat dim: %v", got)
	}
}

func TestOpposite(t *testing.T) {
	pairs := [][2]Dir{{XPlus, XMinus}, {YPlus, YMinus}, {ZPlus, ZMinus}}
	for _, pr := range pairs {
		if pr[0].Opposite() != pr[1] || pr[1].Opposite() != pr[0] {
			t.Fatalf("opposite of %v/%v wrong", pr[0], pr[1])
		}
	}
}

func TestRouteDimensionOrder(t *testing.T) {
	d := Dims{4, 4, 4}
	route := d.Route(Coord{0, 0, 0}, Coord{2, 3, 1})
	// X first (2 hops +), then Y (1 hop -, since 3 is closer backwards),
	// then Z (1 hop +).
	want := []Dir{XPlus, XPlus, YMinus, ZPlus}
	if len(route) != len(want) {
		t.Fatalf("route = %v", route)
	}
	for i := range want {
		if route[i] != want[i] {
			t.Fatalf("route = %v, want %v", route, want)
		}
	}
}

// Property: following the route from a arrives exactly at b, and its
// length equals HopCount.
func TestRouteArrivesProperty(t *testing.T) {
	d := Dims{4, 2, 3}
	f := func(ar, br uint8) bool {
		a := d.CoordOf(int(ar) % d.Nodes())
		b := d.CoordOf(int(br) % d.Nodes())
		route := d.Route(a, b)
		if len(route) != d.HopCount(a, b) {
			return false
		}
		c := a
		for _, dir := range route {
			c = d.Neighbor(c, dir)
		}
		return c == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property, across torus shapes (odd, even, flat dimensions): every
// Route result has length HopCount(a,b) and ends at b under Neighbor
// folding.
func TestRouteLengthAndArrivalAcrossShapes(t *testing.T) {
	for _, d := range []Dims{{4, 2, 1}, {4, 4, 4}, {3, 5, 2}, {8, 8, 8}, {1, 1, 1}, {2, 2, 2}} {
		f := func(ar, br uint16) bool {
			a := d.CoordOf(int(ar) % d.Nodes())
			b := d.CoordOf(int(br) % d.Nodes())
			route := d.Route(a, b)
			if len(route) != d.HopCount(a, b) {
				return false
			}
			c := a
			for _, dir := range route {
				c = d.Neighbor(c, dir)
			}
			return c == b
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("dims %v: %v", d, err)
		}
	}
}

// Property: on even-sized dimensions the exactly-half-way wrap-around is
// a tie, and Route must break it deterministically toward the positive
// direction — every repetition included.
func TestRouteEvenDimensionTieBreaksPositive(t *testing.T) {
	d := Dims{4, 6, 8}
	a := Coord{0, 0, 0}
	b := Coord{2, 3, 4} // half-way around every ring
	want := []Dir{XPlus, XPlus, YPlus, YPlus, YPlus, ZPlus, ZPlus, ZPlus, ZPlus}
	for rep := 0; rep < 3; rep++ {
		route := d.Route(a, b)
		if len(route) != len(want) {
			t.Fatalf("route = %v, want %v", route, want)
		}
		for i := range want {
			if route[i] != want[i] {
				t.Fatalf("tie not broken positive: route = %v, want %v", route, want)
			}
		}
	}
	// The ties also surface as two-sided candidate sets.
	dirs := d.MinimalDirs(nil, a, b)
	want = []Dir{XPlus, XMinus, YPlus, YMinus, ZPlus, ZMinus}
	if len(dirs) != len(want) {
		t.Fatalf("MinimalDirs = %v, want %v", dirs, want)
	}
	for i := range want {
		if dirs[i] != want[i] {
			t.Fatalf("MinimalDirs = %v, want %v", dirs, want)
		}
	}
}

// Property: FirstHop equals Route[0], and every MinimalDirs candidate
// moves exactly one hop closer with the dimension-ordered choice first.
func TestFirstHopAndMinimalDirsProperties(t *testing.T) {
	for _, d := range []Dims{{4, 2, 1}, {4, 4, 2}, {3, 3, 3}, {2, 2, 2}} {
		f := func(ar, br uint16) bool {
			a := d.CoordOf(int(ar) % d.Nodes())
			b := d.CoordOf(int(br) % d.Nodes())
			dir, ok := d.FirstHop(a, b)
			route := d.Route(a, b)
			if ok != (len(route) > 0) || (ok && dir != route[0]) {
				return false
			}
			cands := d.MinimalDirs(nil, a, b)
			if (len(cands) == 0) != (a == b) {
				return false
			}
			// Appending keeps what the buffer already holds.
			prefixed := d.MinimalDirs([]Dir{NumDirs}, a, b)
			if len(prefixed) != 1+len(cands) || prefixed[0] != NumDirs {
				return false
			}
			for i, c := range cands {
				if prefixed[1+i] != c {
					return false
				}
			}
			if len(cands) > 0 && cands[0] != route[0] {
				return false // dimension-ordered choice must come first
			}
			h := d.HopCount(a, b)
			for _, c := range cands {
				if d.HopCount(d.Neighbor(a, c), b) != h-1 {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
			t.Errorf("dims %v: %v", d, err)
		}
	}
}

// Property: hop count is symmetric and respects the diameter.
func TestHopCountProperties(t *testing.T) {
	d := Dims{4, 2, 1}
	diameter := 4/2 + 2/2 // 3
	for i := 0; i < d.Nodes(); i++ {
		for j := 0; j < d.Nodes(); j++ {
			a, b := d.CoordOf(i), d.CoordOf(j)
			h1, h2 := d.HopCount(a, b), d.HopCount(b, a)
			if h1 != h2 {
				t.Fatalf("asymmetric hops %v<->%v: %d vs %d", a, b, h1, h2)
			}
			if h1 > diameter {
				t.Fatalf("hops %v->%v = %d exceeds diameter %d", a, b, h1, diameter)
			}
			if (h1 == 0) != (i == j) {
				t.Fatalf("zero hops iff same node violated: %v %v", a, b)
			}
		}
	}
}

func TestAvgHopsCluster1(t *testing.T) {
	// The paper's Cluster I: 4x2 torus. Average distance matters for the
	// BFS all-to-all analysis.
	d := Dims{4, 2, 1}
	got := d.AvgHops()
	if got < 1.5 || got > 2.0 {
		t.Fatalf("avg hops on 4x2 = %f, expected ~1.7", got)
	}
	if (Dims{1, 1, 1}).AvgHops() != 0 {
		t.Fatal("single node avg hops should be 0")
	}
}
