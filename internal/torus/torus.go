// Package torus provides the 3D torus topology and the dimension-ordered
// static routing of the APEnet+ router: packets correct X first, then Y,
// then Z, taking the shorter wrap-around direction in each dimension.
package torus

import (
	"fmt"
	"strconv"
	"strings"
)

// Dims is the size of a torus in each dimension. The paper's Cluster I is
// {4,2,1}.
type Dims struct {
	X, Y, Z int
}

// Coord is a node position.
type Coord struct {
	X, Y, Z int
}

func (c Coord) String() string { return fmt.Sprintf("(%d,%d,%d)", c.X, c.Y, c.Z) }

// Dir is a link direction out of a node; the APEnet+ router has six.
type Dir int

// Directions, in the router's dimension order.
const (
	XPlus Dir = iota
	XMinus
	YPlus
	YMinus
	ZPlus
	ZMinus
	NumDirs
)

var dirNames = [...]string{"X+", "X-", "Y+", "Y-", "Z+", "Z-"}

func (d Dir) String() string {
	if d < 0 || d >= NumDirs {
		return fmt.Sprintf("Dir(%d)", int(d))
	}
	return dirNames[d]
}

// Opposite returns the reverse direction (X+ <-> X-, ...).
func (d Dir) Opposite() Dir { return d ^ 1 }

// Nodes returns the number of nodes in the torus.
func (d Dims) Nodes() int { return d.X * d.Y * d.Z }

// Valid reports whether all dimensions are positive.
func (d Dims) Valid() bool { return d.X > 0 && d.Y > 0 && d.Z > 0 }

func (d Dims) String() string { return fmt.Sprintf("%dx%dx%d", d.X, d.Y, d.Z) }

// MaxNodes is the most nodes a parsed torus may have: 64³, the largest
// torus this simulator is meant to run. A larger size given on a command
// line or in a capture fails to parse instead of exhausting memory or
// panicking while the world is built.
const MaxNodes = 64 * 64 * 64

// ParseDims parses the command-line form "X,Y,Z" (e.g. "8,8,8"; spaces
// around each number are allowed) into positive torus dimensions of at
// most MaxNodes nodes.
func ParseDims(s string) (Dims, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 3 {
		return Dims{}, fmt.Errorf("want X,Y,Z (e.g. 8,8,8), got %q", s)
	}
	var v [3]int
	nodes := 1
	for i, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n < 1 {
			return Dims{}, fmt.Errorf("bad dimension %q in %q", p, s)
		}
		if n > MaxNodes/nodes {
			return Dims{}, fmt.Errorf("torus %q has more than %d (64x64x64) nodes", s, MaxNodes)
		}
		v[i] = n
		nodes *= n
	}
	return Dims{X: v[0], Y: v[1], Z: v[2]}, nil
}

// Contains reports whether c is a valid coordinate.
func (d Dims) Contains(c Coord) bool {
	return c.X >= 0 && c.X < d.X && c.Y >= 0 && c.Y < d.Y && c.Z >= 0 && c.Z < d.Z
}

// Rank linearizes a coordinate (X fastest).
func (d Dims) Rank(c Coord) int {
	if !d.Contains(c) {
		panic(fmt.Sprintf("torus: coordinate %v outside %v", c, d))
	}
	return c.X + d.X*(c.Y+d.Y*c.Z)
}

// CoordOf inverts Rank.
func (d Dims) CoordOf(rank int) Coord {
	if rank < 0 || rank >= d.Nodes() {
		panic(fmt.Sprintf("torus: rank %d outside %v", rank, d))
	}
	return Coord{
		X: rank % d.X,
		Y: (rank / d.X) % d.Y,
		Z: rank / (d.X * d.Y),
	}
}

// Neighbor returns the coordinate one hop away in direction dir, with
// wrap-around.
func (d Dims) Neighbor(c Coord, dir Dir) Coord {
	mod := func(v, n int) int { return ((v % n) + n) % n }
	switch dir {
	case XPlus:
		c.X = mod(c.X+1, d.X)
	case XMinus:
		c.X = mod(c.X-1, d.X)
	case YPlus:
		c.Y = mod(c.Y+1, d.Y)
	case YMinus:
		c.Y = mod(c.Y-1, d.Y)
	case ZPlus:
		c.Z = mod(c.Z+1, d.Z)
	case ZMinus:
		c.Z = mod(c.Z-1, d.Z)
	default:
		panic("torus: bad direction")
	}
	return c
}

// step returns the hops and direction to correct one dimension from a to b
// over a ring of size n: the shorter way around, positive on ties.
func step(a, b, n int) (hops int, positive bool) {
	delta := ((b-a)%n + n) % n
	if delta == 0 {
		return 0, true
	}
	if delta <= n-delta {
		return delta, true
	}
	return n - delta, false
}

// Route returns the dimension-ordered hop sequence from a to b.
func (d Dims) Route(a, b Coord) []Dir {
	var out []Dir
	appendHops := func(hops int, plus, minus Dir, positive bool) {
		dir := plus
		if !positive {
			dir = minus
		}
		for i := 0; i < hops; i++ {
			out = append(out, dir)
		}
	}
	h, pos := step(a.X, b.X, d.X)
	appendHops(h, XPlus, XMinus, pos)
	h, pos = step(a.Y, b.Y, d.Y)
	appendHops(h, YPlus, YMinus, pos)
	h, pos = step(a.Z, b.Z, d.Z)
	appendHops(h, ZPlus, ZMinus, pos)
	return out
}

// FirstHop returns the first direction of the dimension-ordered route
// from a to b, or ok=false when a == b. It is the hop-by-hop form of
// Route: folding FirstHop with Neighbor reproduces the full route.
func (d Dims) FirstHop(a, b Coord) (Dir, bool) {
	if h, pos := step(a.X, b.X, d.X); h > 0 {
		if pos {
			return XPlus, true
		}
		return XMinus, true
	}
	if h, pos := step(a.Y, b.Y, d.Y); h > 0 {
		if pos {
			return YPlus, true
		}
		return YMinus, true
	}
	if h, pos := step(a.Z, b.Z, d.Z); h > 0 {
		if pos {
			return ZPlus, true
		}
		return ZMinus, true
	}
	return 0, false
}

// MinimalDirs appends to out every direction that moves a exactly one
// hop closer to b — the candidate set an adaptive minimal router chooses
// from — and returns the extended slice. In each unfinished dimension the
// shorter wrap-around direction qualifies; when an even-sized dimension
// is exactly half-way around both directions are minimal and both are
// appended. Candidates appear in dimension order with the positive
// direction first, so the first one appended is always the
// dimension-ordered route's own choice (FirstHop). Nothing is appended
// when a == b. There are at most NumDirs candidates, so a caller that
// passes a zero-length slice of a [NumDirs]Dir array gets them without
// a heap allocation.
func (d Dims) MinimalDirs(out []Dir, a, b Coord) []Dir {
	add := func(av, bv, n int, plus, minus Dir) {
		delta := ((bv-av)%n + n) % n
		if delta == 0 {
			return
		}
		if delta <= n-delta {
			out = append(out, plus)
		}
		if n-delta <= delta {
			out = append(out, minus)
		}
	}
	add(a.X, b.X, d.X, XPlus, XMinus)
	add(a.Y, b.Y, d.Y, YPlus, YMinus)
	add(a.Z, b.Z, d.Z, ZPlus, ZMinus)
	return out
}

// HopCount returns the length of the dimension-ordered route.
func (d Dims) HopCount(a, b Coord) int {
	hx, _ := step(a.X, b.X, d.X)
	hy, _ := step(a.Y, b.Y, d.Y)
	hz, _ := step(a.Z, b.Z, d.Z)
	return hx + hy + hz
}

// AvgHops returns the mean hop count over all ordered node pairs (a
// measure of how much an all-to-all stresses the torus vs. a crossbar).
func (d Dims) AvgHops() float64 {
	n := d.Nodes()
	if n <= 1 {
		return 0
	}
	total := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			total += d.HopCount(d.CoordOf(i), d.CoordOf(j))
		}
	}
	return float64(total) / float64(n*(n-1))
}
