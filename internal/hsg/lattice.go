// Package hsg implements the paper's first application study: over-
// relaxation of the 3D Heisenberg spin glass (§V.D). The numerics are
// real — spins on a cubic lattice with quenched random ±1 couplings,
// updated by the energy-preserving over-relaxation reflection in an
// even/odd checkerboard schedule, decomposed along Z across ranks with
// halo exchange. Physics invariants (energy conservation, unit spin
// norms, decomposition equivalence) validate the communication pattern;
// a calibrated GPU timing model plus the simulated cluster reproduce the
// paper's strong-scaling tables.
package hsg

import (
	"fmt"
	"math"
)

// Spin is a classical 3-component unit vector.
type Spin struct {
	X, Y, Z float64
}

func (s Spin) dot(t Spin) float64 { return s.X*t.X + s.Y*t.Y + s.Z*t.Z }

func (s Spin) norm() float64 { return math.Sqrt(s.dot(s)) }

// coupling returns the quenched ±1 bond J between the site at global
// coordinates (x,y,z) and its neighbor in +dim (dim: 0=x,1=y,2=z), with
// periodic wrapping already applied by the caller. It is a deterministic
// hash of the seed and the bond identity, so every rank — and the
// reference single-domain run — sees the same disorder without having to
// share coupling tables.
func coupling(seed uint64, x, y, z, dim, L int) float64 {
	h := seed
	h ^= uint64(x)*0x9E3779B97F4A7C15 + uint64(y)*0xBF58476D1CE4E5B9 + uint64(z)*0x94D049BB133111EB + uint64(dim)*0xD6E8FEB86659FD93
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	if h&1 == 0 {
		return 1
	}
	return -1
}

// spinAt deterministically initializes the spin at a global site: a unit
// vector from a hash, so decomposed and single-domain runs start equal.
func spinAt(seed uint64, x, y, z int) Spin {
	u := func(k uint64) float64 {
		h := seed ^ k
		h ^= uint64(x)*0xA0761D6478BD642F + uint64(y)*0xE7037ED1A0B428DB + uint64(z)*0x8EBC6AF09C88C6E3
		h ^= h >> 29
		h *= 0xFF51AFD7ED558CCD
		h ^= h >> 32
		return float64(h%(1<<52)) / (1 << 52)
	}
	// Marsaglia method: uniform on the sphere.
	for k := uint64(0); ; k += 2 {
		a := 2*u(1+k) - 1
		b := 2*u(2+k) - 1
		q := a*a + b*b
		if q >= 1 || q == 0 {
			continue
		}
		r := math.Sqrt(1 - q)
		return Spin{2 * a * r, 2 * b * r, 1 - 2*q}
	}
}

// Lattice is a slab of a global L^3 spin-glass lattice covering global
// z in [Z0, Z0+NZ), with one halo plane on each side.
type Lattice struct {
	L    int // global cube side (x and y extents)
	NZ   int // local z extent (without halos)
	Z0   int // first global z plane owned
	seed uint64

	// spins has (NZ+2) planes of L*L sites; plane 0 and plane NZ+1 are
	// halos holding the neighbors' boundary planes.
	spins []Spin
}

// NewLattice builds the slab [z0, z0+nz) of the global lattice with
// deterministic initial spins; halos start from the true neighbor values.
func NewLattice(L, z0, nz int, seed uint64) *Lattice {
	if L <= 0 || nz <= 0 {
		panic("hsg: bad lattice extents")
	}
	lat := &Lattice{L: L, NZ: nz, Z0: z0, seed: seed, spins: make([]Spin, L*L*(nz+2))}
	for zz := 0; zz < nz+2; zz++ {
		gz := ((z0+zz-1)%L + L) % L
		for y := 0; y < L; y++ {
			for x := 0; x < L; x++ {
				lat.spins[lat.idx(x, y, zz)] = spinAt(seed, x, y, gz)
			}
		}
	}
	return lat
}

// idx addresses the local array; z is a local plane index including halos
// (0 = bottom halo, NZ+1 = top halo).
func (lat *Lattice) idx(x, y, z int) int { return (z*lat.L+y)*lat.L + x }

// globalZ maps a local plane (1..NZ) to its global z coordinate.
func (lat *Lattice) globalZ(z int) int { return ((lat.Z0+z-1)%lat.L + lat.L) % lat.L }

// parityOf returns the checkerboard color of a global site.
func parityOf(x, y, gz int) int { return (x + y + gz) & 1 }

// localField sums J*s over the six neighbors of local site (x,y,z),
// z in 1..NZ.
func (lat *Lattice) localField(x, y, z int) Spin {
	L := lat.L
	gz := lat.globalZ(z)
	var h Spin
	add := func(j float64, s Spin) {
		h.X += j * s.X
		h.Y += j * s.Y
		h.Z += j * s.Z
	}
	xp := (x + 1) % L
	xm := (x - 1 + L) % L
	yp := (y + 1) % L
	ym := (y - 1 + L) % L
	gzm := (gz - 1 + L) % L
	add(coupling(lat.seed, x, y, gz, 0, L), lat.spins[lat.idx(xp, y, z)])
	add(coupling(lat.seed, xm, y, gz, 0, L), lat.spins[lat.idx(xm, y, z)])
	add(coupling(lat.seed, x, y, gz, 1, L), lat.spins[lat.idx(x, yp, z)])
	add(coupling(lat.seed, x, ym, gz, 1, L), lat.spins[lat.idx(x, ym, z)])
	add(coupling(lat.seed, x, y, gz, 2, L), lat.spins[lat.idx(x, y, z+1)])
	add(coupling(lat.seed, x, y, gzm, 2, L), lat.spins[lat.idx(x, y, z-1)])
	return h
}

// HalfSweep applies one over-relaxation half-step to every owned site of
// the given parity: s' = 2 (s·h)/(h·h) h − s, the microcanonical
// reflection about the local field. It preserves both |s| and the energy
// exactly (up to floating-point roundoff), which the tests exploit.
func (lat *Lattice) HalfSweep(parity int) {
	for z := 1; z <= lat.NZ; z++ {
		gz := lat.globalZ(z)
		for y := 0; y < lat.L; y++ {
			for x := 0; x < lat.L; x++ {
				if parityOf(x, y, gz) != parity {
					continue
				}
				h := lat.localField(x, y, z)
				hh := h.dot(h)
				if hh == 0 {
					continue
				}
				i := lat.idx(x, y, z)
				s := lat.spins[i]
				f := 2 * s.dot(h) / hh
				lat.spins[i] = Spin{f*h.X - s.X, f*h.Y - s.Y, f*h.Z - s.Z}
			}
		}
	}
	lat.syncSelfHalo()
}

// Sweep applies both parities.
func (lat *Lattice) Sweep() {
	lat.HalfSweep(0)
	lat.HalfSweep(1)
}

// syncSelfHalo refreshes the halo planes from the lattice's own boundary
// planes when the slab covers the whole cube (NZ == L), making the slab
// self-periodic. Distributed slabs get the equivalent from halo exchange.
func (lat *Lattice) syncSelfHalo() {
	if lat.NZ != lat.L {
		return
	}
	lat.SetHalo(true, lat.BoundaryPlane(false))
	lat.SetHalo(false, lat.BoundaryPlane(true))
}

// Energy returns the sum of -J s_i·s_j over bonds whose first endpoint is
// an owned site in +x, +y, +z direction (each bond counted once across
// the global lattice when slabs tile it).
func (lat *Lattice) Energy() float64 {
	L := lat.L
	var e float64
	for z := 1; z <= lat.NZ; z++ {
		gz := lat.globalZ(z)
		for y := 0; y < L; y++ {
			for x := 0; x < L; x++ {
				s := lat.spins[lat.idx(x, y, z)]
				e -= coupling(lat.seed, x, y, gz, 0, L) * s.dot(lat.spins[lat.idx((x+1)%L, y, z)])
				e -= coupling(lat.seed, x, y, gz, 1, L) * s.dot(lat.spins[lat.idx(x, (y+1)%L, z)])
				e -= coupling(lat.seed, x, y, gz, 2, L) * s.dot(lat.spins[lat.idx(x, y, z+1)])
			}
		}
	}
	return e
}

// MaxNormDrift returns the largest |1 - |s|| over owned spins.
func (lat *Lattice) MaxNormDrift() float64 {
	var worst float64
	for z := 1; z <= lat.NZ; z++ {
		for y := 0; y < lat.L; y++ {
			for x := 0; x < lat.L; x++ {
				if d := math.Abs(1 - lat.spins[lat.idx(x, y, z)].norm()); d > worst {
					worst = d
				}
			}
		}
	}
	return worst
}

// BoundaryPlane copies out the owned plane adjacent to the top (z=NZ) or
// bottom (z=1) halo — what a rank ships to its neighbor.
func (lat *Lattice) BoundaryPlane(top bool) []Spin {
	z := 1
	if top {
		z = lat.NZ
	}
	out := make([]Spin, lat.L*lat.L)
	copy(out, lat.spins[lat.idx(0, 0, z):lat.idx(0, 0, z+1)])
	return out
}

// SetHalo installs a neighbor's boundary plane into the top or bottom halo.
func (lat *Lattice) SetHalo(top bool, plane []Spin) {
	if len(plane) != lat.L*lat.L {
		panic(fmt.Sprintf("hsg: halo plane has %d sites, want %d", len(plane), lat.L*lat.L))
	}
	z := 0
	if top {
		z = lat.NZ + 1
	}
	copy(lat.spins[lat.idx(0, 0, z):lat.idx(0, 0, z+1)], plane)
}

// Clone deep-copies the lattice.
func (lat *Lattice) Clone() *Lattice {
	c := *lat
	c.spins = append([]Spin(nil), lat.spins...)
	return &c
}

// SpinsEqual reports whether owned spins match within tol, comparing this
// slab against the corresponding planes of a full lattice.
func (lat *Lattice) SpinsEqual(full *Lattice, tol float64) bool {
	if full.NZ != full.L {
		panic("hsg: reference lattice must be the full cube")
	}
	for z := 1; z <= lat.NZ; z++ {
		gz := lat.globalZ(z)
		for y := 0; y < lat.L; y++ {
			for x := 0; x < lat.L; x++ {
				a := lat.spins[lat.idx(x, y, z)]
				b := full.spins[full.idx(x, y, gz+1)]
				if math.Abs(a.X-b.X) > tol || math.Abs(a.Y-b.Y) > tol || math.Abs(a.Z-b.Z) > tol {
					return false
				}
			}
		}
	}
	return true
}

// RunDecomposed advances np slabs of an L^3 lattice by sweeps full
// sweeps, exchanging halos in-process exactly where the distributed code
// communicates (after each half-sweep). It returns the slabs.
func RunDecomposed(L, np, sweeps int, seed uint64) []*Lattice {
	if L%np != 0 {
		panic("hsg: np must divide L")
	}
	nz := L / np
	slabs := make([]*Lattice, np)
	for r := 0; r < np; r++ {
		slabs[r] = NewLattice(L, r*nz, nz, seed)
	}
	exchange := func() {
		for r := 0; r < np; r++ {
			up := slabs[(r+1)%np]
			down := slabs[(r-1+np)%np]
			slabs[r].SetHalo(true, up.BoundaryPlane(false))
			slabs[r].SetHalo(false, down.BoundaryPlane(true))
		}
	}
	exchange()
	for s := 0; s < sweeps; s++ {
		for parity := 0; parity < 2; parity++ {
			for r := 0; r < np; r++ {
				slabs[r].HalfSweep(parity)
			}
			exchange()
		}
	}
	return slabs
}
