package bench

import (
	"fmt"

	"apenetsim/internal/coll"
	"apenetsim/internal/core"
	"apenetsim/internal/sim"
	"apenetsim/internal/torus"
	"apenetsim/internal/units"
	"apenetsim/internal/v2p"
)

// The coll-* experiments drive application-shaped traffic — halo
// exchanges, allreduces, all-to-alls — over the calibrated card model on
// tori far beyond the paper's 4x2x1 platform, and report where the torus
// saturates via the per-link meters on core.Network.
//
// All payloads live in GPU memory (coll.Config.Buf = core.GPUMem), so
// every transfer crosses the GPU peer-to-peer TX/RX path whose ceilings
// the paper measures; the collectives inherit them.

// collSlot bounds the largest single collective message in experiments.
const collSlot = 4 * units.MB

// shardsFor clamps the -shards request to what a torus can hold, so one
// flag can drive a whole sweep of sizes (coll.NewWorld itself rejects
// over-axis requests).
func (o Options) shardsFor(dims torus.Dims) int {
	if max := coll.MaxShards(dims); o.Shards > max {
		return max
	}
	return o.Shards
}

// collWorld builds a GPU-buffer collective world on its own engine.
func collWorld(o Options, dims torus.Dims) (*sim.Engine, *coll.World) {
	eng := sim.NewWithAccount(o.Account)
	cfg := o.config()
	w, err := coll.NewWorld(eng, coll.Config{
		Dims:      dims,
		Card:      &cfg,
		Buf:       core.GPUMem,
		SlotBytes: collSlot,
		Shards:    o.shardsFor(dims),
		Rec:       o.Rec,
		TS:        o.TS,
	})
	must(err)
	o.traceWorld(dims, dims.Nodes())
	return eng, w
}

// hotspotCells renders the congestion columns shared by the coll-*
// reports: peak link utilization over the run, the busiest directed link,
// and its peak queueing backlog.
func hotspotCells(net *core.Network, now sim.Time) []string {
	hot := net.HotLinks(1)
	if len(hot) == 0 {
		return []string{"0.0", "-", "0.0"}
	}
	h := hot[0]
	return []string{
		f1(100 * h.Utilization(now)),
		h.Name(),
		f1(h.PeakBacklog.Micros()),
	}
}

var (
	hotspotHeader = []string{"peak link util", "hot link", "peak backlog"}
	hotspotUnits  = []string{"%", "", "us"}
)

// collVals gives rank i a small integer-valued vector (exact float sums)
// used to self-check every collective result inside the experiments.
func collVals(i, n int) []float64 {
	v := make([]float64, n)
	for j := range v {
		v[j] = float64(i + j + 1)
	}
	return v
}

func collWant(ranks, n int) []float64 {
	out := make([]float64, n)
	for i := 0; i < ranks; i++ {
		for j, x := range collVals(i, n) {
			out[j] += x
		}
	}
	return out
}

func checkReduced(id string, rank int, got, want []float64) {
	if len(got) != len(want) {
		panic(fmt.Sprintf("%s: rank %d reduced %d values, want %d", id, rank, len(got), len(want)))
	}
	for i := range got {
		if got[i] != want[i] {
			panic(fmt.Sprintf("%s: rank %d allreduce[%d] = %v, want %v", id, rank, i, got[i], want[i]))
		}
	}
}

// haloFaces counts the faces a rank exchanges on dims (degenerate
// dimensions have no neighbor).
func haloFaces(d torus.Dims) int {
	f := 0
	for _, s := range []int{d.X, d.Y, d.Z} {
		if s > 1 {
			f += 2
		}
	}
	return f
}

// worldTLBStats folds every card's translation counters into one
// cluster-wide snapshot.
func worldTLBStats(w *coll.World) v2p.Stats {
	var agg v2p.Stats
	for _, node := range w.Cl.Nodes {
		agg.Add(node.Card.TranslationStats())
	}
	return agg
}

// CollHalo measures the 6-face halo exchange — the HSG boundary pattern —
// across torus sizes and face sizes, with hotspot stats.
func CollHalo(o Options) *Report { return collHalo(o, false) }

// CollHaloTLB is the halo sweep with every card on the hardware RX TLB,
// reporting the cluster-wide hit rate alongside the hotspot stats.
func CollHaloTLB(o Options) *Report {
	o.TLB = true
	return collHalo(o, true)
}

func collHalo(o Options, tlb bool) *Report {
	dimsList := []torus.Dims{{X: 4, Y: 2, Z: 1}, {X: 4, Y: 4, Z: 2}, {X: 4, Y: 4, Z: 4}}
	faceSizes := []units.ByteSize{64 * units.KB, 256 * units.KB}
	iters := 3
	if o.Quick {
		dimsList = dimsList[:2]
		faceSizes = faceSizes[:1]
		iters = 2
	}
	if o.Dims.Valid() {
		dimsList = []torus.Dims{o.Dims}
	}
	var rows [][]string
	var hotLinks []HotLink
	for _, dims := range dimsList {
		n := dims.Nodes()
		for _, face := range faceSizes {
			eng, w := collWorld(o, dims)
			var elapsed sim.Duration
			w.Run(func(p *sim.Proc, r *coll.Rank) {
				vals := collVals(r.ID, 4)
				r.Halo(p, face, vals) // warm-up
				d := r.Timed(p, func() {
					for i := 0; i < iters; i++ {
						r.Halo(p, face, vals)
					}
				})
				if r.ID == 0 {
					elapsed = d
				}
			})
			perIter := elapsed / sim.Duration(iters)
			bytesPerIter := units.ByteSize(n*haloFaces(dims)) * face
			agg := units.Rate(bytesPerIter, perIter)
			row := []string{
				dims.String(), fmt.Sprint(n), face.String(),
				f1(perIter.Micros()),
				f0(agg.MBpsValue() / float64(n)),
				f0(agg.MBpsValue()),
			}
			row = append(row, hotspotCells(w.Net(), eng.Now())...)
			if tlb {
				row = append(row, f1(100*worldTLBStats(w).HitRate()))
			}
			rows = append(rows, row)
			hotLinks = append(hotLinks, o.hotLinks(fmt.Sprintf("%v face=%v", dims, face), w.Net(), eng.Now())...)
			eng.Shutdown()
		}
	}
	id, title := "coll-halo", "Halo exchange over the torus (GPU buffers, 6 faces per rank)"
	header := append([]string{"torus", "cards", "face", "time/iter", "per-rank BW", "aggregate BW"}, hotspotHeader...)
	unitsRow := append([]string{"", "", "", "us", "MB/s", "MB/s"}, hotspotUnits...)
	notes := []string{
		"nearest-neighbor pattern: every message crosses exactly one link, so aggregate bandwidth scales with cards",
		"per-rank BW is capped by the card's GPU RX path, not the wire (cf. table1)",
	}
	if tlb {
		id, title = "coll-halo-tlb", "Halo exchange over the torus (GPU buffers, hardware RX TLB)"
		header = append(header, "TLB hit rate")
		unitsRow = append(unitsRow, "%")
		notes = append(notes, "all cards translate through the 28 nm follow-up's TLB; hit rate is cluster-wide")
	}
	return &Report{ID: id, Title: title, Header: header, Units: unitsRow, Rows: rows, Notes: notes, HotLinks: hotLinks}
}

// CollAllReduce compares the two allreduce algorithms on the same torus:
// a single global ring (bandwidth-optimal on a chain, locality-blind)
// vs dimension-ordered rings (every transfer nearest-neighbor).
func CollAllReduce(o Options) *Report {
	dims := torus.Dims{X: 4, Y: 4, Z: 2}
	sizes := []units.ByteSize{64 * units.KB, 256 * units.KB, 1 * units.MB}
	if o.Quick {
		dims = torus.Dims{X: 2, Y: 2, Z: 2}
		sizes = []units.ByteSize{32 * units.KB, 128 * units.KB}
	}
	if o.Dims.Valid() {
		dims = o.Dims
	}
	n := dims.Nodes()
	const vlen = 16
	want := collWant(n, vlen)
	ringT := make([]sim.Duration, len(sizes))
	dimT := make([]sim.Duration, len(sizes))

	eng, w := collWorld(o, dims)
	w.Run(func(p *sim.Proc, r *coll.Rank) {
		vals := collVals(r.ID, vlen)
		r.AllReduceDims(p, 16*units.KB, vals) // warm-up
		for si, sz := range sizes {
			var res []float64
			d := r.Timed(p, func() { res = r.AllReduceRing(p, sz, vals) })
			checkReduced("coll-allreduce/ring", r.ID, res, want)
			if r.ID == 0 {
				ringT[si] = d
			}
			d = r.Timed(p, func() { res = r.AllReduceDims(p, sz, vals) })
			checkReduced("coll-allreduce/dims", r.ID, res, want)
			if r.ID == 0 {
				dimT[si] = d
			}
		}
	})
	var rows [][]string
	for si, sz := range sizes {
		rows = append(rows, []string{
			sz.String(),
			f1(ringT[si].Micros()), f0(units.Rate(sz, ringT[si]).MBpsValue()),
			f1(dimT[si].Micros()), f0(units.Rate(sz, dimT[si]).MBpsValue()),
		})
	}
	hot := hotspotCells(w.Net(), eng.Now())
	hotLinks := o.hotLinks(dims.String(), w.Net(), eng.Now())
	rep := &Report{ID: "coll-allreduce",
		Title:  fmt.Sprintf("Sum-allreduce on a %v torus (%d cards, GPU buffers)", dims, n),
		Header: []string{"vector", "ring time", "ring rate", "dim-order time", "dim-order rate"},
		Units:  []string{"", "us", "MB/s", "us", "MB/s"},
		Rows:   rows,
		Notes: []string{
			"rate = vector bytes / completion time (effective allreduce rate per rank)",
			"both algorithms verify against the serial reduction every run",
			fmt.Sprintf("hotspot: peak link util %s%%, link %s, peak backlog %s us", hot[0], hot[1], hot[2]),
		},
		HotLinks: hotLinks}
	rep.SetMeta("dims", dims.String())
	rep.SetMeta("cards", fmt.Sprint(n))
	eng.Shutdown()
	return rep
}

// CollAllToAll measures the BFS-style all-to-all, the pattern that pays
// the full average hop count and concentrates load on central links.
func CollAllToAll(o Options) *Report {
	dims := torus.Dims{X: 4, Y: 2, Z: 2}
	sizes := []units.ByteSize{8 * units.KB, 64 * units.KB}
	if o.Quick {
		dims = torus.Dims{X: 2, Y: 2, Z: 2}
		sizes = sizes[:1]
	}
	if o.Dims.Valid() {
		dims = o.Dims
	}
	n := dims.Nodes()
	elapsed := make([]sim.Duration, len(sizes))

	eng, w := collWorld(o, dims)
	w.Run(func(p *sim.Proc, r *coll.Rank) {
		r.AllToAll(p, 4*units.KB, nil) // warm-up
		for si, sz := range sizes {
			d := r.Timed(p, func() { r.AllToAll(p, sz, nil) })
			if r.ID == 0 {
				elapsed[si] = d
			}
		}
	})
	hotLinks := o.hotLinks(dims.String(), w.Net(), eng.Now())
	var rows [][]string
	for si, sz := range sizes {
		total := units.ByteSize(n*(n-1)) * sz
		agg := units.Rate(total, elapsed[si])
		row := []string{
			sz.String(),
			f1(elapsed[si].Micros()),
			f0(agg.MBpsValue() / float64(n)),
			f0(agg.MBpsValue()),
		}
		row = append(row, hotspotCells(w.Net(), eng.Now())...)
		rows = append(rows, row)
	}
	rep := &Report{ID: "coll-a2a",
		Title:  fmt.Sprintf("All-to-all on a %v torus (%d cards, GPU buffers)", dims, n),
		Header: append([]string{"msg/peer", "time", "per-rank BW", "aggregate BW"}, hotspotHeader...),
		Units:  append([]string{"", "us", "MB/s", "MB/s"}, hotspotUnits...),
		Rows:   rows,
		Notes: []string{
			fmt.Sprintf("average route length %.2f hops: each byte occupies that many links, dividing the bisection", dims.AvgHops()),
			"hotspot columns are cumulative over the run (warm-up + all sizes)",
		},
		HotLinks: hotLinks}
	rep.SetMeta("dims", dims.String())
	rep.SetMeta("avg_hops", fmt.Sprintf("%.2f", dims.AvgHops()))
	eng.Shutdown()
	return rep
}

// collLadder is the torus-size ladder coll-scaling climbs.
var collLadder = []torus.Dims{
	{X: 2, Y: 2, Z: 1},
	{X: 2, Y: 2, Z: 2},
	{X: 4, Y: 2, Z: 2},
	{X: 4, Y: 4, Z: 2},
	{X: 4, Y: 4, Z: 4},
	{X: 8, Y: 4, Z: 4},
	{X: 8, Y: 8, Z: 4},
	{X: 8, Y: 8, Z: 8},
}

// collScaleRows is the LQCD-scale tail of the ladder, included only with
// Options.Scale: the sizes the APEnet+ line targets for petaflops-scale
// Lattice QCD machines.
var collScaleRows = []torus.Dims{
	{X: 16, Y: 16, Z: 16},
	{X: 32, Y: 32, Z: 32},
}

// CollScaling sweeps torus size, running one halo exchange and one
// dimension-ordered allreduce per size and reporting achieved bandwidth
// plus where the torus saturates. -dims X,Y,Z extends the ladder up to
// (and including) that size; the default stops at 4x4x4 (64 cards), and
// -scale appends the 16^3 and 32^3 LQCD-scale rows.
func CollScaling(o Options) *Report { return collScaling(o, false) }

// CollScalingTLB is the torus-size ladder with every card on the
// hardware RX TLB — the follow-up architecture at collective scale.
func CollScalingTLB(o Options) *Report {
	o.TLB = true
	return collScaling(o, true)
}

func collScaling(o Options, tlb bool) *Report {
	var dimsList []torus.Dims
	switch {
	case o.Dims.Valid():
		for _, d := range collLadder {
			if d.Nodes() < o.Dims.Nodes() {
				dimsList = append(dimsList, d)
			}
		}
		dimsList = append(dimsList, o.Dims)
	case o.Quick:
		dimsList = collLadder[:3]
	default:
		dimsList = collLadder[:5]
	}
	// The LQCD-scale rows ride on the firmware-walk variant only: the TLB
	// ladder answers a translation question that 512 cards already settle,
	// and a 32^3 row costs tens of millions of events.
	if o.Scale && !o.Dims.Valid() && !tlb {
		dimsList = append(dimsList, collScaleRows...)
	}
	faceBytes := units.ByteSize(64 * units.KB)
	reduceBytes := units.ByteSize(256 * units.KB)
	if o.Quick {
		faceBytes, reduceBytes = 32*units.KB, 64*units.KB
	}
	const vlen = 8

	var rows [][]string
	var hotLinks []HotLink
	for _, dims := range dimsList {
		n := dims.Nodes()
		want := collWant(n, vlen)
		eng, w := collWorld(o, dims)
		var haloT, reduceT sim.Duration
		w.Run(func(p *sim.Proc, r *coll.Rank) {
			vals := collVals(r.ID, vlen)
			r.Halo(p, 8*units.KB, vals) // warm-up
			const haloIters = 2
			d := r.Timed(p, func() {
				for i := 0; i < haloIters; i++ {
					r.Halo(p, faceBytes, vals)
				}
			})
			var res []float64
			d2 := r.Timed(p, func() { res = r.AllReduceDims(p, reduceBytes, vals) })
			checkReduced("coll-scaling", r.ID, res, want)
			if r.ID == 0 {
				haloT = d / haloIters
				reduceT = d2
			}
		})
		haloAgg := units.Rate(units.ByteSize(n*haloFaces(dims))*faceBytes, haloT)
		row := []string{
			dims.String(), fmt.Sprint(n),
			f1(haloT.Micros()), f0(haloAgg.MBpsValue()),
			f1(reduceT.Micros()), f0(units.Rate(reduceBytes, reduceT).MBpsValue()),
		}
		row = append(row, hotspotCells(w.Net(), eng.Now())...)
		if tlb {
			row = append(row, f1(100*worldTLBStats(w).HitRate()))
		}
		rows = append(rows, row)
		hotLinks = append(hotLinks, o.hotLinks(dims.String(), w.Net(), eng.Now())...)
		eng.Shutdown()
	}
	id, title := "coll-scaling", "Collective scaling with torus size (GPU buffers)"
	header := append([]string{"torus", "cards", "halo/iter", "halo agg BW", "allreduce", "allreduce rate"}, hotspotHeader...)
	unitsRow := append([]string{"", "", "us", "MB/s", "us", "MB/s"}, hotspotUnits...)
	notes := []string{
		fmt.Sprintf("halo: %v per face; allreduce: %v vector, dimension-ordered rings", faceBytes, reduceBytes),
		"halo aggregate bandwidth scales ~linearly with cards (nearest-neighbor); allreduce time grows with ring lengths",
	}
	if tlb {
		id, title = "coll-scaling-tlb", "Collective scaling with torus size (GPU buffers, hardware RX TLB)"
		header = append(header, "TLB hit rate")
		unitsRow = append(unitsRow, "%")
		notes = append(notes, "all cards translate through the 28 nm follow-up's TLB; hit rate is cluster-wide")
	}
	rep := &Report{ID: id, Title: title, Header: header, Units: unitsRow, Rows: rows, Notes: notes, HotLinks: hotLinks}
	rep.SetMeta("face_bytes", faceBytes.String())
	rep.SetMeta("reduce_bytes", reduceBytes.String())
	return rep
}
