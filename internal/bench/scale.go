package bench

import (
	"fmt"

	"apenetsim/internal/coll"
	"apenetsim/internal/core"
	"apenetsim/internal/sim"
	"apenetsim/internal/torus"
	"apenetsim/internal/units"
)

// scale-sweep measures the simulator itself at LQCD machine sizes: how
// much discrete-event work a torus-wide collective costs and how much of
// it is in flight at once. The APEnet+ line exists to carry petaflops-
// scale Lattice QCD tori, so the simulator must stay usable at 16^3-32^3
// — this experiment is the regression guard for that.
//
// Per torus size it runs the LQCD inner-loop pattern (halo exchange +
// dimension-ordered allreduce) and reports the executed event count and
// the event-queue high-water mark from a per-size sim.Account. Both are
// deterministic, so the report diffs at 0% tolerance like every other
// experiment; the wall-clock throughput (sim-steps/sec) is deliberately
// NOT a report cell — it is surfaced per experiment in the run JSON
// (steps_per_sec) and the apebench progress output, where
// nondeterminism cannot poison baselines.

// scaleLadder is the default sweep; with Options.Scale the sweep climbs
// scaleLadderFull instead.
var (
	scaleLadder     = []torus.Dims{{X: 4, Y: 4, Z: 4}, {X: 8, Y: 8, Z: 8}}
	scaleLadderFull = []torus.Dims{{X: 8, Y: 8, Z: 8}, {X: 16, Y: 16, Z: 16}, {X: 32, Y: 32, Z: 32}}
)

// ScaleSweep sweeps torus size and reports simulation cost alongside the
// collective timings. -dims X,Y,Z runs exactly that size; -scale climbs
// to 32x32x32 (32,768 cards).
func ScaleSweep(o Options) *Report {
	dimsList := scaleLadder
	if o.Scale {
		dimsList = scaleLadderFull
	}
	if o.Dims.Valid() {
		dimsList = []torus.Dims{o.Dims}
	}
	faceBytes, reduceBytes := units.ByteSize(32*units.KB), units.ByteSize(64*units.KB)
	if o.Quick {
		faceBytes, reduceBytes = 8*units.KB, 16*units.KB
	}
	const vlen = 8

	var rows [][]string
	for _, dims := range dimsList {
		n := dims.Nodes()
		want := collWant(n, vlen)
		// A per-size account isolates this row's event counts; fold it
		// into the experiment's account afterwards so runner totals and
		// steps_per_sec still cover the whole sweep.
		acct := &sim.Account{}
		eng := sim.NewWithAccount(acct)
		cfg := o.config()
		cfg.Account = acct
		w, err := coll.NewWorld(eng, coll.Config{
			Dims:      dims,
			Card:      &cfg,
			Buf:       core.GPUMem,
			SlotBytes: collSlot,
			Shards:    o.shardsFor(dims),
		})
		must(err)
		var haloT, reduceT sim.Duration
		w.Run(func(p *sim.Proc, r *coll.Rank) {
			vals := collVals(r.ID, vlen)
			d := r.Timed(p, func() { r.Halo(p, faceBytes, vals) })
			var res []float64
			d2 := r.Timed(p, func() { res = r.AllReduceDims(p, reduceBytes, vals) })
			checkReduced("scale-sweep", r.ID, res, want)
			if r.ID == 0 {
				haloT, reduceT = d, d2
			}
		})
		eng.Shutdown()
		rows = append(rows, []string{
			dims.String(), fmt.Sprint(n),
			f1(haloT.Micros()), f1(reduceT.Micros()),
			f2(float64(acct.Steps()) / 1e6),
			fmt.Sprint(acct.PeakPending()),
			f0(float64(acct.Steps()) / float64(n)),
		})
		o.Account.AddFrom(acct)
	}
	rep := &Report{
		ID:     "scale-sweep",
		Title:  "Event-engine cost of the LQCD inner loop vs torus size",
		Header: []string{"torus", "cards", "halo", "allreduce", "sim steps", "peak pending", "steps/card"},
		Units:  []string{"", "", "us", "us", "Msteps", "", ""},
		Rows:   rows,
		Notes: []string{
			fmt.Sprintf("halo: %v per face; allreduce: %v vector, dimension-ordered rings (2(k-1) steps per dimension)", faceBytes, reduceBytes),
			"sim steps and peak pending are deterministic; wall-clock steps/sec is in the run JSON (steps_per_sec), not a cell",
		},
	}
	rep.SetMeta("face_bytes", faceBytes.String())
	rep.SetMeta("reduce_bytes", reduceBytes.String())
	return rep
}
