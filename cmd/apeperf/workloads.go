package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"apenetsim/internal/bench"
	"apenetsim/internal/coll"
	"apenetsim/internal/core"
	"apenetsim/internal/route"
	"apenetsim/internal/sim"
	"apenetsim/internal/torus"
	"apenetsim/internal/units"
)

// sample is what one child process measures in one run of a workload.
type sample struct {
	// Entry is when the workload's simulated work began, in Unix
	// nanoseconds: the first rank body on a torus, the first exhibit on
	// paper-quick.
	Entry int64 `json:"entry_unix_nano"`
	// WallS is the host time of the whole workload call.
	WallS  float64            `json:"wall_s"`
	Values map[string]float64 `json:"values"`
	// Outputs are the simulated outputs of each operation; they must
	// repeat exactly across runs.
	Outputs map[string]string `json:"outputs"`
	// Errors maps an operation to the first check it failed.
	Errors  map[string]string    `json:"errors,omitempty"`
	Profile map[string]layerCost `json:"profile,omitempty"`
}

func newSample() *sample {
	return &sample{Values: map[string]float64{}, Outputs: map[string]string{}}
}

func (s *sample) fail(op, format string, args ...any) {
	if s.Errors == nil {
		s.Errors = map[string]string{}
	}
	if _, seen := s.Errors[op]; !seen {
		s.Errors[op] = fmt.Sprintf(format, args...)
	}
}

// workload is one fixed set of inputs the benchmark runs.
type workload struct {
	name string
	// engines is how many sim engines run at once; the child running the
	// workload gets that many Ps (GOMAXPROCS), so a serial run is not
	// slowed by a second P's GC and scheduler churn.
	engines int
	// ops are the operations one run attempts: one per exhibit, or one
	// world run.
	ops []string
	// sameAs names a workload whose simulated outputs this one must
	// reproduce exactly, when both run in one set.
	sameAs string
	// run executes one run, recording into s, and returns the checks of
	// its simulated outputs against the files at the repository root,
	// which run after the timed region.
	run func(seed int64, s *sample) (check func(root string))
}

// worldOp is the operation of the torus workloads: one world run.
const worldOp = "world"

// paperExhibits are the paper's figures and tables, in paper order.
var paperExhibits = []string{
	"fig3", "table1", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
	"table2", "table3", "fig11", "table4", "fig12",
}

// The torus sizes keep one run to a few seconds, so a set of ten or more
// runs fits the benchmark's time budget. 8x8x8 is the largest size whose
// coll-scaling row is committed below 16^3.
var (
	lqcdDims = torus.Dims{X: 8, Y: 8, Z: 8}
	a2aDims  = torus.Dims{X: 8, Y: 4, Z: 4}
)

func defaultWorkloads() []workload {
	sharded := lqcdWorkload("lqcd-8c-2sh", lqcdDims, 2)
	sharded.sameAs = "lqcd-8c"
	return []workload{
		paperWorkload("paper-quick", paperExhibits),
		lqcdWorkload("lqcd-8c", lqcdDims, 1),
		sharded,
		a2aWorkload("a2a-adaptive", a2aDims),
	}
}

// seededExhibits are the only exhibits that read Options.Seed (the
// Kronecker graph of the BFS runs); at any seed other than 0 they have no
// committed reference and are checked for repeatability only.
var seededExhibits = map[string]bool{"table4": true, "fig12": true}

// paperWorkload runs exhibits at -quick through a serial bench.Runner and
// checks each against the newest committed BENCH_20*.json at tolerance 0.
func paperWorkload(name string, ids []string) workload {
	return workload{name: name, engines: 1, ops: ids, run: func(seed int64, s *sample) func(string) {
		var exps []bench.Experiment
		var entry sync.Once
		for _, id := range ids {
			e, ok := bench.Lookup(id)
			if !ok {
				s.fail(id, "unknown experiment %q", id)
				continue
			}
			run := e.Run
			e.Run = func(o bench.Options) *bench.Report {
				entry.Do(func() { s.Entry = time.Now().UnixNano() })
				return run(o)
			}
			exps = append(exps, e)
		}
		acct := &sim.Account{}
		r := &bench.Runner{Parallel: 1, Opts: bench.Options{Quick: true, Seed: seed, Account: acct}}
		cur := r.Run(exps)
		recordAccount(s, acct, 1)
		for _, res := range cur.Results {
			s.Values["bench."+res.ID+"_s"] = res.WallSeconds
			s.Outputs[res.ID] = mustJSON(struct {
				Report   *bench.Report
				SimSteps uint64
			}{res.Report, res.SimSteps})
			if res.Err != "" {
				s.fail(res.ID, "%s", res.Err)
			}
		}
		return func(root string) { checkPaper(root, seed, cur, s) }
	}}
}

func checkPaper(root string, seed int64, cur *bench.Run, s *sample) {
	paths, err := filepath.Glob(filepath.Join(root, "BENCH_20*.json"))
	if err == nil && len(paths) == 0 {
		err = fmt.Errorf("no BENCH_20*.json in %s", root)
	}
	var base *bench.Run
	if err == nil {
		sort.Strings(paths) // date-stamped names: the last is the newest
		base, err = bench.LoadRun(paths[len(paths)-1])
	}
	for _, res := range cur.Results {
		if seed != 0 && seededExhibits[res.ID] {
			continue
		}
		if err != nil {
			s.fail(res.ID, "loading the baseline: %v", err)
			continue
		}
		ref := base.Result(res.ID)
		if ref == nil {
			s.fail(res.ID, "%s has no %s result", filepath.Base(paths[len(paths)-1]), res.ID)
			continue
		}
		// Every delta fails, improvements and neutral ones included: the
		// simulator is deterministic, so any moved cell is a behaviour change.
		d := bench.CompareRuns(&bench.Run{Results: []bench.Result{res}}, &bench.Run{Results: []bench.Result{*ref}}, 0)
		if len(d.MissingInCurrent)+len(d.NewInCurrent)+len(d.ShapeChanged)+
			len(d.Regressions)+len(d.Improvements)+len(d.Neutral) > 0 {
			s.fail(res.ID, "differs from %s: %s", filepath.Base(paths[len(paths)-1]),
				strings.Join(strings.Fields(d.Render()), " "))
		}
	}
}

// The coll-scaling -quick row the lqcd workloads rebuild: an 8 KB warm-up
// halo, two timed 32 KB halos, then a timed 64 KB dimension-ordered
// allreduce of an 8-value vector, on GPU buffers.
const (
	lqcdWarmup = 8 * units.KB
	lqcdFace   = 32 * units.KB
	lqcdReduce = 64 * units.KB
	lqcdHalos  = 2
	lqcdVlen   = 8
	slotBytes  = 4 * units.MB
)

// lqcdVals is a rank's vector: small integers, so sums are exact, shifted
// by the seed.
func lqcdVals(seed int64, rank int) []float64 {
	off := int((seed%1024 + 1024) % 1024)
	v := make([]float64, lqcdVlen)
	for j := range v {
		v[j] = float64(off + rank + j + 1)
	}
	return v
}

// lqcdWorkload runs the lattice-QCD inner loop (halo exchange plus
// allreduce) on dims with dimension-ordered routing, serially or on a
// sharded sim.Group, and checks it against the committed coll-scaling row.
func lqcdWorkload(name string, dims torus.Dims, shards int) workload {
	return workload{name: name, engines: shards, ops: []string{worldOp}, run: func(seed int64, s *sample) func(string) {
		n := dims.Nodes()
		want := make([]float64, lqcdVlen)
		for i := 0; i < n; i++ {
			for j, x := range lqcdVals(seed, i) {
				want[j] += x
			}
		}
		reduced := make([][]float64, n)
		halos := make([]map[torus.Dir]coll.Msg, n)
		var haloT, reduceT sim.Duration
		card := core.DefaultConfig()
		wr, err := runWorld(s, coll.Config{Dims: dims, Card: &card, Buf: core.GPUMem, SlotBytes: slotBytes, Shards: shards},
			func(p *sim.Proc, r *coll.Rank) {
				vals := lqcdVals(seed, r.ID)
				r.Halo(p, lqcdWarmup, vals)
				d := r.Timed(p, func() {
					for i := 0; i < lqcdHalos; i++ {
						halos[r.ID] = r.Halo(p, lqcdFace, vals)
					}
				})
				var res []float64
				d2 := r.Timed(p, func() { res = r.AllReduceDims(p, lqcdReduce, vals) })
				reduced[r.ID] = res
				if r.ID == 0 {
					haloT, reduceT = d/lqcdHalos, d2
				}
			})
		if err != nil {
			s.fail(worldOp, "%v", err)
			return nil
		}
		faces := 0
		for _, k := range []int{dims.X, dims.Y, dims.Z} {
			if k > 1 {
				faces += 2
			}
		}
		row := append([]string{
			dims.String(), fmt.Sprint(n),
			f1(haloT.Micros()), f0(units.Rate(units.ByteSize(n*faces)*lqcdFace, haloT).MBpsValue()),
			f1(reduceT.Micros()), f0(units.Rate(lqcdReduce, reduceT).MBpsValue()),
		}, wr.hotCells()...)
		s.Outputs[worldOp] = wr.output(row)
		return func(root string) {
			for rank := 0; rank < n; rank++ {
				if !slices.Equal(reduced[rank], want) {
					s.fail(worldOp, "rank %d allreduce = %v, want %v", rank, reduced[rank], want)
					return
				}
				c := dims.CoordOf(rank)
				for dir, m := range halos[rank] {
					if peer := dims.Rank(dims.Neighbor(c, dir)); !slices.Equal(m.Vals, lqcdVals(seed, peer)) {
						s.fail(worldOp, "rank %d halo from %v carries %v, want rank %d's vector", rank, dir, m.Vals, peer)
						return
					}
				}
			}
			// Nearest-neighbour traffic: every packet crosses exactly one link.
			if wr.hops != wr.tx || wr.rx != wr.tx {
				s.fail(worldOp, "hop bookings %d, TX packets %d, RX packets %d: want all equal", wr.hops, wr.tx, wr.rx)
			}
			want, err := anchorRow(root, dims)
			if err != nil {
				s.fail(worldOp, "%v", err)
			} else if !slices.Equal(row, want) {
				s.fail(worldOp, "coll-scaling row %q, committed %q", row, want)
			}
		}
	}}
}

// anchorRow returns the committed coll-scaling row for dims.
func anchorRow(root string, dims torus.Dims) ([]string, error) {
	const file = "BENCH_SHARD_16CUBE.json"
	run, err := bench.LoadRun(filepath.Join(root, file))
	if err != nil {
		return nil, err
	}
	if res := run.Result("coll-scaling"); res != nil && res.Report != nil {
		for _, row := range res.Report.Rows {
			if len(row) > 0 && row[0] == dims.String() {
				return row, nil
			}
		}
	}
	return nil, fmt.Errorf("%s has no coll-scaling row for %v", file, dims)
}

// a2aSizes are the per-peer message sizes of the a2a workload, in order.
var a2aSizes = []units.ByteSize{8 * units.KB, 32 * units.KB}

// a2aWorkload runs all-to-all over host buffers on 20 Gbps links with the
// adaptive minimal router (the route-* configuration) and checks that every
// hop is booked once and every packet delivered.
func a2aWorkload(name string, dims torus.Dims) workload {
	return workload{name: name, engines: 1, ops: []string{worldOp}, run: func(seed int64, s *sample) func(string) {
		n := dims.Nodes()
		card := core.DefaultConfig()
		card.LinkBandwidth = units.Gbps(20)
		card.Routing = route.Config{Mode: route.ModeAdaptive, Seed: seed}
		times := make([]sim.Duration, len(a2aSizes))
		missing := make([]int, n)
		wr, err := runWorld(s, coll.Config{Dims: dims, Card: &card, SlotBytes: slotBytes},
			func(p *sim.Proc, r *coll.Rank) {
				for i, size := range a2aSizes {
					var got []coll.Msg
					d := r.Timed(p, func() { got = r.AllToAll(p, size, nil) })
					for src, m := range got {
						if src != r.ID && m.Src != src {
							missing[r.ID]++
						}
					}
					if r.ID == 0 {
						times[i] = d
					}
				}
			})
		if err != nil {
			s.fail(worldOp, "%v", err)
			return nil
		}
		var row []string
		for _, d := range times {
			row = append(row, f1(d.Micros()))
		}
		s.Outputs[worldOp] = wr.output(append(row, wr.hotCells()...))
		return func(string) {
			for rank, m := range missing {
				if m > 0 {
					s.fail(worldOp, "rank %d missed %d all-to-all messages", rank, m)
					return
				}
			}
			// Minimal routes: each packet books exactly its pair's hop count.
			var want int64
			for a := 0; a < n; a++ {
				for b := 0; b < n; b++ {
					hops := int64(dims.HopCount(dims.CoordOf(a), dims.CoordOf(b)))
					for _, size := range a2aSizes {
						want += hops * int64((size+card.MaxPayload-1)/card.MaxPayload)
					}
				}
			}
			if wr.hops != want || wr.route.Decisions != want {
				s.fail(worldOp, "hop bookings %d, router decisions %d, want %d", wr.hops, wr.route.Decisions, want)
			}
			if wr.rx != wr.tx {
				s.fail(worldOp, "RX packets %d, TX packets %d", wr.rx, wr.tx)
			}
		}
	}}
}

// worldRun is what runWorld observed of one collective world.
type worldRun struct {
	events                  uint64
	hops, wireBytes, tx, rx int64
	route                   route.Stats
	hot                     []core.LinkStat // the busiest link, if any
	now                     sim.Time
}

// runWorld builds a world, runs body on every rank, and records the sim,
// core, route and coll measurements into s. Entry and sim.procs are taken
// when the first rank body starts: procs launched, buffers registered,
// first barrier passed.
func runWorld(s *sample, cfg coll.Config, body func(p *sim.Proc, r *coll.Rank)) (worldRun, error) {
	acct := &sim.Account{}
	card := *cfg.Card
	card.Account = acct
	cfg.Card = &card
	eng := sim.NewWithAccount(acct)
	baseline := runtime.NumGoroutine()
	t0 := time.Now()
	w, err := coll.NewWorld(eng, cfg)
	if err != nil {
		return worldRun{}, err
	}
	t1 := time.Now()
	var entry sync.Once
	w.Run(func(p *sim.Proc, r *coll.Rank) {
		entry.Do(func() {
			s.Entry = time.Now().UnixNano()
			s.Values["sim.procs"] = float64(runtime.NumGoroutine() - baseline)
		})
		body(p, r)
	})
	t2 := time.Now()
	wr := worldRun{now: eng.Now(), route: w.Net().Router().Stats(), hot: w.Net().HotLinks(1)}
	for _, l := range w.Net().LinkStats() {
		wr.hops += l.Packets
		wr.wireBytes += l.WireBytes
	}
	for _, node := range w.Cl.Nodes {
		st := node.Card.Stats()
		wr.tx += st.TXPackets
		wr.rx += st.RXPackets
	}
	eng.Shutdown()
	t3 := time.Now()
	wr.events = acct.Steps()
	recordAccount(s, acct, w.Shards())
	for k, v := range map[string]float64{
		"core.hop_bookings": float64(wr.hops),
		"core.wire_mib":     float64(wr.wireBytes) / mib,
		"core.tx_packets":   float64(wr.tx),
		"core.rx_packets":   float64(wr.rx),
		"route.decisions":   float64(wr.route.Decisions),
		"route.deviations":  float64(wr.route.Deviations),
		"route.escapes":     float64(wr.route.Escapes),
		"coll.newworld_s":   t1.Sub(t0).Seconds(),
		"coll.run_s":        t2.Sub(t1).Seconds(),
		"coll.teardown_s":   t3.Sub(t2).Seconds(),
	} {
		s.Values[k] = v
	}
	return wr, nil
}

// hotCells renders the busiest link as coll-scaling does: peak
// utilization, its name, and its peak backlog.
func (wr worldRun) hotCells() []string {
	if len(wr.hot) == 0 {
		return []string{"0.0", "-", "0.0"}
	}
	h := wr.hot[0]
	return []string{f1(100 * h.Utilization(wr.now)), h.Name(), f1(h.PeakBacklog.Micros())}
}

// output is the world's simulated result: the report row plus the work
// counts that must not depend on how many engines ran it.
func (wr worldRun) output(row []string) string {
	return mustJSON(struct {
		Row                []string
		Events             uint64
		Hops, Wire, TX, RX int64
		Route              route.Stats
	}{row, wr.events, wr.hops, wr.wireBytes, wr.tx, wr.rx, wr.route})
}

// recordAccount copies an account's engine counts into s; shards is the
// number of engines a group ran at once (1 when serial).
func recordAccount(s *sample, acct *sim.Account, shards int) {
	rounds, busy := acct.ShardRounds()
	s.Values["sim.events"] = float64(acct.Steps())
	s.Values["sim.peak_pending"] = float64(acct.PeakPending())
	s.Values["sim.engines"] = float64(acct.Engines())
	s.Values["sim.shard_rounds"] = float64(rounds)
	s.Values["sim.shard_busy_rounds"] = float64(busy)
	s.Values["sim.shard_occupancy"] = 0
	if rounds > 0 {
		s.Values["sim.shard_occupancy"] = float64(busy) / float64(rounds*uint64(shards))
	}
}

const mib = 1 << 20

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain data is marshalled here
	}
	return string(b)
}

func f0(v float64) string { return fmt.Sprintf("%.0f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
