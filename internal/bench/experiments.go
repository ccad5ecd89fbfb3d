package bench

import (
	"fmt"
	"sort"

	"apenetsim/internal/bfs"
	"apenetsim/internal/cluster"
	"apenetsim/internal/core"
	"apenetsim/internal/gpu"
	"apenetsim/internal/graph"
	"apenetsim/internal/hsg"
	"apenetsim/internal/mpigpu"
	"apenetsim/internal/rdma"
	"apenetsim/internal/route"
	"apenetsim/internal/sim"
	"apenetsim/internal/timeseries"
	"apenetsim/internal/torus"
	"apenetsim/internal/trace"
	"apenetsim/internal/units"
	"apenetsim/internal/v2p"
)

// Options tune experiment cost and carry the runner's per-experiment
// context (seed, sim-cost accounting).
type Options struct {
	// Quick reduces sweep densities and application problem sizes.
	Quick bool
	// Seed overrides an experiment's default RNG seed; 0 keeps the paper
	// defaults. The Runner derives a distinct deterministic value per
	// experiment from its base seed (see DeriveSeed).
	Seed int64
	// Dims, when valid, overrides the torus dimensions of experiments
	// that sweep cluster size (the coll-* family); the zero value keeps
	// each experiment's defaults. Set from apebench's -dims flag.
	Dims torus.Dims
	// TLB switches every card built by the experiments to the hardware
	// RX TLB (the 28 nm follow-up's translation path) instead of the
	// firmware V2P walk. Set from apebench's -tlb flag and recorded in
	// the run JSON; experiments that compare both paths explicitly
	// (rx-tlb, rx-translation-ablation) ignore it.
	TLB bool
	// Router switches every torus built by the experiments to the given
	// routing engine (see internal/route); the zero value keeps the
	// paper's dimension-ordered router. Set from apebench's -router flag
	// and recorded in the run JSON; the routing experiments (route-* and
	// coll-a2a-adaptive) compare routers explicitly and ignore it, and
	// get-degraded always runs the fault-aware router its scenario needs.
	Router route.Mode
	// Scale includes the LQCD-scale torus sizes — 16x16x16 (4,096 cards)
	// and 32x32x32 (32,768 cards) — in the experiments that sweep cluster
	// size: coll-scaling gains the two ladder rows and scale-sweep climbs
	// its full ladder. Off by default because a 32^3 row simulates tens of
	// millions of events; set from apebench's -scale flag and recorded in
	// the run JSON.
	Scale bool
	// Shards, when >1, runs the collective-world experiments (coll-*,
	// route-* and scale-sweep) sharded under every router: the torus is
	// sliced into that many slabs, each on its own event engine, executed
	// in parallel under the conservative protocol of sim.Group (see
	// coll.Config.Shards). The results are pinned bit-identical across
	// shard counts by TestShardedEquivalence. Set from apebench's -shards
	// flag and recorded in the run JSON.
	Shards int
	// HotLinks, when positive, makes the experiments that drive collective
	// torus traffic (the coll-* and route-* families) record their top-N
	// congested links into the report (apebench -hotlinks); zero keeps
	// reports byte-identical to earlier runs. The two-node and loop-back
	// experiments have no interesting link contention and ignore it.
	HotLinks int
	// Account, when non-nil, aggregates engine and executed-event counts
	// from every simulation the experiment builds.
	Account *sim.Account
	// Rec, when non-nil, is a per-experiment trace recorder in
	// stage-capture mode, set by the Runner when apebench -trace-out is
	// given. The experiments that build traceable worlds (the coll-*,
	// route-* and op-breakdown families) thread it into their worlds;
	// recording is strictly off the Report path — no cell changes when a
	// recorder is attached — and composes with Shards: sharded worlds
	// capture into per-shard buffers and merge them canonically after the
	// run (see coll.Config.Rec).
	Rec *trace.Recorder
	// TS, when non-nil, samples run telemetry (link utilization, queue
	// backlog, outstanding ops, TLB hit rate, per-shard occupancy) from
	// the collective worlds into interval time series, set by the Runner
	// alongside Rec so traced runs also carry a telemetry section in
	// their capture files. Off the Report path like Rec; the sampled
	// series differ between shard counts (samples are taken at round
	// barriers — see coll.Config.TS).
	TS *timeseries.Set
}

// traceWorld marks a world boundary in the stage-capture trace (dims
// drive the renderer's detour detection) — a no-op off stage capture.
func (o Options) traceWorld(dims torus.Dims, n int) {
	if o.Rec.Stages() {
		o.Rec.Emit(0, "coll", "world", int64(n), dims.String())
	}
}

// traceLinks snapshots the network's link counters into the trace at the
// end of a traced experiment — a no-op off stage capture.
func (o Options) traceLinks(net *core.Network) {
	if o.Rec.Stages() {
		net.TraceLinkStats(o.Rec)
	}
}

// SeedOr returns o.Seed, or def when no seed override is set.
func (o Options) SeedOr(def int64) int64 {
	if o.Seed != 0 {
		return o.Seed
	}
	return def
}

// config returns the calibrated card configuration wired to the
// experiment's accounting.
func (o Options) config() core.Config {
	cfg := core.DefaultConfig()
	cfg.Account = o.Account
	if o.TLB {
		cfg.Translation = v2p.Config{Mode: v2p.ModeTLB}
	}
	if o.Router != route.ModeDimensionOrder {
		cfg.Routing = route.Config{Mode: o.Router, Seed: o.Seed}
	}
	return cfg
}

// Experiment is a runnable reproduction of one paper table or figure.
type Experiment struct {
	ID    string
	Title string
	// Exhibit names the paper table/figure the experiment regenerates, or
	// the rationale class for work beyond the paper ("ablation",
	// "collective"). It keeps `apebench -list` and docs/EXPERIMENTS.md
	// from drifting apart.
	Exhibit string
	Run     func(Options) *Report
}

// All returns every experiment in paper order, plus the ablations and
// the collective workloads.
func All() []Experiment {
	return []Experiment{
		{"fig3", "PCIe timing of a GPU P2P transmission (bus analyzer)", "Fig. 3", Fig3},
		{"table1", "APEnet+ low-level loop-back bandwidths", "Table I", Table1},
		{"fig4", "GPU memory read bandwidth vs message size (flush mode)", "Fig. 4", Fig4},
		{"fig5", "G-G loop-back bandwidth vs message size", "Fig. 5", Fig5},
		{"fig6", "Two-node uni-directional bandwidth, four buffer combinations", "Fig. 6", Fig6},
		{"fig7", "G-G bandwidth: P2P vs staging vs IB/MVAPICH2", "Fig. 7", Fig7},
		{"fig8", "Latency (half round-trip), four buffer combinations", "Fig. 8", Fig8},
		{"fig9", "G-G latency: P2P vs staging vs IB/MVAPICH2", "Fig. 9", Fig9},
		{"fig10", "Host overhead (LogP o) vs message size", "Fig. 10", Fig10},
		{"table2", "HSG strong scaling, L=256, P2P=ON", "Table II", Table2},
		{"table3", "HSG two-node breakdown: P2P modes and MPI/IB", "Table III", Table3},
		{"fig11", "HSG speedup for L=128/256/512 x P2P modes", "Fig. 11", Fig11},
		{"table4", "BFS TEPS strong scaling, |V|=2^20: APEnet+ vs IB", "Table IV", Table4},
		{"fig12", "BFS per-task execution breakdown at NP=4", "Fig. 12", Fig12},
		{"abl-buflist", "Ablation: RX latency vs registered-buffer count", "ablation", AblBufList},
		{"abl-nios", "Ablation: loop-back bandwidth vs Nios II clock", "ablation", AblNiosClock},
		{"abl-link", "Ablation: two-node bandwidth vs torus link speed", "ablation", AblLink},
		{"abl-bar1tx", "Ablation: Kepler TX method (P2P vs BAR1)", "ablation", AblKeplerTX},
		{"abl-window", "Ablation: prefetch window beyond the paper's range", "ablation", AblWindow},
		{"rx-tlb", "RX translation: firmware V2P walk vs hardware TLB geometries", "28nm follow-up", RXTLB},
		{"rx-translation-ablation", "RX ceiling vs registered buffers: firmware walk vs TLB", "28nm follow-up", RXTranslationAblation},
		{"coll-halo", "Halo exchange bandwidth across torus sizes", "collective", CollHalo},
		{"coll-allreduce", "Allreduce: ring vs dimension-order algorithms", "collective", CollAllReduce},
		{"coll-a2a", "All-to-all bandwidth and torus hotspots", "collective", CollAllToAll},
		{"coll-scaling", "Collective scaling up to 8x8x8 (512 cards; 32x32x32 with -scale)", "collective", CollScaling},
		{"coll-halo-tlb", "Halo exchange with the hardware RX TLB", "28nm follow-up", CollHaloTLB},
		{"coll-scaling-tlb", "Collective scaling with the hardware RX TLB", "28nm follow-up", CollScalingTLB},
		{"route-hotspot", "Adaptive vs dimension-order routing under a transpose hotspot", "routing", RouteHotspot},
		{"route-degraded", "Allreduce on a degrading torus: fault-aware routing around dead links", "routing", RouteDegraded},
		{"coll-a2a-adaptive", "All-to-all hot-link spread: dimension-order vs adaptive", "routing", CollAllToAllAdaptive},
		{"scale-sweep", "Event-engine throughput across LQCD-scale tori", "scaling", ScaleSweep},
		{"get-lat", "GET round trip vs PUT latency across buffer paths", "rdma-get", GetLat},
		{"get-bw", "Pipelined GET bandwidth vs outstanding-request window", "rdma-get", GetBW},
		{"get-degraded", "GETs over cut cables: request vs reply detours, isolated responder refused", "rdma-get", GetDegraded},
		{"op-breakdown", "Per-op pipeline stage percentiles from stage-capture traces", "observability", OpBreakdown},
	}
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

func sweepSizes(o Options, lo, hi units.ByteSize) []units.ByteSize {
	sizes := units.PowersOfTwo(lo, hi)
	if o.Quick {
		var out []units.ByteSize
		for i, s := range sizes {
			if i%2 == 0 || i == len(sizes)-1 {
				out = append(out, s)
			}
		}
		return out
	}
	return sizes
}

// Fig3 replays the paper's bus-analyzer capture: successive transmission
// of a GPU buffer, reporting the engine overhead, the request-to-first-
// data head latency, and the data streaming time for 1 MB.
func Fig3(o Options) *Report {
	eng := sim.NewWithAccount(o.Account)
	defer eng.Shutdown()
	cfg := o.config()
	cfg.FlushAtSwitch = true
	cfg.TXVersion = 2
	cfg.PrefetchWindow = 32 * units.KB
	rec := trace.New()
	cl, err := cluster.SingleNode(eng, rec, cfg, gpu.Fermi2050())
	must(err)
	node := cl.Nodes[0]
	ep := rdma.NewEndpoint(node.Card)
	var submitted sim.Time
	eng.Go("fig3", func(p *sim.Proc) {
		src, err := ep.NewGPUBuffer(p, node.GPU(0), 1*units.MB)
		must(err)
		submitted = p.Now()
		_, err = ep.Put(p, 0, src.Addr, src, 0, 1*units.MB, rdma.PutFlags{})
		must(err)
		ep.WaitSend(p)
	})
	eng.Run()

	firstData, _ := rec.First("node0.apenet", "write")
	lastFetch, _ := rec.Last("ape0.gputx", "fetch_done")
	engineOverhead := firstData.T.Sub(submitted) - node.GPU(0).Spec.P2PReadHeadLatency
	dataTime := lastFetch.T.Sub(firstData.T)

	rep := &Report{
		ID:     "fig3",
		Title:  "PCIe timing of GPU P2P transmission, 1 MB, GPU_P2P_TX v2 window=32K",
		Header: []string{"transaction", "measured", "paper"},
		Rows: [][]string{
			{"engine overhead before first request (1->2)", engineOverhead.String(), "~3us"},
			{"read request to first data (2->3)", node.GPU(0).Spec.P2PReadHeadLatency.String(), "1.8us"},
			{"data streaming, 1 MB (3->4)", dataTime.String(), "663us (1536 MB/s)"},
		},
		Notes: []string{"trace events: " + fmt.Sprint(rec.Len())},
	}
	rep.SetMeta("gpu", "Fermi C2050")
	rep.SetMeta("txversion", "2")
	rep.SetMeta("window", (32 * units.KB).String())
	return rep
}

// Table1 regenerates the low-level bandwidth table.
func Table1(o Options) *Report {
	cfg := o.config()
	msg := units.ByteSize(1 * units.MB)
	rows := [][]string{}
	add := func(test string, bw units.Bandwidth, gm, tasks, paper string) {
		rows = append(rows, []string{test, f0(bw.MBpsValue()), gm, tasks, paper})
	}
	add("Host mem read", MemReadBW(cfg, gpu.Fermi2050(), core.HostMem, core.MethodP2P, msg), "-", "none", "2400")
	add("GPU mem read", MemReadBW(cfg, gpu.Fermi2050(), core.GPUMem, core.MethodP2P, msg), "Fermi/P2P", "GPU_P2P_TX", "1500")
	add("GPU mem read", MemReadBW(cfg, gpu.Fermi2050(), core.GPUMem, core.MethodBAR1, msg), "Fermi/BAR1", "GPU_P2P_TX", "150")
	add("GPU mem read", MemReadBW(cfg, gpu.KeplerK20(), core.GPUMem, core.MethodP2P, msg), "Kepler/P2P", "GPU_P2P_TX", "1600")
	add("GPU mem read", MemReadBW(cfg, gpu.KeplerK20(), core.GPUMem, core.MethodBAR1, msg), "Kepler/BAR1", "GPU_P2P_TX", "1600")
	add("GPU-to-GPU loop-back", LoopbackBW(cfg, gpu.Fermi2050(), core.GPUMem, core.GPUMem, msg), "Fermi/P2P", "GPU_P2P_TX + RX", "1100")
	add("Host-to-Host loop-back", LoopbackBW(cfg, gpu.Fermi2050(), core.HostMem, core.HostMem, msg), "-", "RX", "1200")
	return &Report{
		ID:     "table1",
		Title:  "APEnet+ low-level bandwidths (single-board loop-back)",
		Header: []string{"test", "measured", "GPU/method", "Nios II active tasks", "paper"},
		Units:  []string{"", "MB/s", "", "", "MB/s"},
		Rows:   rows,
	}
}

func gputxConfigs() []struct {
	label  string
	ver    int
	window units.ByteSize
} {
	return []struct {
		label  string
		ver    int
		window units.ByteSize
	}{
		{"v1", 1, 0},
		{"v2 window=4K", 2, 4 * units.KB},
		{"v2 window=8K", 2, 8 * units.KB},
		{"v2 window=16K", 2, 16 * units.KB},
		{"v2 window=32K", 2, 32 * units.KB},
		{"v3 window=64K", 3, 64 * units.KB},
		{"v3 window=128K", 3, 128 * units.KB},
	}
}

// Fig4 sweeps GPU read bandwidth over message size for every engine
// generation and window (flush mode).
func Fig4(o Options) *Report {
	return gputxSweep(o, "fig4", "GPU read bandwidth (flush at switch), MB/s", true)
}

// Fig5 is the same sweep for the full G-G loop-back.
func Fig5(o Options) *Report {
	return gputxSweep(o, "fig5", "G-G loop-back bandwidth, MB/s", false)
}

func gputxSweep(o Options, id, title string, flush bool) *Report {
	sizes := sweepSizes(o, 4*units.KB, 4*units.MB)
	header := []string{"msg"}
	unitsRow := []string{""}
	for _, c := range gputxConfigs() {
		header = append(header, c.label)
		unitsRow = append(unitsRow, "MB/s")
	}
	var rows [][]string
	for _, msg := range sizes {
		row := []string{msg.String()}
		for _, c := range gputxConfigs() {
			cfg := o.config()
			cfg.TXVersion = c.ver
			if c.window > 0 {
				cfg.PrefetchWindow = c.window
			}
			var bw units.Bandwidth
			if flush {
				bw = MemReadBW(cfg, gpu.Fermi2050(), core.GPUMem, core.MethodP2P, msg)
			} else {
				bw = LoopbackBW(cfg, gpu.Fermi2050(), core.GPUMem, core.GPUMem, msg)
			}
			row = append(row, f0(bw.MBpsValue()))
		}
		rows = append(rows, row)
	}
	rep := &Report{ID: id, Title: title, Header: header, Units: unitsRow, Rows: rows,
		Notes: []string{"paper: v1 caps ~600; v2 grows with window to ~1.5 GB/s; v3 best"}}
	rep.SetMeta("gpu", "Fermi C2050")
	return rep
}

// Fig6 sweeps the four source/destination combinations between two nodes.
func Fig6(o Options) *Report {
	sizes := sweepSizes(o, 32, 4*units.MB)
	cfg := o.config()
	combos := []struct {
		label    string
		src, dst core.MemKind
	}{
		{"H-H", core.HostMem, core.HostMem},
		{"H-G", core.HostMem, core.GPUMem},
		{"G-H", core.GPUMem, core.HostMem},
		{"G-G", core.GPUMem, core.GPUMem},
	}
	header := []string{"msg"}
	unitsRow := []string{""}
	for _, c := range combos {
		header = append(header, c.label)
		unitsRow = append(unitsRow, "MB/s")
	}
	var rows [][]string
	for _, msg := range sizes {
		row := []string{msg.String()}
		for _, c := range combos {
			row = append(row, f0(TwoNodeBW(cfg, c.src, c.dst, msg).MBpsValue()))
		}
		rows = append(rows, row)
	}
	return &Report{ID: "fig6", Title: "Two-node uni-directional bandwidth, MB/s",
		Header: header, Units: unitsRow, Rows: rows,
		Notes: []string{"paper: host-source curves plateau at 1.2 GB/s; GPU-source curves reach plateau only beyond 32K"}}
}

// Fig7 compares G-G methods: P2P, staging, IB/MVAPICH2.
func Fig7(o Options) *Report {
	sizes := sweepSizes(o, 32, 4*units.MB)
	cfg := o.config()
	var rows [][]string
	for _, msg := range sizes {
		rows = append(rows, []string{
			msg.String(),
			f0(TwoNodeBW(cfg, core.GPUMem, core.GPUMem, msg).MBpsValue()),
			f0(StagedTwoNodeBW(cfg, msg).MBpsValue()),
			f0(IBTwoNodeBW(o.Account, 8, mpigpu.MVAPICH2(), msg).MBpsValue()),
		})
	}
	return &Report{ID: "fig7", Title: "G-G bandwidth by method, MB/s",
		Header: []string{"msg", "APEnet+ P2P=ON", "APEnet+ P2P=OFF (staging)", "IB MVAPICH2"},
		Units:  []string{"", "MB/s", "MB/s", "MB/s"},
		Rows:   rows,
		Notes:  []string{"paper: P2P wins up to 32K; staging better beyond; IB wins at large sizes"}}
}

// Fig8 sweeps ping-pong latency for the four buffer combinations.
func Fig8(o Options) *Report {
	sizes := sweepSizes(o, 32, 4*units.KB)
	cfg := o.config()
	iters := 100
	if o.Quick {
		iters = 40
	}
	combos := []struct {
		label    string
		src, dst core.MemKind
	}{
		{"H-H", core.HostMem, core.HostMem},
		{"H-G", core.HostMem, core.GPUMem},
		{"G-H", core.GPUMem, core.HostMem},
		{"G-G", core.GPUMem, core.GPUMem},
	}
	header := []string{"msg"}
	unitsRow := []string{""}
	for _, c := range combos {
		header = append(header, c.label)
		unitsRow = append(unitsRow, "us")
	}
	var rows [][]string
	for _, msg := range sizes {
		row := []string{msg.String()}
		for _, c := range combos {
			row = append(row, f1(TwoNodeLatency(cfg, c.src, c.dst, msg, iters).Micros()))
		}
		rows = append(rows, row)
	}
	return &Report{ID: "fig8", Title: "Half round-trip latency, us",
		Header: header, Units: unitsRow, Rows: rows,
		Notes: []string{"paper: H-H 6.3 us, G-G 8.2 us at small sizes"}}
}

// Fig9 compares G-G latency across methods.
func Fig9(o Options) *Report {
	sizes := sweepSizes(o, 32, 64*units.KB)
	cfg := o.config()
	iters := 60
	if o.Quick {
		iters = 24
	}
	var rows [][]string
	for _, msg := range sizes {
		rows = append(rows, []string{
			msg.String(),
			f1(TwoNodeLatency(cfg, core.GPUMem, core.GPUMem, msg, iters).Micros()),
			f1(StagedTwoNodeLatency(cfg, msg, iters).Micros()),
			f1(IBTwoNodeLatency(o.Account, 8, mpigpu.MVAPICH2(), msg, iters).Micros()),
		})
	}
	return &Report{ID: "fig9", Title: "G-G latency by method, us",
		Header: []string{"msg", "APEnet+ P2P=ON", "APEnet+ P2P=OFF", "IB MVAPICH2"},
		Units:  []string{"", "us", "us", "us"},
		Rows:   rows,
		Notes:  []string{"paper: 8.2 vs 16.8 vs 17.4 us at small sizes — P2P halves staging latency"}}
}

// Fig10 reports the sender-side per-message time (LogP o).
func Fig10(o Options) *Report {
	sizes := sweepSizes(o, 32, 4*units.KB)
	cfg := o.config()
	var rows [][]string
	for _, msg := range sizes {
		rows = append(rows, []string{
			msg.String(),
			f1(HostOverhead(cfg, core.HostMem, core.HostMem, msg, false).Micros()),
			f1(HostOverhead(cfg, core.GPUMem, core.GPUMem, msg, false).Micros()),
			f1(HostOverhead(cfg, core.GPUMem, core.GPUMem, msg, true).Micros()),
		})
	}
	return &Report{ID: "fig10", Title: "Host overhead per message, us",
		Header: []string{"msg", "H-H", "G-G P2P=ON", "G-G P2P=OFF"},
		Units:  []string{"", "us", "us", "us"},
		Rows:   rows,
		Notes:  []string{"paper: ~5 us H-H, ~8 us G-G, ~17 us staged"}}
}

// Table2 regenerates the HSG strong-scaling table at L=256.
func Table2(o Options) *Report {
	sweeps := 8
	if o.Quick {
		sweeps = 3
	}
	paper := map[int][3]string{
		1: {"921", "11", "n.a."},
		2: {"416", "108", "97"},
		4: {"202", "119", "113"},
		8: {"148", "148", "141"},
	}
	var rows [][]string
	for _, np := range []int{1, 2, 4, 8} {
		r, err := hsg.Run(hsg.Config{L: 256, NP: np, Sweeps: sweeps, Mode: mpigpu.P2POn, Account: o.Account})
		must(err)
		pp := paper[np]
		tnet := f0(r.Tnet)
		if np == 1 {
			tnet = "n.a."
		}
		rows = append(rows, []string{
			fmt.Sprint(np), f0(r.Ttot), f0(r.TbndPlusNet), tnet, pp[0], pp[1], pp[2],
		})
	}
	rep := &Report{ID: "table2", Title: "HSG single-spin update time (ps), strong scaling, L=256, P2P on",
		Header: []string{"NP", "Ttot", "Tbnd+Tnet", "Tnet", "paper Ttot", "paper Tbnd+Tnet", "paper Tnet"},
		Units:  []string{"", "ps", "ps", "ps", "ps", "ps", "ps"},
		Rows:   rows}
	rep.SetMeta("L", "256")
	rep.SetMeta("sweeps", fmt.Sprint(sweeps))
	return rep
}

// Table3 regenerates the two-node HSG breakdown across communication modes.
func Table3(o Options) *Report {
	sweeps := 8
	if o.Quick {
		sweeps = 3
	}
	type variant struct {
		label string
		cfg   hsg.Config
		paper [3]string
	}
	variants := []variant{
		{"APEnet+ P2P=ON", hsg.Config{Mode: mpigpu.P2POn}, [3]string{"416", "108", "97"}},
		{"APEnet+ P2P=RX", hsg.Config{Mode: mpigpu.P2PRX}, [3]string{"416", "97", "91"}},
		{"APEnet+ P2P=OFF", hsg.Config{Mode: mpigpu.P2POff}, [3]string{"416", "122", "114"}},
		{"OpenMPI/IB", hsg.Config{UseIB: true, MPI: mpigpu.OpenMPI()}, [3]string{"416", "108", "101"}},
	}
	var rows [][]string
	for _, v := range variants {
		cfg := v.cfg
		cfg.L, cfg.NP, cfg.Sweeps = 256, 2, sweeps
		cfg.Account = o.Account
		r, err := hsg.Run(cfg)
		must(err)
		rows = append(rows, []string{
			v.label, f0(r.Ttot), f0(r.TbndPlusNet), f0(r.Tnet),
			v.paper[0], v.paper[1], v.paper[2],
		})
	}
	return &Report{ID: "table3", Title: "HSG two-node breakdown (ps per spin), L=256",
		Header: []string{"variant", "Ttot", "Tbnd+Tnet", "Tnet", "paper Ttot", "paper Tbnd+Tnet", "paper Tnet"},
		Units:  []string{"", "ps", "ps", "ps", "ps", "ps", "ps"},
		Rows:   rows}
}

// Fig11 regenerates the HSG speedup plot data.
func Fig11(o Options) *Report {
	sweeps := 6
	if o.Quick {
		sweeps = 2
	}
	modes := []mpigpu.P2PMode{mpigpu.P2POff, mpigpu.P2PRX, mpigpu.P2POn}
	var rows [][]string
	for _, L := range []int{128, 256, 512} {
		for _, mode := range modes {
			base := 0.0
			row := []string{fmt.Sprintf("SIDE=%d %s", L, mode)}
			for _, np := range []int{1, 2, 4, 8} {
				r, err := hsg.Run(hsg.Config{L: L, NP: np, Sweeps: sweeps, Mode: mode, Account: o.Account})
				if err != nil {
					row = append(row, "n/a")
					continue
				}
				if base == 0 {
					base = r.Ttot
				}
				row = append(row, f2(base/r.Ttot))
			}
			rows = append(rows, row)
		}
	}
	return &Report{ID: "fig11", Title: "HSG strong-scaling speedup (20 Gbps links)",
		Header: []string{"variant", "NP=1", "NP=2", "NP=4", "NP=8"},
		Units:  []string{"", "x", "x", "x", "x"},
		Rows:   rows,
		Notes:  []string{"paper: L=128 scales only to ~2; L=256 to 4-8; L=512 super-linear (inefficient single-GPU baseline)"}}
}

// Table4 regenerates the BFS TEPS table.
func Table4(o Options) *Report {
	scale := 20
	if o.Quick {
		scale = 16
	}
	seed := o.SeedOr(1)
	g := graph.BuildCSR(graph.Kronecker(scale, 16, seed))
	paperA := map[int]string{1: "6.7e+07", 2: "9.8e+07", 4: "1.3e+08", 8: "1.7e+08"}
	paperI := map[int]string{1: "6.2e+07", 2: "7.8e+07", 4: "8.2e+07", 8: "2.0e+08"}
	var rows [][]string
	for _, np := range []int{1, 2, 4, 8} {
		ra, err := bfs.Run(bfs.Config{Scale: scale, NP: np, Fabric: bfs.FabricAPEnet, Graph: g, Seed: seed, Account: o.Account})
		must(err)
		ri, err := bfs.Run(bfs.Config{Scale: scale, NP: np, Fabric: bfs.FabricIB, Graph: g, Seed: seed, Account: o.Account})
		must(err)
		rows = append(rows, []string{
			fmt.Sprint(np), sci(ra.TEPS), sci(ri.TEPS), paperA[np], paperI[np],
		})
	}
	rep := &Report{ID: "table4",
		Title:  fmt.Sprintf("BFS traversed edges per second, strong scaling, scale %d", scale),
		Header: []string{"NP", "APEnet+ TEPS", "OMPI/IB TEPS", "paper APEnet+", "paper IB"},
		Units:  []string{"", "TEPS", "TEPS", "TEPS", "TEPS"},
		Rows:   rows,
		Notes:  []string{"paper values are for scale 20; APEnet+ leads up to 4 nodes, IB overtakes at 8 (torus all-to-all congestion + Nios RX serialization)"}}
	rep.SetMeta("scale", fmt.Sprint(scale))
	rep.SetMeta("rng_seed", fmt.Sprint(seed))
	return rep
}

// Fig12 regenerates the per-task time breakdown at NP=4.
func Fig12(o Options) *Report {
	scale := 20
	if o.Quick {
		scale = 16
	}
	seed := o.SeedOr(1)
	g := graph.BuildCSR(graph.Kronecker(scale, 16, seed))
	ra, err := bfs.Run(bfs.Config{Scale: scale, NP: 4, Fabric: bfs.FabricAPEnet, Graph: g, Seed: seed, Account: o.Account})
	must(err)
	ri, err := bfs.Run(bfs.Config{Scale: scale, NP: 4, Fabric: bfs.FabricIB, Graph: g, Seed: seed, Account: o.Account})
	must(err)
	var rows [][]string
	for r := 0; r < 4; r++ {
		rows = append(rows, []string{
			fmt.Sprint(r),
			f2(ra.Breakdown[r].Compute.Seconds() * 1e3),
			f2(ra.Breakdown[r].Comm.Seconds() * 1e3),
			f2(ri.Breakdown[r].Compute.Seconds() * 1e3),
			f2(ri.Breakdown[r].Comm.Seconds() * 1e3),
		})
	}
	rep := &Report{ID: "fig12",
		Title:  fmt.Sprintf("BFS per-task breakdown (ms), NP=4, scale %d", scale),
		Header: []string{"task", "APEnet compute", "APEnet comm", "IB compute", "IB comm"},
		Units:  []string{"", "ms", "ms", "ms", "ms"},
		Rows:   rows,
		Notes:  []string{"paper: communication time ~50% lower on APEnet+"}}
	rep.SetMeta("scale", fmt.Sprint(scale))
	rep.SetMeta("rng_seed", fmt.Sprint(seed))
	return rep
}

// AblBufList measures small-message latency against the number of
// registered buffers: the BUF_LIST linear scan at work.
func AblBufList(o Options) *Report {
	var rows [][]string
	for _, extra := range []int{0, 8, 32, 128, 512} {
		eng := sim.NewWithAccount(o.Account)
		cfg := o.config()
		cl, err := cluster.TwoNodes(eng, nil, cfg, 0)
		must(err)
		a, b := cl.Nodes[0], cl.Nodes[1]
		epA, epB := rdma.NewEndpoint(a.Card), rdma.NewEndpoint(b.Card)
		var lat sim.Duration
		eng.Go("abl", func(p *sim.Proc) {
			// Pad the BUF_LIST so the real target sits at the end.
			for i := 0; i < extra; i++ {
				_, err := epB.NewHostBuffer(p, 4096)
				must(err)
			}
			dstB, err := epB.NewHostBuffer(p, 4096)
			must(err)
			dstA, err := epA.NewHostBuffer(p, 4096)
			must(err)
			srcA, err := epA.NewHostBuffer(p, 4096)
			must(err)
			srcB, err := epB.NewHostBuffer(p, 4096)
			must(err)
			eng.Go("b", func(pb *sim.Proc) {
				for {
					epB.WaitRecv(pb)
					_, err := epB.PutBuffer(pb, 0, dstA, srcB, 32, rdma.PutFlags{})
					must(err)
				}
			})
			const iters = 50
			start := p.Now()
			for i := 0; i < iters; i++ {
				_, err := epA.PutBuffer(p, 1, dstB, srcA, 32, rdma.PutFlags{})
				must(err)
				epA.WaitRecv(p)
			}
			lat = p.Now().Sub(start) / sim.Duration(2*iters)
		})
		eng.Run()
		eng.Shutdown()
		rows = append(rows, []string{fmt.Sprint(extra + 1), f1(lat.Micros())})
	}
	return &Report{ID: "abl-buflist", Title: "H-H latency vs registered buffers (BUF_LIST linear scan)",
		Header: []string{"buffers", "latency"},
		Units:  []string{"", "us"},
		Rows:   rows,
		Notes:  []string{"the paper: RX time 'linearly scales with the number of registered buffers'"}}
}

// AblNiosClock moves the RX ceiling by overclocking the firmware core.
func AblNiosClock(o Options) *Report {
	var rows [][]string
	for _, mhz := range []float64{100, 200, 400, 800} {
		cfg := o.config()
		cfg.NiosClockMHz = mhz
		bw := LoopbackBW(cfg, gpu.Fermi2050(), core.HostMem, core.HostMem, 1*units.MB)
		rows = append(rows, []string{f0(mhz), f0(bw.MBpsValue())})
	}
	return &Report{ID: "abl-nios", Title: "H-H loop-back bandwidth vs Nios II clock",
		Header: []string{"clock", "bandwidth"},
		Units:  []string{"MHz", "MB/s"},
		Rows:   rows,
		Notes:  []string{"the RX firmware is the bottleneck: bandwidth tracks the clock until the wire takes over"}}
}

// AblLink compares the paper's two link configurations.
func AblLink(o Options) *Report {
	var rows [][]string
	for _, gbps := range []float64{10, 20, 28, 56} {
		cfg := o.config()
		cfg.LinkBandwidth = units.Gbps(gbps)
		bw := TwoNodeBW(cfg, core.HostMem, core.HostMem, 1*units.MB)
		rows = append(rows, []string{f0(gbps), f0(bw.MBpsValue())})
	}
	return &Report{ID: "abl-link", Title: "Two-node H-H bandwidth vs torus link speed",
		Header: []string{"link", "bandwidth"},
		Units:  []string{"Gbps", "MB/s"},
		Rows:   rows,
		Notes:  []string{"beyond ~20 Gbps the Nios II RX path, not the wire, caps the card"}}
}

// AblKeplerTX compares P2P and BAR1 as the transmission method on Kepler.
func AblKeplerTX(o Options) *Report {
	sizes := sweepSizes(o, 4*units.KB, 1*units.MB)
	var rows [][]string
	for _, msg := range sizes {
		p2p := MemReadBW(o.config(), gpu.KeplerK20(), core.GPUMem, core.MethodP2P, msg)
		bar1 := MemReadBW(o.config(), gpu.KeplerK20(), core.GPUMem, core.MethodBAR1, msg)
		rows = append(rows, []string{msg.String(), f0(p2p.MBpsValue()), f0(bar1.MBpsValue())})
	}
	return &Report{ID: "abl-bar1tx", Title: "Kepler GPU read: P2P vs BAR1 method",
		Header: []string{"msg", "P2P", "BAR1"},
		Units:  []string{"", "MB/s", "MB/s"},
		Rows:   rows,
		Notes:  []string{"the paper's conclusion: on Kepler BAR1 becomes competitive with the P2P protocol"}}
}

// AblWindow extends the prefetch-window sweep past the paper's largest.
func AblWindow(o Options) *Report {
	var rows [][]string
	for _, w := range []units.ByteSize{4 * units.KB, 16 * units.KB, 32 * units.KB, 128 * units.KB, 512 * units.KB} {
		cfg2 := o.config()
		cfg2.TXVersion = 2
		cfg2.PrefetchWindow = w
		cfg3 := o.config()
		cfg3.TXVersion = 3
		cfg3.PrefetchWindow = w
		rows = append(rows, []string{
			w.String(),
			f0(MemReadBW(cfg2, gpu.Fermi2050(), core.GPUMem, core.MethodP2P, 1*units.MB).MBpsValue()),
			f0(MemReadBW(cfg3, gpu.Fermi2050(), core.GPUMem, core.MethodP2P, 1*units.MB).MBpsValue()),
		})
	}
	return &Report{ID: "abl-window", Title: "GPU read bandwidth vs prefetch window (v2 batch vs v3 streaming)",
		Header: []string{"window", "v2", "v3"},
		Units:  []string{"", "MB/s", "MB/s"},
		Rows:   rows,
		Notes:  []string{"v2 approaches the response rate asymptotically; v3 reaches it with any window above a few KB"}}
}

// sortIDs returns all experiment IDs (for CLI help).
func SortedIDs() []string {
	var ids []string
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return ids
}
