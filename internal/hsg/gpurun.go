package hsg

import (
	"fmt"

	"apenetsim/internal/cluster"
	"apenetsim/internal/core"
	"apenetsim/internal/cuda"
	"apenetsim/internal/gpu"
	"apenetsim/internal/mpigpu"
	"apenetsim/internal/sim"
	"apenetsim/internal/trace"
	"apenetsim/internal/units"
)

// BytesPerSpin is the device-memory footprint per site (spin components,
// neighbor couplings, indexing) of the multi-GPU code.
const BytesPerSpin = 24

// TimingModel converts lattice work into GPU kernel durations. Constants
// are calibrated once against the paper's single-GPU measurement
// (921 ps/spin at L=256 on a C2050) and its cache/occupancy observations;
// everything else in Tables II/III and Fig 11 then emerges from the
// simulated cluster.
type TimingModel struct {
	// BulkSpinCost is the per-site bulk update cost at the reference
	// working set (L=256 on one GPU).
	BulkSpinCost sim.Duration
	// BndSpinCost is the per-site cost of the boundary kernel — an order
	// of magnitude worse than bulk because the thin-plane kernels cannot
	// fill the machine (paper: Tbnd ≈ 11 ps/spin normalized to the full
	// lattice, i.e. ≈1.4 ns per boundary site).
	BndSpinCost sim.Duration
}

// DefaultTiming returns the calibrated model.
func DefaultTiming() TimingModel {
	return TimingModel{
		BulkSpinCost: 921 * sim.Picosecond,
		BndSpinCost:  sim.FromNanos(1.4),
	}
}

// occupancyFactor is the cache/occupancy correction as a function of the
// local working set (sites per GPU): an occupancy penalty once slabs are
// too thin to fill the GPU (below ~1M sites), a cache sweet spot between
// 2M and 8M sites, and growing cache/TLB pressure for very large working
// sets — the last two are the sources of the paper's super-linear
// speedups (and of its "low efficiency" 1471 ps/spin L=512 single-GPU
// run).
var occupancyTable = []struct {
	sites  float64
	factor float64
}{
	{1 << 18, 2.00},
	{1 << 19, 1.45},
	{1 << 20, 1.00},
	{1 << 21, 0.865},
	{1 << 22, 0.877},
	{1 << 23, 0.902},
	{1 << 24, 1.00},
	{1 << 25, 1.10},
	{1 << 26, 1.30},
	{1 << 27, 1.597},
}

func occupancyFactor(sites int) float64 {
	s := float64(sites)
	tab := occupancyTable
	if s <= tab[0].sites {
		return tab[0].factor
	}
	if s >= tab[len(tab)-1].sites {
		return tab[len(tab)-1].factor
	}
	for i := 1; i < len(tab); i++ {
		if s <= tab[i].sites {
			lo, hi := tab[i-1], tab[i]
			t := (s - lo.sites) / (hi.sites - lo.sites)
			// Rounding the product keeps it out of a fused multiply-add.
			return lo.factor + float64(t*(hi.factor-lo.factor))
		}
	}
	return 1
}

// spinCost returns the effective per-site bulk cost for a rank. The CUDA
// context and driver reserve part of device memory, so only ~95% is
// usable — which is precisely why the L=512 lattice (3 GB of state) only
// fits on the 6 GB Fermi 2070, as the paper reports.
func (m TimingModel) spinCost(localSites int, dev gpu.Spec) (sim.Duration, error) {
	mem := units.ByteSize(localSites) * BytesPerSpin
	usable := units.ByteSize(float64(dev.MemBytes) * 0.95)
	if mem > usable {
		return 0, fmt.Errorf("hsg: %d sites need %v, GPU %s has %v usable of %v", localSites, mem, dev.Name, usable, dev.MemBytes)
	}
	f := occupancyFactor(localSites)
	return sim.Duration(float64(m.BulkSpinCost) * f), nil
}

// Config describes one strong-scaling experiment.
type Config struct {
	L      int // lattice side
	NP     int // ranks (1D decomposition along Z)
	Sweeps int // measured sweeps (after one warm-up sweep)

	Mode mpigpu.P2PMode // APEnet P2P configuration
	// UseIB runs the communication over InfiniBand + the given MPI flavor
	// instead of APEnet+ (the Table III reference columns).
	UseIB    bool
	IBSlot   int // HCA slot lanes (4 on Cluster I, 8 on Cluster II)
	MPI      mpigpu.Config
	LinkGbps float64 // APEnet torus link speed (Fig 11 uses 20 Gbps)

	Timing TimingModel

	// Account, when non-nil, aggregates the simulation's step count.
	Account *sim.Account
}

// Result is the paper's Table II/III row material, normalized to
// picoseconds per (global) spin update like the paper.
type Result struct {
	L, NP       int
	Ttot        float64 // ps/spin
	TbndPlusNet float64
	Tnet        float64
}

// Run executes the simulated multi-GPU HSG and returns per-spin times.
// Communication volumes and schedule are the real ones (two boundary
// planes per half-sweep, each split into three messages, overlapped with
// the bulk kernel on a second stream); kernel durations come from the
// timing model; everything crosses the simulated fabric.
func Run(cfg Config) (Result, error) {
	if cfg.L%cfg.NP != 0 {
		return Result{}, fmt.Errorf("hsg: NP=%d must divide L=%d", cfg.NP, cfg.L)
	}
	if cfg.Sweeps <= 0 {
		cfg.Sweeps = 10
	}
	if cfg.Timing == (TimingModel{}) {
		cfg.Timing = DefaultTiming()
	}
	if cfg.LinkGbps == 0 {
		cfg.LinkGbps = 20
	}

	eng := sim.NewWithAccount(cfg.Account)
	defer eng.Shutdown()
	rec := (*trace.Recorder)(nil)

	cardCfg := core.DefaultConfig()
	cardCfg.LinkBandwidth = units.Gbps(cfg.LinkGbps)
	cl, err := cluster.ClusterI(eng, rec, &cardCfg)
	if err != nil {
		return Result{}, err
	}
	if cfg.NP > len(cl.Nodes) {
		return Result{}, fmt.Errorf("hsg: NP=%d exceeds cluster size %d", cfg.NP, len(cl.Nodes))
	}

	localSites := cfg.L * cfg.L * cfg.L / cfg.NP
	bndSites := cfg.L * cfg.L // two planes, half parity each, per half-sweep
	// Message schedule per half-sweep: each boundary plane (L^2/2 sites of
	// one parity x 12 B) is shipped as 3 messages — 6 outgoing and 6
	// incoming messages of 2*L^2 bytes, the paper's "6 outgoing and 6
	// incoming 128 KB messages" at L=256.
	msgBytes := units.ByteSize(2 * cfg.L * cfg.L)

	type rankStats struct {
		tot, bnd, net sim.Duration
		err           error
	}
	stats := make([]rankStats, cfg.NP)

	var comms []mpigpu.Comm
	bootErr := make(chan error, 1)
	eng.Go("hsg.boot", func(p *sim.Proc) {
		if cfg.UseIB {
			ibcomms, err := mpigpu.NewIBWorld(cl, cfg.NP, 0, cfg.MPI)
			if err != nil {
				bootErr <- err
				return
			}
			for _, c := range ibcomms {
				comms = append(comms, c)
			}
		} else {
			apecomms, err := mpigpu.NewAPEnetWorld(p, cl, cfg.NP, cfg.Mode)
			if err != nil {
				bootErr <- err
				return
			}
			for _, c := range apecomms {
				comms = append(comms, c)
			}
		}
		for rank := 0; rank < cfg.NP; rank++ {
			rank := rank
			node := cl.Nodes[rank]
			comm := comms[rank]
			eng.Go(fmt.Sprintf("hsg.rank%d", rank), func(p *sim.Proc) {
				stats[rank].err = runRank(p, cfg, node, comm, localSites, bndSites, msgBytes, &stats[rank].tot, &stats[rank].bnd, &stats[rank].net)
			})
		}
		bootErr <- nil
	})
	eng.Run()
	select {
	case err := <-bootErr:
		if err != nil {
			return Result{}, err
		}
	default:
	}

	// Report the slowest rank, normalized per global spin per sweep.
	var worst rankStats
	for _, s := range stats {
		if s.err != nil {
			return Result{}, s.err
		}
		if s.tot > worst.tot {
			worst = s
		}
	}
	globalSpins := float64(cfg.L) * float64(cfg.L) * float64(cfg.L)
	norm := func(d sim.Duration) float64 {
		return float64(d) / float64(cfg.Sweeps) / globalSpins
	}
	return Result{
		L: cfg.L, NP: cfg.NP,
		Ttot:        norm(worst.tot),
		TbndPlusNet: norm(worst.bnd + worst.net),
		Tnet:        norm(worst.net),
	}, nil
}

// runRank is one rank's sweep loop on the simulated cluster.
func runRank(p *sim.Proc, cfg Config, node *cluster.Node, comm mpigpu.Comm,
	localSites, bndSites int, msgBytes units.ByteSize,
	tot, bnd, net *sim.Duration) error {

	dev := node.GPU(0)
	perSpin, err := cfg.Timing.spinCost(localSites, dev.Spec)
	if err != nil {
		return err
	}
	ctx := cuda.NewContext(p.Engine(), node.Fab, dev, node.HostMem)
	bulkStream := ctx.NewStream(fmt.Sprintf("hsg%d.bulk", comm.Rank()))
	bndStream := ctx.NewStream(fmt.Sprintf("hsg%d.bnd", comm.Rank()))

	rank, np := comm.Rank(), comm.Size()
	up := (rank + 1) % np
	down := (rank - 1 + np) % np

	// Per half-sweep: half the local sites carry the updated parity;
	// bndSites of them sit on the two boundary planes and run in the
	// (inefficient) boundary kernel.
	bulkDur := sim.Duration(float64(perSpin) * float64(localSites/2-bndSites))
	bndDur := sim.Duration(float64(cfg.Timing.BndSpinCost) * float64(bndSites))

	mpigpu.Barrier(p, comm)

	halfSweep := func(measure bool) {
		t0 := p.Now()
		bndEv := bndStream.Launch(p, "boundary", bndDur)
		bulkEv := bulkStream.Launch(p, "bulk", bulkDur)
		bndEv.Wait(p)
		tb := p.Now()
		if np > 1 {
			// Ship each boundary plane as 3 messages to each neighbor,
			// then wait for the 6 incoming halo messages.
			for i := 0; i < 3; i++ {
				comm.Isend(p, up, msgBytes, true, nil)
				comm.Isend(p, down, msgBytes, true, nil)
			}
			var halos []mpigpu.Msg
			for i := 0; i < 3; i++ {
				halos = append(halos, comm.Recv(p, up), comm.Recv(p, down))
			}
			// Unpack after waitall, like the real staged code.
			for i := range halos {
				halos[i].Unpack(p)
			}
		}
		tn := p.Now()
		bulkEv.Wait(p)
		if measure {
			*bnd += tb.Sub(t0)
			*net += tn.Sub(tb)
			*tot += p.Now().Sub(t0)
		}
	}
	// One warm-up sweep fills pipelines and caches.
	halfSweep(false)
	halfSweep(false)
	for s := 0; s < cfg.Sweeps; s++ {
		halfSweep(true)
		halfSweep(true)
	}
	return nil
}
