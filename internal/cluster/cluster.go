// Package cluster assembles simulated nodes — PCIe fabric, host memory,
// GPUs, APEnet+ card, InfiniBand HCA — into the two test platforms of the
// paper: Cluster I (8 dual-Xeon Westmere nodes in a 4×2 torus, one Fermi
// 2050 each except a 2070, ConnectX-2 in a x4 slot) and Cluster II (12
// nodes with two Fermi 2075s each and ConnectX-2 in x8 slots).
package cluster

import (
	"fmt"

	"apenetsim/internal/core"
	"apenetsim/internal/gpu"
	"apenetsim/internal/ib"
	"apenetsim/internal/pcie"
	"apenetsim/internal/sim"
	"apenetsim/internal/torus"
	"apenetsim/internal/trace"
)

// HostMemCplLatency is the host memory read completion latency seen by
// DMA engines (memory controller + IOH on Westmere).
const HostMemCplLatency = 700 * sim.Nanosecond

// NodeConfig describes one node to build.
type NodeConfig struct {
	GPUSpecs []gpu.Spec
	Card     *core.Config // nil: no APEnet+ card
	IB       *ib.Config   // nil: no HCA
	HopLat   sim.Duration // PCIe hop latency (switch/RC traversal)
	// Eng, when non-nil, is the engine this node's components (fabric,
	// GPUs, card) are built on — the node's shard in a sharded world.
	// nil means the cluster engine, the serial default.
	Eng *sim.Engine
	// Rec, when non-nil, is the recorder this node's components emit
	// into — the node's shard-private trace buffer in a sharded world,
	// so the emit path stays single-writer and lock-free. nil means the
	// cluster recorder, the serial default.
	Rec *trace.Recorder
}

// Node is one assembled machine.
type Node struct {
	ID      int
	Coord   torus.Coord
	Fab     *pcie.Fabric
	HostMem *pcie.Device
	Switch  *pcie.Device // PLX switch all endpoints hang from
	GPUs    []*gpu.Device
	Card    *core.Card
	HCA     *ib.HCA
}

// GPU returns GPU i on the node.
func (n *Node) GPU(i int) *gpu.Device { return n.GPUs[i] }

// Cluster is a set of nodes joined by an APEnet+ torus and/or an IB switch.
type Cluster struct {
	Eng      *sim.Engine
	Rec      *trace.Recorder
	Dims     torus.Dims
	Net      *core.Network
	IBSwitch *ib.Switch
	Nodes    []*Node
}

// New builds a cluster of n nodes on the given torus dimensions, using
// mk to configure each node. Cards and HCAs are started and ready.
func New(eng *sim.Engine, rec *trace.Recorder, dims torus.Dims, n int, mk func(i int) NodeConfig) (*Cluster, error) {
	if n > dims.Nodes() {
		return nil, fmt.Errorf("cluster: %d nodes exceed torus %v", n, dims)
	}
	cl := &Cluster{Eng: eng, Rec: rec, Dims: dims}
	for i := 0; i < n; i++ {
		cfg := mk(i)
		node, err := cl.buildNode(i, cfg)
		if err != nil {
			return nil, err
		}
		cl.Nodes = append(cl.Nodes, node)
	}
	return cl, nil
}

func (cl *Cluster) buildNode(i int, cfg NodeConfig) (*Node, error) {
	hopLat := cfg.HopLat
	if hopLat == 0 {
		hopLat = 150 * sim.Nanosecond
	}
	eng := cfg.Eng
	if eng == nil {
		eng = cl.Eng
	}
	rec := cfg.Rec
	if rec == nil {
		rec = cl.Rec
	}
	fab := pcie.NewFabric(eng, rec, fmt.Sprintf("node%d", i), "rc")
	fab.Root().CompletionLatency = HostMemCplLatency
	// All endpoints behind one PLX switch: the "ideal platform" of the
	// paper's Table I footnote (GPU and APEnet+ linked by a PLX switch).
	// The uplink is modeled as non-blocking: on the real platform the x16
	// uplink (8 GB/s) never binds for these workloads (GPU DMA 5.5 GB/s +
	// card reads 2.4 GB/s stay under it), and the reservation-based
	// channel model would otherwise serialize unrelated flows that in
	// hardware interleave at TLP granularity. Endpoint links — where the
	// paper's contention actually lives — stay fully modeled.
	sw := fab.Attach("plx", fab.Root(), pcie.LinkSpec{Gen: 3, Lanes: 64}, hopLat)

	node := &Node{
		ID:      i,
		Coord:   cl.Dims.CoordOf(i),
		Fab:     fab,
		HostMem: fab.Root(),
		Switch:  sw,
	}
	for gi, spec := range cfg.GPUSpecs {
		g := gpu.New(eng, fab, fmt.Sprintf("node%d.gpu%d", i, gi), spec, sw, pcie.Gen2x16, hopLat)
		node.GPUs = append(node.GPUs, g)
	}
	if cfg.Card != nil {
		if cl.Net == nil {
			// Checked before the network, whose engine group takes the hop
			// latency as its lookahead.
			if err := cfg.Card.Validate(); err != nil {
				return nil, err
			}
			cl.Net = core.NewNetwork(cl.Eng, cl.Dims, cfg.Card.LinkBandwidth, cfg.Card.HopLatency)
		}
		pci := fab.Attach(fmt.Sprintf("node%d.apenet", i), sw, pcie.Gen2x8, hopLat)
		card, err := core.NewCard(eng, *cfg.Card, rec, fmt.Sprintf("ape%d", i),
			fab, pci, node.HostMem, cl.Net, node.Coord)
		if err != nil {
			return nil, err
		}
		card.Start()
		node.Card = card
	}
	if cfg.IB != nil {
		if cl.IBSwitch == nil {
			cl.IBSwitch = ib.NewSwitch(cl.Eng, *cfg.IB)
		}
		hca := ib.NewHCA(cl.Eng, *cfg.IB, fmt.Sprintf("hca%d", i), i,
			fab, sw, node.HostMem, cl.IBSwitch, hopLat)
		hca.Start()
		node.HCA = hca
	}
	return node, nil
}

// ClusterI builds the paper's APEnet+ test platform: 8 nodes in a 4×2
// torus, one Fermi each (node 0 gets the 6 GB 2070), ConnectX-2 in a
// PCIe x4 slot. cardCfg may override the default card configuration.
func ClusterI(eng *sim.Engine, rec *trace.Recorder, cardCfg *core.Config) (*Cluster, error) {
	cc := core.DefaultConfig()
	if cardCfg != nil {
		cc = *cardCfg
	}
	ibc := ib.DefaultConfig(4)
	return New(eng, rec, torus.Dims{X: 4, Y: 2, Z: 1}, 8, func(i int) NodeConfig {
		spec := gpu.Fermi2050()
		if i == 0 {
			spec = gpu.Fermi2070()
		}
		return NodeConfig{
			GPUSpecs: []gpu.Spec{spec},
			Card:     &cc,
			IB:       &ibc,
		}
	})
}

// ClusterII builds the paper's InfiniBand reference platform: 12 nodes,
// two Fermi 2075s each, ConnectX-2 in x8 slots, no APEnet+.
func ClusterII(eng *sim.Engine, rec *trace.Recorder) (*Cluster, error) {
	ibc := ib.DefaultConfig(8)
	return New(eng, rec, torus.Dims{X: 12, Y: 1, Z: 1}, 12, func(i int) NodeConfig {
		return NodeConfig{
			GPUSpecs: []gpu.Spec{gpu.Fermi2075(), gpu.Fermi2075()},
			IB:       &ibc,
		}
	})
}

// TwoNodes builds a minimal two-node APEnet+ rig (ranks 0,1 adjacent on a
// 2x1x1 torus) for the two-node benchmarks; IB optional via slotLanes>0.
func TwoNodes(eng *sim.Engine, rec *trace.Recorder, cardCfg core.Config, ibSlotLanes int) (*Cluster, error) {
	var ibc *ib.Config
	if ibSlotLanes > 0 {
		c := ib.DefaultConfig(ibSlotLanes)
		ibc = &c
	}
	return New(eng, rec, torus.Dims{X: 2, Y: 1, Z: 1}, 2, func(i int) NodeConfig {
		return NodeConfig{
			GPUSpecs: []gpu.Spec{gpu.Fermi2050()},
			Card:     &cardCfg,
			IB:       ibc,
		}
	})
}

// SingleNode builds a one-node rig (loop-back tests, Table I / Figs 4-5).
// gpuSpec selects the GPU model (Fermi vs Kepler rows of Table I).
func SingleNode(eng *sim.Engine, rec *trace.Recorder, cardCfg core.Config, gpuSpec gpu.Spec) (*Cluster, error) {
	return New(eng, rec, torus.Dims{X: 1, Y: 1, Z: 1}, 1, func(i int) NodeConfig {
		return NodeConfig{
			GPUSpecs: []gpu.Spec{gpuSpec},
			Card:     &cardCfg,
		}
	})
}
