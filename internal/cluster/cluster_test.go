package cluster

import (
	"testing"

	"apenetsim/internal/core"
	"apenetsim/internal/gpu"
	"apenetsim/internal/sim"
	"apenetsim/internal/torus"
)

func TestClusterIMatchesPaper(t *testing.T) {
	eng := sim.New()
	defer eng.Shutdown()
	cl, err := ClusterI(eng, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cl.Nodes) != 8 {
		t.Fatalf("Cluster I has %d nodes, want 8", len(cl.Nodes))
	}
	if cl.Dims != (torus.Dims{X: 4, Y: 2, Z: 1}) {
		t.Fatalf("dims = %v", cl.Dims)
	}
	// Node 0 carries the 6 GB 2070; the rest 3 GB 2050s.
	if cl.Nodes[0].GPU(0).Spec.Name != "Fermi2070" {
		t.Fatalf("node 0 GPU = %s", cl.Nodes[0].GPU(0).Spec.Name)
	}
	for i := 1; i < 8; i++ {
		if cl.Nodes[i].GPU(0).Spec.Name != "Fermi2050" {
			t.Fatalf("node %d GPU = %s", i, cl.Nodes[i].GPU(0).Spec.Name)
		}
	}
	for i, n := range cl.Nodes {
		if n.Card == nil || n.HCA == nil {
			t.Fatalf("node %d missing card or HCA", i)
		}
		if n.Card.Rank != i {
			t.Fatalf("node %d card rank %d", i, n.Card.Rank)
		}
	}
}

func TestClusterIIMatchesPaper(t *testing.T) {
	eng := sim.New()
	defer eng.Shutdown()
	cl, err := ClusterII(eng, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cl.Nodes) != 12 {
		t.Fatalf("Cluster II has %d nodes, want 12", len(cl.Nodes))
	}
	for i, n := range cl.Nodes {
		if len(n.GPUs) != 2 {
			t.Fatalf("node %d has %d GPUs, want 2 (Tesla S2075)", i, len(n.GPUs))
		}
		if n.GPU(0).Spec.Name != "Fermi2075" {
			t.Fatalf("node %d GPU = %s", i, n.GPU(0).Spec.Name)
		}
		if n.Card != nil {
			t.Fatalf("node %d has an APEnet+ card; Cluster II is IB-only", i)
		}
		if n.HCA == nil {
			t.Fatalf("node %d missing HCA", i)
		}
	}
}

func TestTooManyNodesRejected(t *testing.T) {
	eng := sim.New()
	defer eng.Shutdown()
	_, err := New(eng, nil, torus.Dims{X: 2, Y: 1, Z: 1}, 3, func(int) NodeConfig {
		return NodeConfig{GPUSpecs: []gpu.Spec{gpu.Fermi2050()}}
	})
	if err == nil {
		t.Fatal("3 nodes on a 2x1x1 torus accepted")
	}
}

// A card configuration without a hop latency is refused with an error
// before the network builds its engine group around it.
func TestZeroHopLatencyRejected(t *testing.T) {
	eng := sim.New()
	defer eng.Shutdown()
	cfg := core.DefaultConfig()
	cfg.HopLatency = 0
	if _, err := TwoNodes(eng, nil, cfg, 0); err == nil {
		t.Fatal("zero hop latency accepted")
	}
}

func TestSingleNodeRig(t *testing.T) {
	eng := sim.New()
	defer eng.Shutdown()
	cl, err := SingleNode(eng, nil, core.DefaultConfig(), gpu.KeplerK20())
	if err != nil {
		t.Fatal(err)
	}
	n := cl.Nodes[0]
	if n.GPU(0).Spec.Arch != gpu.Kepler {
		t.Fatal("GPU spec not applied")
	}
	if n.Fab.Device("node0.apenet") == nil || n.Fab.Device("node0.gpu0") == nil {
		t.Fatal("PCIe endpoints missing")
	}
	// Both endpoints hang off the PLX switch (Table I's "ideal platform").
	if p := n.Fab.Path(n.Card.PCI, n.GPU(0).PCI); p.Hops() != 2 {
		t.Fatalf("card->gpu hops = %d, want 2 (via PLX)", p.Hops())
	}
}
