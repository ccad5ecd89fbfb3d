package core_test

import (
	"testing"

	"apenetsim/internal/cluster"
	"apenetsim/internal/core"
	"apenetsim/internal/gpu"
	"apenetsim/internal/rdma"
	"apenetsim/internal/route"
	"apenetsim/internal/sim"
	"apenetsim/internal/torus"
	"apenetsim/internal/units"
)

// packetAllocs returns the heap allocations one more 4 KB packet adds to
// a PUT from rank 0 to rank 4 (four hops) on a serial 8x1x1 ring: the
// difference between two transfer sizes over their packet difference, so
// world set-up and per-job costs cancel. The larger transfer is measured
// first, so queues, heaps and maps no longer grow when either is counted.
func packetAllocs(t *testing.T, src core.MemKind, mode route.Mode) float64 {
	t.Helper()
	const small, large = 16 * units.KB, 64 * units.KB
	eng := sim.New()
	defer eng.Shutdown()
	cfg := core.DefaultConfig()
	cfg.Routing = route.Config{Mode: mode}
	cl, err := cluster.New(eng, nil, torus.Dims{X: 8, Y: 1, Z: 1}, 8, func(i int) cluster.NodeConfig {
		nc := cluster.NodeConfig{Card: &cfg}
		if i == 0 {
			nc.GPUSpecs = []gpu.Spec{gpu.Fermi2050()}
		}
		return nc
	})
	if err != nil {
		t.Fatal(err)
	}
	from := rdma.NewEndpoint(cl.Nodes[0].Card)
	to := rdma.NewEndpoint(cl.Nodes[4].Card)
	var srcBuf, dstBuf *rdma.Buffer
	var setupErr error
	eng.Go("setup", func(p *sim.Proc) {
		if src == core.GPUMem {
			srcBuf, setupErr = from.NewGPUBuffer(p, cl.Nodes[0].GPU(0), large)
		} else {
			srcBuf, setupErr = from.NewHostBuffer(p, large)
		}
		if setupErr == nil {
			dstBuf, setupErr = to.NewHostBuffer(p, large)
		}
	})
	eng.Run()
	if setupErr != nil {
		t.Fatal(setupErr)
	}
	put := func(n units.ByteSize) float64 {
		return testing.AllocsPerRun(3, func() {
			eng.Go("put", func(p *sim.Proc) {
				if _, err := from.PutBuffer(p, 4, dstBuf, srcBuf, n, rdma.PutFlags{}); err != nil {
					t.Error(err)
				}
				from.WaitSend(p)
			})
			eng.Go("recv", func(p *sim.Proc) { to.WaitRecv(p) })
			eng.Run()
		})
	}
	perLarge := put(large) // first: its warm-up run grows queues, heaps and maps
	perSmall := put(small)
	return (perLarge - perSmall) / float64((large-small)/cfg.MaxPayload)
}

// The packet datapath allocates nothing per hop, per PCIe read chunk, per
// credit request or per stage note. What one packet still allocates: the
// fetch-completion callback of its read (host: the TX engine's and the
// read engine's final-chunk callback; GPU: the fetch completion), its
// hop callback and its delivery callback. The budget is the same under
// dimension-order and adaptive routing: routing decisions allocate
// nothing either.
func TestPacketAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		src    core.MemKind
		budget float64
	}{
		{core.HostMem, 4},
		{core.GPUMem, 3},
	} {
		dor := packetAllocs(t, tc.src, route.ModeDimensionOrder)
		adaptive := packetAllocs(t, tc.src, route.ModeAdaptive)
		t.Logf("%v-sourced PUT: %.2f allocs/packet (dor), %.2f (adaptive)", tc.src, dor, adaptive)
		if dor > tc.budget || adaptive > tc.budget {
			t.Errorf("%v-sourced PUT allocates %.2f (dor) / %.2f (adaptive) per packet, budget %v",
				tc.src, dor, adaptive, tc.budget)
		}
		if dor != adaptive {
			t.Errorf("%v-sourced PUT: adaptive routing allocates %.2f per packet, dimension order %.2f",
				tc.src, adaptive, dor)
		}
	}
}
