package core_test

import (
	"strings"
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

// packetWorld is TestPacketAllocBudget's and BenchmarkPacketPUT's world:
// a one-shard 8x1x1 ring whose rank 0 PUTs from host or GPU memory into a
// host buffer on rank 4, four hops away.
type packetWorld struct {
	eng            *sim.Engine
	from, to       *rdma.Endpoint
	srcBuf, dstBuf *rdma.Buffer
}

func newPacketWorld(tb testing.TB, src core.MemKind, mode route.Mode, size units.ByteSize) *packetWorld {
	tb.Helper()
	eng := sim.New()
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
		tb.Fatal(err)
	}
	w := &packetWorld{eng: eng, from: rdma.NewEndpoint(cl.Nodes[0].Card), to: rdma.NewEndpoint(cl.Nodes[4].Card)}
	var setupErr error
	eng.Go("setup", func(p *sim.Proc) {
		if src == core.GPUMem {
			w.srcBuf, setupErr = w.from.NewGPUBuffer(p, cl.Nodes[0].GPU(0), size)
		} else {
			w.srcBuf, setupErr = w.from.NewHostBuffer(p, size)
		}
		if setupErr == nil {
			w.dstBuf, setupErr = w.to.NewHostBuffer(p, size)
		}
	})
	eng.Run()
	if setupErr != nil {
		tb.Fatal(setupErr)
	}
	return w
}

// puts sends count PUTs of n bytes one after another, each waiting for
// its send completion, while rank 4 takes their receive completions, and
// runs the engine until all have landed.
func (w *packetWorld) puts(tb testing.TB, count int, n units.ByteSize) {
	w.eng.Go("put", func(p *sim.Proc) {
		for i := 0; i < count; i++ {
			if _, err := w.from.PutBuffer(p, 4, w.dstBuf, w.srcBuf, n, rdma.PutFlags{}); err != nil {
				tb.Error(err)
				return
			}
			w.from.WaitSend(p)
		}
	})
	w.eng.Go("recv", func(p *sim.Proc) {
		for i := 0; i < count; i++ {
			w.to.WaitRecv(p)
		}
	})
	w.eng.Run()
}

// packetAllocs returns the heap allocations one more 4 KB packet adds to
// a PUT from rank 0 to rank 4 (four hops) on a one-shard 8x1x1 ring: the
// difference between two transfer sizes over their packet difference, so
// world set-up and per-job costs cancel. The larger transfer is measured
// first, so queues, heaps and maps no longer grow when either is counted.
func packetAllocs(t *testing.T, src core.MemKind, mode route.Mode) float64 {
	t.Helper()
	const small, large = 16 * units.KB, 64 * units.KB
	w := newPacketWorld(t, src, mode, large)
	defer w.eng.Shutdown()
	put := func(n units.ByteSize) float64 {
		return testing.AllocsPerRun(3, func() { w.puts(t, 1, n) })
	}
	perLarge := put(large) // first: its warm-up run grows queues, heaps and maps
	perSmall := put(small)
	return (perLarge - perSmall) / float64((large-small)/core.DefaultConfig().MaxPayload)
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

// BenchmarkPacketPUT prices one 4 KB packet through the whole card
// datapath — submit, TX fetch from host or GPU memory, TX FIFO, injector,
// four torus hops, RX validate/translate/DMA and the completions — as a
// one-packet PUT in packetWorld, one after another.
func BenchmarkPacketPUT(b *testing.B) {
	const n = 4 * units.KB
	for _, src := range []core.MemKind{core.HostMem, core.GPUMem} {
		b.Run(strings.ToLower(src.String()), func(b *testing.B) {
			w := newPacketWorld(b, src, route.ModeDimensionOrder, n)
			defer w.eng.Shutdown()
			w.puts(b, 64, n) // grow queues, heaps and maps
			b.ReportAllocs()
			b.ResetTimer()
			w.puts(b, b.N, n)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/packet")
		})
	}
}
