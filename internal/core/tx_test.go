package core_test

import (
	"reflect"
	"testing"

	"apenetsim/internal/cluster"
	"apenetsim/internal/core"
	"apenetsim/internal/gpu"
	"apenetsim/internal/rdma"
	"apenetsim/internal/sim"
	"apenetsim/internal/torus"
	"apenetsim/internal/units"
)

// txPin is one fetch method's pinned run: the engine's step count, every
// completion time in picoseconds (SendDones then RecvDones for PUTs,
// GetDones for GETs) and card 0's Nios II GPU_P2P_TX busy time.
type txPin struct {
	steps uint64
	times []int64
	nios  sim.Duration
}

// runTXPin runs three back-to-back 45,000-byte transfers (11 packets each,
// the last one partial) from rank 0 to rank 1 on a 2x1x1 rig with one GPU
// of the given spec per node: PUTs from GPU or host memory, or, with get
// set, host GETs whose requests rank 0 sends as control messages.
func runTXPin(t *testing.T, spec gpu.Spec, cfg core.Config, src core.MemKind, get bool) txPin {
	t.Helper()
	const n, jobs = 45000, 3
	eng := sim.New()
	defer eng.Shutdown()
	cl, err := cluster.New(eng, nil, torus.Dims{X: 2, Y: 1, Z: 1}, 2, func(i int) cluster.NodeConfig {
		return cluster.NodeConfig{GPUSpecs: []gpu.Spec{spec}, Card: &cfg}
	})
	if err != nil {
		t.Fatal(err)
	}
	from, to := rdma.NewEndpoint(cl.Nodes[0].Card), rdma.NewEndpoint(cl.Nodes[1].Card)
	var srcBuf, dstBuf *rdma.Buffer
	eng.Go("setup", func(p *sim.Proc) {
		var err error
		if src == core.GPUMem {
			srcBuf, err = from.NewGPUBuffer(p, cl.Nodes[0].GPU(0), n)
		} else {
			srcBuf, err = from.NewHostBuffer(p, n)
		}
		if err == nil {
			dstBuf, err = to.NewHostBuffer(p, n)
		}
		if err != nil {
			t.Error(err)
		}
	})
	eng.Run()
	var pin txPin
	if get {
		eng.Go("get", func(p *sim.Proc) {
			for i := 0; i < jobs; i++ {
				if _, err := from.GetBuffer(p, 1, dstBuf, srcBuf, n, rdma.GetFlags{}); err != nil {
					t.Error(err)
					return
				}
			}
			for i := 0; i < jobs; i++ {
				pin.times = append(pin.times, int64(from.WaitGet(p).At))
			}
		})
	} else {
		eng.Go("put", func(p *sim.Proc) {
			for i := 0; i < jobs; i++ {
				if _, err := from.PutBuffer(p, 1, dstBuf, srcBuf, n, rdma.PutFlags{}); err != nil {
					t.Error(err)
					return
				}
			}
			for i := 0; i < jobs; i++ {
				pin.times = append(pin.times, int64(from.WaitSend(p).At))
			}
			for i := 0; i < jobs; i++ {
				pin.times = append(pin.times, int64(to.WaitRecv(p).At))
			}
		})
	}
	eng.Run()
	pin.steps = eng.Steps()
	pin.nios = cl.Nodes[0].Card.Nios.BusyTime("GPU_P2P_TX")
	return pin
}

// Every fetch method's events are pinned: the TX dispatcher runs one
// per-packet loop for all of them, and each method's gate and fetch must
// keep every event at its time and in its sequence slot.
func TestTXFetchMethodPins(t *testing.T) {
	window := func(v int) core.Config {
		cfg := core.DefaultConfig()
		cfg.TXVersion, cfg.PrefetchWindow = v, 16*units.KB
		return cfg
	}
	bar1 := core.DefaultConfig()
	bar1.GPUTXMethod = core.MethodBAR1
	cases := []struct {
		name string
		spec gpu.Spec
		cfg  core.Config
		src  core.MemKind
		get  bool
		want txPin
	}{
		{"host", gpu.Fermi2050(), core.DefaultConfig(), core.HostMem, false, txPin{712,
			[]int64{31922275, 51681121, 71811894, 54541658, 92541658, 130541658}, 0}},
		{"v1", gpu.Fermi2050(), window(1), core.GPUMem, false, txPin{298,
			[]int64{110242807, 196322185, 282401563, 115486000, 201565378, 287644756}, 78300000}},
		{"v2", gpu.Fermi2050(), window(2), core.GPUMem, false, txPin{295,
			[]int64{65850687, 107537945, 149225203, 72759778, 114447036, 156134294}, 15900000}},
		{"v3", gpu.Fermi2050(), window(3), core.GPUMem, false, txPin{311,
			[]int64{59709687, 95255945, 130802203, 72359778, 110359778, 148359778}, 12300000}},
		{"bar1-fermi", gpu.Fermi2050(), bar1, core.GPUMem, false, txPin{2338,
			[]int64{351158429, 675153429, 999148429, 356401622, 680396622, 1004391622}, 0}},
		{"bar1-kepler", gpu.KeplerK20(), bar1, core.GPUMem, false, txPin{1229,
			[]int64{58853429, 90543429, 122233429, 69756622, 107756622, 145756622}, 0}},
		{"control", gpu.Fermi2050(), core.DefaultConfig(), core.HostMem, true, txPin{735,
			[]int64{59309944, 97309944, 135309944}, 0}},
	}
	for _, tc := range cases {
		got := runTXPin(t, tc.spec, tc.cfg, tc.src, tc.get)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: %d steps, times %v ps, GPU_P2P_TX busy %d ps\nwant %d steps, times %v ps, GPU_P2P_TX busy %d ps",
				tc.name, got.steps, got.times, int64(got.nios), tc.want.steps, tc.want.times, int64(tc.want.nios))
		}
	}
}
