package gpu

import (
	"math"
	"testing"
	"testing/quick"

	"apenetsim/internal/pcie"
	"apenetsim/internal/sim"
	"apenetsim/internal/units"
)

func testRig(spec Spec) (*sim.Engine, *pcie.Fabric, *Device, *pcie.Device) {
	eng := sim.New()
	fab := pcie.NewFabric(eng, nil, "n0", "rc")
	sw := fab.Attach("plx", fab.Root(), pcie.Gen2x16, 150*sim.Nanosecond)
	g := New(eng, fab, "gpu0", spec, sw, pcie.Gen2x16, 150*sim.Nanosecond)
	nic := fab.Attach("nic", sw, pcie.Gen2x8, 150*sim.Nanosecond)
	return eng, fab, g, nic
}

func TestAllocatorBasics(t *testing.T) {
	a := NewAllocator(1*units.MB, 256)
	o1, err := a.Alloc(1000)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := a.Alloc(1000)
	if err != nil {
		t.Fatal(err)
	}
	if o1 == o2 {
		t.Fatal("overlapping allocations")
	}
	if o2 != 1024 {
		t.Fatalf("alignment: o2 = %d, want 1024", o2)
	}
	if err := a.Free(o1); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(o1); err == nil {
		t.Fatal("double free not detected")
	}
	// First-fit should reuse the hole.
	o3, err := a.Alloc(512)
	if err != nil {
		t.Fatal(err)
	}
	if o3 != o1 {
		t.Fatalf("hole not reused: %d", o3)
	}
}

func TestAllocatorExhaustionAndCoalesce(t *testing.T) {
	a := NewAllocator(4096, 256)
	var offs []int64
	for i := 0; i < 4; i++ {
		o, err := a.Alloc(1024)
		if err != nil {
			t.Fatal(err)
		}
		offs = append(offs, o)
	}
	if _, err := a.Alloc(1); err == nil {
		t.Fatal("expected out-of-memory")
	}
	// Free out of order; spans must coalesce back into one region.
	for _, i := range []int{2, 0, 3, 1} {
		if err := a.Free(offs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Alloc(4096); err != nil {
		t.Fatalf("coalescing failed: %v", err)
	}
}

func TestAllocatorNoOverlapProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		a := NewAllocator(16*units.MB, 256)
		type alloc struct {
			off int64
			n   int64
		}
		var live []alloc
		for _, s := range sizes {
			n := int64(s) + 1
			off, err := a.Alloc(units.ByteSize(n))
			if err != nil {
				continue
			}
			for _, o := range live {
				if off < o.off+o.n && o.off < off+n {
					return false // overlap
				}
			}
			live = append(live, alloc{off, n})
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// serveOne serves one read request of n bytes landing at t and returns
// when its last response byte arrives.
func serveOne(g *Device, t sim.Time, n units.ByteSize, resp *pcie.Path) sim.Time {
	return g.P2PServeTrain([]sim.Time{t}, n, n, resp)
}

// The P2P responder must deliver first data one head-latency after an
// unloaded request, and sustain the spec response rate for back-to-back
// requests — the two constants the paper's Fig 3 reports.
func TestP2PReadHeadLatencyAndRate(t *testing.T) {
	_, fab, g, nic := testRig(Fermi2050())
	resp := fab.Path(g.PCI, nic)
	// One request's response is one write burst: its first data is its last.
	first := serveOne(g, 0, g.Spec.P2PReqSize, resp)
	// first arrival ≈ head latency + chunk fetch + wire + path.
	lo := g.Spec.P2PReadHeadLatency
	hi := lo + sim.Microsecond
	if sim.Duration(first) < lo || sim.Duration(first) > hi {
		t.Fatalf("first data at %v, want within [%v,%v]", first, lo, hi)
	}
	// Sustained: serve 4 MB in back-to-back 128 B requests.
	eng2, fab2, g2, nic2 := testRig(Fermi2050())
	_ = eng2
	resp2 := fab2.Path(g2.PCI, nic2)
	var last sim.Time
	total := units.ByteSize(4 * units.MB)
	for off := units.ByteSize(0); off < total; off += 128 {
		last = serveOne(g2, 0, 128, resp2)
	}
	bw := units.Rate(total, sim.Duration(last))
	want := float64(g2.Spec.P2PResponseRate)
	if math.Abs(float64(bw)-want)/want > 0.05 {
		t.Fatalf("sustained P2P read rate = %v, want ~%v", bw, g2.Spec.P2PResponseRate)
	}
}

func TestP2PServeReadSerializesAcrossRequests(t *testing.T) {
	_, fab, g, nic := testRig(Fermi2050())
	resp := fab.Path(g.PCI, nic)
	last1 := serveOne(g, 0, 64*units.KB, resp)
	last2 := serveOne(g, 0, 64*units.KB, resp)
	if last2 <= last1 {
		t.Fatal("second read did not queue behind first")
	}
	gap := last2.Sub(last1)
	want := units.TransferTime(64*units.KB, g.Spec.P2PResponseRate)
	if math.Abs(float64(gap-want))/float64(want) > 0.05 {
		t.Fatalf("request spacing %v, want ~%v", gap, want)
	}
}

func TestBAR1FermiVsKepler(t *testing.T) {
	measure := func(spec Spec) units.Bandwidth {
		eng, fab, g, nic := testRig(spec)
		const n = 2 * units.MB
		var last sim.Time
		g.BAR1Reader(fab, nic).ReadFunc(n, func(t sim.Time) { last = t }, func() {})
		eng.Run()
		return units.Rate(n, sim.Duration(last))
	}
	fermi := measure(Fermi2050())
	kepler := measure(KeplerK20())
	// Paper Table I: Fermi/BAR1 150 MB/s, Kepler/BAR1 1.6 GB/s.
	if fermi < 100*units.MBps || fermi > 250*units.MBps {
		t.Fatalf("Fermi BAR1 read = %v, want ~150 MB/s", fermi)
	}
	if kepler < 1300*units.MBps || kepler > 2000*units.MBps {
		t.Fatalf("Kepler BAR1 read = %v, want ~1.6 GB/s", kepler)
	}
	if float64(kepler)/float64(fermi) < 6 {
		t.Fatalf("Kepler/Fermi BAR1 ratio = %.1f, want ~10x", float64(kepler)/float64(fermi))
	}
}

func TestBAR1ApertureExhaustion(t *testing.T) {
	eng, _, g, _ := testRig(Fermi2050())
	eng.Go("map", func(p *sim.Proc) {
		if err := g.BAR1Map(p, 200*units.MB); err != nil {
			t.Errorf("first map failed: %v", err)
		}
		if err := g.BAR1Map(p, 100*units.MB); err == nil {
			t.Error("expected aperture exhaustion")
		}
		g.BAR1Unmap(200 * units.MB)
		if err := g.BAR1Map(p, 100*units.MB); err != nil {
			t.Errorf("map after unmap failed: %v", err)
		}
	})
	eng.Run()
}

func TestDMATransferRate(t *testing.T) {
	_, fab, g, _ := testRig(Fermi2050())
	host := fab.Root()
	path := fab.Path(g.PCI, host)
	last := g.DMATransfer(0, D2H, 16*units.MB, path)
	bw := units.Rate(16*units.MB, sim.Duration(last))
	want := float64(g.Spec.DMABandwidth)
	if math.Abs(float64(bw)-want)/want > 0.05 {
		t.Fatalf("DMA rate = %v, want ~%v", bw, g.Spec.DMABandwidth)
	}
	// Engines for opposite directions are independent.
	last2 := g.DMATransfer(0, H2D, 16*units.MB, fab.Path(host, g.PCI))
	if d := last2.Sub(last); d > sim.Millisecond || d < -sim.Millisecond {
		t.Fatalf("H2D engine interfered with D2H: %v vs %v", last2, last)
	}
	// Same-direction transfers serialize.
	last3 := g.DMATransfer(0, D2H, 16*units.MB, path)
	if last3 <= last {
		t.Fatal("same-engine transfers did not serialize")
	}
}

func TestSpecPresets(t *testing.T) {
	for _, s := range []Spec{Fermi2050(), Fermi2070(), Fermi2075(), KeplerK20()} {
		if s.MemBytes <= 0 || s.P2PResponseRate <= 0 || s.PageSize != 64*units.KB {
			t.Fatalf("bad preset %+v", s)
		}
	}
	if Fermi2050().MemBytes != 3*units.GB || Fermi2070().MemBytes != 6*units.GB {
		t.Fatal("Fermi memory sizes wrong")
	}
	if !KeplerK20().ECC {
		t.Fatal("K20 should have ECC on (per Table I)")
	}
	if KeplerK20().Arch.String() != "Kepler" || Fermi2050().Arch.String() != "Fermi" {
		t.Fatal("arch strings")
	}
}

// refServeRead is the per-request P2PServeRead that request trains
// replaced, kept verbatim as an executable specification: serving a
// train must leave every response arrival, the read pipe's horizon and
// the P2P stats where this loop, called once per request in order, leaves
// them.
func (d *Device) refServeRead(reqArrival sim.Time, n units.ByteSize, respPath *pcie.Path) (first, last sim.Time) {
	if n <= 0 {
		return reqArrival, reqArrival
	}
	start := reqArrival
	if d.respBusyUntil > start {
		start = d.respBusyUntil
	}
	fetchEnd := start.Add(units.TransferTime(n, d.Spec.P2PResponseRate))
	d.respBusyUntil = fetchEnd
	d.stats.P2PReadRequests++
	d.stats.P2PReadBytes += int64(n)
	// Data leaves the GPU one pipe-latency after each piece is fetched.
	return respPath.Stream(start.Add(d.Spec.P2PReadHeadLatency), n, d.Spec.P2PResponseRate, d.Spec.P2PRespChunk)
}

// Two back-to-back request trains, the second landing while the read pipe
// still serves the first, must match refServeRead request by request:
// with a full and a partial last request, and with requests that fit one
// response burst (the hardware generator's) and ones that stream several
// (GPU_P2P_TX v1's one request per packet).
func TestP2PServeTrainMatchesPerRequestServe(t *testing.T) {
	for _, tc := range []struct {
		name   string
		n, per units.ByteSize
	}{
		{"full-last", 4096, 128},
		{"partial-last", 4000, 128},
		{"one-short-request", 100, 128},
		{"multi-burst", 4000, 512},
		{"one-packet", 4000, 4000},
	} {
		_, fab, g, nic := testRig(Fermi2050())
		_, refFab, ref, refNIC := testRig(Fermi2050())
		resp, refResp := fab.Path(g.PCI, nic), refFab.Path(ref.PCI, refNIC)
		k := int((tc.n + tc.per - 1) / tc.per)
		for train, t0 := range []sim.Time{0, sim.Time(sim.Microsecond)} {
			at := make([]sim.Time, k)
			for i := range at {
				at[i] = t0.Add(sim.Duration(i) * 80 * sim.Nanosecond)
			}
			var want sim.Time
			wants := make([]sim.Time, k)
			for i, t := range at {
				sz := tc.per
				if i == k-1 {
					sz = tc.n - units.ByteSize(k-1)*tc.per
				}
				_, wants[i] = ref.refServeRead(t, sz, refResp)
				if wants[i] > want {
					want = wants[i]
				}
			}
			if last := g.P2PServeTrain(at, tc.n, tc.per, resp); last != want {
				t.Errorf("%s train %d: last response byte at %v, reference %v", tc.name, train, last, want)
			}
			for i := range at {
				if at[i] != wants[i] {
					t.Errorf("%s train %d: request %d answered by %v, reference %v", tc.name, train, i, at[i], wants[i])
				}
			}
			if g.respBusyUntil != ref.respBusyUntil || g.Statistics() != ref.Statistics() {
				t.Errorf("%s train %d: read pipe busy until %v, stats %+v; reference %v, %+v",
					tc.name, train, g.respBusyUntil, g.Statistics(), ref.respBusyUntil, ref.Statistics())
			}
		}
	}
}
