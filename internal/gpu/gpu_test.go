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

// The P2P responder must deliver first data one head-latency after an
// unloaded request, and sustain the spec response rate for back-to-back
// requests — the two constants the paper's Fig 3 reports.
func TestP2PReadHeadLatencyAndRate(t *testing.T) {
	_, fab, g, nic := testRig(Fermi2050())
	resp := fab.Path(g.PCI, nic)
	first, _ := g.P2PServeRead(0, g.Spec.P2PReqSize, resp)
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
		_, last = g2.P2PServeRead(0, 128, resp2)
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
	_, last1 := g.P2PServeRead(0, 64*units.KB, resp)
	_, last2 := g.P2PServeRead(0, 64*units.KB, resp)
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
