package pcie

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"apenetsim/internal/sim"
	"apenetsim/internal/units"
)

func newTestFabric() (*sim.Engine, *Fabric, *Device, *Device) {
	eng := sim.New()
	f := NewFabric(eng, nil, "node0", "rc")
	sw := f.Attach("plx", f.Root(), Gen2x16, 150*sim.Nanosecond)
	gpu := f.Attach("gpu0", sw, Gen2x16, 150*sim.Nanosecond)
	nic := f.Attach("apenet", sw, Gen2x8, 150*sim.Nanosecond)
	return eng, f, gpu, nic
}

func TestLinkSpecBandwidth(t *testing.T) {
	if bw := Gen2x8.RawBandwidth(); bw != 4000*units.MBps {
		t.Fatalf("Gen2 x8 = %v, want 4 GB/s", bw)
	}
	if bw := Gen2x4.RawBandwidth(); bw != 2000*units.MBps {
		t.Fatalf("Gen2 x4 = %v", bw)
	}
	if bw := (LinkSpec{Gen: 1, Lanes: 8}).RawBandwidth(); bw != 2000*units.MBps {
		t.Fatalf("Gen1 x8 = %v", bw)
	}
}

func TestWireSizeOverhead(t *testing.T) {
	// 4 KB = 16 TLPs of 256 B -> 16*28 B overhead.
	if got := wireSize(4 * units.KB); got != 4*units.KB+16*TLPOverhead {
		t.Fatalf("wireSize(4K) = %d", got)
	}
	// A 1-byte write still pays one TLP of overhead.
	if got := wireSize(1); got != 1+TLPOverhead {
		t.Fatalf("wireSize(1) = %d", got)
	}
	if got := wireSize(0); got != 0 {
		t.Fatalf("wireSize(0) = %d", got)
	}
}

func TestPathResolution(t *testing.T) {
	_, f, gpu, nic := newTestFabric()
	p := f.Path(nic, gpu)
	if p.Hops() != 2 {
		t.Fatalf("nic->gpu hops = %d, want 2 (nic.up, gpu.down)", p.Hops())
	}
	if p.Latency() != 300*sim.Nanosecond {
		t.Fatalf("latency = %v", p.Latency())
	}
	rcPath := f.Path(gpu, f.Root())
	if rcPath.Hops() != 2 { // gpu.up, plx.up
		t.Fatalf("gpu->rc hops = %d", rcPath.Hops())
	}
	self := f.Path(gpu, gpu)
	if self.Hops() != 0 || self.Latency() != 0 {
		t.Fatal("self path should be empty")
	}
	// Routes are memoized: each pair resolves to one shared Path.
	if f.Path(nic, gpu) != p || f.Path(gpu, f.Root()) != rcPath || f.Path(gpu, gpu) != self ||
		f.Path(gpu, nic) == p || f.Path(gpu, nic) != f.Path(gpu, nic) {
		t.Fatal("Path does not return one shared route per device pair")
	}
}

func TestChannelReserveSerializes(t *testing.T) {
	eng := sim.New()
	c := NewChannel(eng, "c", 4000*units.MBps)
	s1, e1 := c.Reserve(0, 4*units.KB)
	s2, e2 := c.Reserve(0, 4*units.KB)
	if s1 != 0 {
		t.Fatalf("first burst should start immediately, got %v", s1)
	}
	if s2 != e1 {
		t.Fatalf("second burst must queue behind first: s2=%v e1=%v", s2, e1)
	}
	if e2.Sub(s2) != e1.Sub(s1) {
		t.Fatal("equal bursts must have equal wire times")
	}
}

func TestStreamingBandwidthMatchesLink(t *testing.T) {
	// Blasting 4 KB bursts over an x8 Gen2 path should deliver the raw
	// 4 GB/s derated only by TLP framing (256/284 ~ 90%).
	_, f, _, nic := newTestFabric()
	path := f.Path(nic, f.Root())
	var last sim.Time
	total := units.ByteSize(0)
	now := sim.Time(0)
	for i := 0; i < 1000; i++ {
		free, arr := path.Send(now, 4*units.KB)
		now = free
		last = arr
		total += 4 * units.KB
	}
	bw := units.Rate(total, sim.Duration(last))
	want := 4000e6 * 256.0 / 284.0
	if math.Abs(bw.MBpsValue()-want/1e6) > 30 {
		t.Fatalf("streaming bw = %v, want ~%.0f MB/s", bw, want/1e6)
	}
}

func TestFullDuplexIndependence(t *testing.T) {
	// Upstream and downstream reservations must not interfere.
	_, f, gpu, _ := newTestFabric()
	up := f.Path(gpu, f.Root())
	down := f.Path(f.Root(), gpu)
	_, upArr := up.Send(0, 1*units.MB)
	_, downArr := down.Send(0, 1*units.MB)
	if d := upArr.Sub(downArr); d > sim.Nanosecond || d < -sim.Nanosecond {
		t.Fatalf("duplex directions interfered: up=%v down=%v", upArr, downArr)
	}
}

func TestSharedUplinkContention(t *testing.T) {
	// GPU->RC and NIC->RC share the plx.up channel; concurrent streams
	// must halve each other's bandwidth there.
	eng := sim.New()
	f := NewFabric(eng, nil, "n", "rc")
	sw := f.Attach("plx", f.Root(), Gen2x8, 0) // x8 shared uplink
	gpu := f.Attach("gpu0", sw, Gen2x16, 0)
	nic := f.Attach("nic", sw, Gen2x16, 0)
	pg := f.Path(gpu, f.Root())
	pn := f.Path(nic, f.Root())
	var arrG, arrN sim.Time
	for i := 0; i < 100; i++ {
		_, arrG = pg.Send(0, 4*units.KB)
		_, arrN = pn.Send(0, 4*units.KB)
	}
	// 800 KB total over a 4 GB/s bottleneck: ~222 us with framing.
	last := arrG
	if arrN > last {
		last = arrN
	}
	bw := units.Rate(800*units.KB, sim.Duration(last))
	if bw > 3700*units.MBps {
		t.Fatalf("shared uplink did not serialize: %v", bw)
	}
}

// readTime starts one n-byte read at time 0 and returns the time its
// last completion lands.
func readTime(eng *sim.Engine, rd *Reader, n units.ByteSize) sim.Duration {
	var last sim.Time
	rd.ReadFunc(n, func(t sim.Time) { last = t }, func() {})
	eng.Run()
	return sim.Duration(last)
}

func TestReaderClosedLoopBandwidth(t *testing.T) {
	// A DMA engine with 8 outstanding 512 B reads against a target with
	// 600 ns completion latency: BW = T*chunk/(RTT) capped by the link.
	eng := sim.New()
	f := NewFabric(eng, nil, "n", "rc")
	nic := f.Attach("nic", f.Root(), Gen2x8, 150*sim.Nanosecond)
	f.Root().CompletionLatency = 600 * sim.Nanosecond
	rd := f.NewReader(nic, f.Root(), 8, 512)
	got := units.Rate(4*units.MB, readTime(eng, rd, 4*units.MB))
	if got < 1500*units.MBps || got > 3800*units.MBps {
		t.Fatalf("closed-loop read bw = %v, want between 1.5 and 3.8 GB/s", got)
	}
	// Fewer tags must strictly reduce bandwidth.
	eng2 := sim.New()
	f2 := NewFabric(eng2, nil, "n", "rc")
	nic2 := f2.Attach("nic", f2.Root(), Gen2x8, 150*sim.Nanosecond)
	f2.Root().CompletionLatency = 600 * sim.Nanosecond
	rd2 := f2.NewReader(nic2, f2.Root(), 1, 512)
	got2 := units.Rate(1*units.MB, readTime(eng2, rd2, 1*units.MB))
	if got2 >= got {
		t.Fatalf("1 tag (%v) should be slower than 8 tags (%v)", got2, got)
	}
}

func TestUtilizationAccounting(t *testing.T) {
	eng := sim.New()
	c := NewChannel(eng, "c", 1000*units.MBps)
	_, end := c.Reserve(0, 1*units.MB)
	// ~1.11 ms busy including framing overhead.
	if u := c.Utilization(end); math.Abs(u-1.0) > 1e-9 {
		t.Fatalf("utilization = %f, want 1.0", u)
	}
	if u := c.Utilization(end * 2); math.Abs(u-0.5) > 1e-9 {
		t.Fatalf("utilization = %f, want 0.5", u)
	}
	if c.PayloadBytes() != int64(units.MB) {
		t.Fatalf("payload bytes = %d", c.PayloadBytes())
	}
	if c.WireBytes() <= c.PayloadBytes() {
		t.Fatal("wire bytes must exceed payload bytes")
	}
}

func TestPathDifferentFabricsPanics(t *testing.T) {
	eng := sim.New()
	f1 := NewFabric(eng, nil, "a", "rc")
	f2 := NewFabric(eng, nil, "b", "rc")
	d1 := f1.Attach("x", f1.Root(), Gen2x8, 0)
	d2 := f2.Attach("y", f2.Root(), Gen2x8, 0)
	// d1's memoized route to itself sits at the index d2 has in its own
	// fabric; it must not answer for d2.
	f1.Path(d1, d1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for cross-fabric path")
		}
	}()
	f1.Path(d1, d2)
}

// Property: channel reservations never overlap and each starts no earlier
// than requested — the gap-filling scheduler must behave like a serial
// wire no matter the reservation order.
func TestChannelNoOverlapProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 50; iter++ {
		eng := sim.New()
		c := NewChannel(eng, "c", 1000*units.MBps)
		type iv struct{ s, e sim.Time }
		var placed []iv
		for k := 0; k < 300; k++ {
			from := sim.Time(rng.Intn(2_000_000)) * sim.Time(sim.Nanosecond)
			n := units.ByteSize(rng.Intn(8192) + 1)
			s, e := c.Reserve(from, n)
			if s < from {
				t.Fatalf("start %v before requested %v", s, from)
			}
			if e.Sub(s) != c.WireTime(n) {
				t.Fatalf("duration mismatch")
			}
			placed = append(placed, iv{s, e})
		}
		sort.Slice(placed, func(i, j int) bool { return placed[i].s < placed[j].s })
		for i := 1; i < len(placed); i++ {
			if placed[i].s < placed[i-1].e {
				t.Fatalf("iter %d: reservations overlap: [%v,%v) and [%v,%v)",
					iter, placed[i-1].s, placed[i-1].e, placed[i].s, placed[i].e)
			}
		}
	}
}

// Gap-filling: a later, smaller reservation must fit into an idle gap left
// by earlier paced bookings instead of queueing behind the horizon.
func TestChannelGapFilling(t *testing.T) {
	eng := sim.New()
	c := NewChannel(eng, "c", 1000*units.MBps)
	// Two bursts with a gap between them.
	c.Reserve(0, 1024)
	farStart := sim.Time(100 * sim.Microsecond)
	c.ReserveRaw(farStart, 1024)
	// A small raw burst requested early must land in the gap, not after
	// the far reservation.
	s, e := c.ReserveRaw(sim.Time(10*sim.Microsecond), 512)
	if e > farStart {
		t.Fatalf("gap not used: got [%v,%v), far horizon at %v", s, e, farStart)
	}
}

// Probe must predict exactly the start time the next ReserveRaw would
// get — gap filling included — without changing channel state.
func TestChannelProbeMatchesReserveRaw(t *testing.T) {
	eng := sim.New()
	ch := NewChannel(eng, "probe", units.Bandwidth(1e9))
	// Seed a busy pattern with a gap between two bursts.
	ch.ReserveRaw(0, 1000)
	ch.ReserveRaw(sim.Time(3*sim.Microsecond), 1000)

	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		from := sim.Time(rng.Intn(int(6 * sim.Microsecond)))
		n := units.ByteSize(1 + rng.Intn(4000))
		want := ch.Probe(from, n)
		if again := ch.Probe(from, n); again != want {
			t.Fatalf("Probe mutated channel state: %v then %v", want, again)
		}
		start, _ := ch.ReserveRaw(from, n)
		if start != want {
			t.Fatalf("iter %d: Probe(%v, %v) = %v, ReserveRaw started %v", i, from, n, want, start)
		}
	}
}

// The channel is a torus link's meter: every booking counts, and the
// peak wait is the longest delay past a requested start — zero when
// uncontended, exactly the queueing delay behind a busy interval, not
// raised by a gap-filling booking that waits less, and untouched by
// Probe, which books nothing.
func TestChannelCounters(t *testing.T) {
	eng := sim.New()
	ch := NewChannel(eng, "link", units.Bandwidth(1e9)) // 1000 B = 1 µs
	us := func(f float64) sim.Time { return sim.Time(f * float64(sim.Microsecond)) }
	check := func(step string, reservations int64, peak sim.Duration) {
		t.Helper()
		if ch.Reservations() != reservations || ch.PeakWait() != peak {
			t.Fatalf("%s: %d reservations, peak wait %v; want %d, %v",
				step, ch.Reservations(), ch.PeakWait(), reservations, peak)
		}
	}

	ch.ReserveRaw(0, 1000)     // [0,1) µs
	ch.ReserveRaw(us(5), 1000) // [5,6) µs
	check("uncontended", 2, 0)

	if start, _ := ch.ReserveRaw(us(0.5), 1000); start != us(1) {
		t.Fatalf("queued booking started at %v, want 1µs", start)
	}
	check("queued behind [0,1)", 3, 500*sim.Nanosecond)

	// Requested at 1.8 µs, it waits 200 ns for [0,2) to drain and lands
	// in the gap before [5,6).
	if start, _ := ch.ReserveRaw(us(1.8), 1000); start != us(2) {
		t.Fatalf("gap-filling booking started at %v, want 2µs", start)
	}
	check("gap-filling", 4, 500*sim.Nanosecond)

	busy, wire := ch.BusyTime(), ch.WireBytes()
	if start := ch.Probe(us(4.5), 1000); start != us(6) {
		t.Fatalf("probe start %v, want 6µs", start)
	}
	check("probe", 4, 500*sim.Nanosecond)
	if ch.BusyTime() != busy || ch.WireBytes() != wire || wire != 4000 {
		t.Fatalf("probe moved busy time %v -> %v or wire bytes %d -> %d (want 4000)",
			busy, ch.BusyTime(), wire, ch.WireBytes())
	}
}
