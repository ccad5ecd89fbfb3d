package pcie

import (
	"fmt"
	"math/rand"
	"testing"

	"apenetsim/internal/sim"
	"apenetsim/internal/units"
)

// refChannel is the original linear-scan calendar, kept verbatim as an
// executable specification: every busy interval scanned front to back,
// expired entries sliced off eagerly, no memoization. The optimized
// Channel (tail fast path, binary search, lazy head prune, Trim) must be
// observably indistinguishable from it — same start, same end, same
// cumulative busy time — for any operation sequence.
type refChannel struct {
	eng      *sim.Engine
	bw       units.Bandwidth
	busy     []interval
	busyTime sim.Duration
}

func (c *refChannel) findSlot(from sim.Time, d sim.Duration) (start sim.Time, idx int) {
	i := 0
	for i < len(c.busy) && c.busy[i].end <= from {
		i++
	}
	start = from
	for i < len(c.busy) {
		iv := c.busy[i]
		if start.Add(d) <= iv.start {
			break
		}
		if iv.end > start {
			start = iv.end
		}
		i++
	}
	return start, i
}

func (c *refChannel) reserve(from sim.Time, d sim.Duration) (start, end sim.Time) {
	if now := c.eng.Now(); from < now {
		from = now
	}
	if d <= 0 {
		return from, from
	}
	c.prune()
	start, i := c.findSlot(from, d)
	end = start.Add(d)
	c.busy = append(c.busy, interval{})
	copy(c.busy[i+1:], c.busy[i:])
	c.busy[i] = interval{start, end}
	c.coalesce(i)
	c.busyTime += d
	return start, end
}

func (c *refChannel) coalesce(i int) {
	if i+1 < len(c.busy) && c.busy[i].end == c.busy[i+1].start {
		c.busy[i].end = c.busy[i+1].end
		c.busy = append(c.busy[:i+1], c.busy[i+2:]...)
	}
	if i > 0 && c.busy[i-1].end == c.busy[i].start {
		c.busy[i-1].end = c.busy[i].end
		c.busy = append(c.busy[:i], c.busy[i+1:]...)
	}
}

func (c *refChannel) prune() {
	now := c.eng.Now()
	k := 0
	for k < len(c.busy) && c.busy[k].end <= now {
		k++
	}
	if k > 0 {
		c.busy = append(c.busy[:0], c.busy[k:]...)
	}
}

func (c *refChannel) Reserve(from sim.Time, n units.ByteSize) (start, end sim.Time) {
	return c.reserve(from, units.TransferTime(wireSize(n), c.bw))
}

func (c *refChannel) ReserveRaw(from sim.Time, n units.ByteSize) (start, end sim.Time) {
	return c.reserve(from, units.TransferTime(n, c.bw))
}

func (c *refChannel) Probe(from sim.Time, n units.ByteSize) sim.Time {
	if now := c.eng.Now(); from < now {
		from = now
	}
	d := units.TransferTime(n, c.bw)
	if d <= 0 {
		return from
	}
	start, _ := c.findSlot(from, d)
	return start
}

// TestChannelMatchesReferenceModel drives the optimized calendar and the
// linear reference through 10k random operations — framed and raw
// reservations, trains of equal bursts, probes and clock advances — and
// demands exact agreement on every returned time and on the cumulative
// busy-time counter. A train is booked by the train loop on the optimized
// calendar and burst by burst on the reference. A twin optimized channel
// books every burst one at a time, and the train must leave the same
// reservation count, peak wait and byte counters as the twin. This is the
// pin that lets the calendar representation keep evolving without
// re-arguing its semantics.
func TestChannelMatchesReferenceModel(t *testing.T) {
	const bw = 4000 * units.MBps
	for _, seed := range []int64{1, 7, 42, 1234} {
		rng := rand.New(rand.NewSource(seed))
		eng := sim.New()
		opt := NewChannel(eng, "opt", bw)
		one := NewChannel(eng, "one", bw)
		ref := &refChannel{eng: eng, bw: bw}
		for op := 0; op < 10_000; op++ {
			// Mostly near-horizon requests (the streaming pattern the fast
			// path serves), a tail of far-future and stale ones.
			from := eng.Now().Add(sim.Duration(rng.Intn(int(20 * sim.Microsecond))))
			if rng.Intn(10) == 0 {
				from = sim.Time(rng.Intn(int(5 * sim.Millisecond)))
			}
			n := units.ByteSize(rng.Intn(16*1024) + 1)
			switch rng.Intn(12) {
			case 0, 1, 2, 3: // framed reservation
				gs, ge := opt.Reserve(from, n)
				ws, we := ref.Reserve(from, n)
				one.Reserve(from, n)
				if gs != ws || ge != we {
					t.Fatalf("seed %d op %d: Reserve(%v, %v) = [%v,%v), reference [%v,%v)",
						seed, op, from, n, gs, ge, ws, we)
				}
			case 4, 5, 6: // raw reservation
				gs, ge := opt.ReserveRaw(from, n)
				ws, we := ref.ReserveRaw(from, n)
				one.ReserveRaw(from, n)
				if gs != ws || ge != we {
					t.Fatalf("seed %d op %d: ReserveRaw(%v, %v) = [%v,%v), reference [%v,%v)",
						seed, op, from, n, gs, ge, ws, we)
				}
			case 7: // read-only probe
				if g, w := opt.Probe(from, n), ref.Probe(from, n); g != w {
					t.Fatalf("seed %d op %d: Probe(%v, %v) = %v, reference %v",
						seed, op, from, n, g, w)
				}
			case 8: // advance the clock, expiring a prefix of the calendar
				eng.RunUntil(eng.Now().Add(sim.Duration(rng.Intn(int(40 * sim.Microsecond)))))
			case 9: // advance the clock to the drawn request time (no extra draw)
				eng.RunUntil(from)
			case 10, 11: // a train of 1 to 64 equal bursts
				trainMatches(t, rng, eng, opt, one, ref, from, fmt.Sprintf("seed %d op %d", seed, op))
			}
			if opt.BusyTime() != ref.busyTime {
				t.Fatalf("seed %d op %d: busyTime %v, reference %v",
					seed, op, opt.BusyTime(), ref.busyTime)
			}
			if opt.Reservations() != one.Reservations() || opt.PeakWait() != one.PeakWait() ||
				opt.PayloadBytes() != one.PayloadBytes() || opt.WireBytes() != one.WireBytes() ||
				opt.BusyTime() != one.BusyTime() {
				t.Fatalf("seed %d op %d: %d reservations, peak wait %v, %d payload and %d wire bytes, busy %v; "+
					"one at a time %d, %v, %d, %d, %v", seed, op,
					opt.Reservations(), opt.PeakWait(), opt.PayloadBytes(), opt.WireBytes(), opt.BusyTime(),
					one.Reservations(), one.PeakWait(), one.PayloadBytes(), one.WireBytes(), one.BusyTime())
			}
		}
	}
}

// trainMatches books a random train on opt with the train loop and the
// same bursts one at a time on one and on the reference, and checks every
// burst's end. The train's bursts are framed or raw, may be empty, start
// at from or up to 2 µs before now, and are spaced below, at or above
// their wire time.
func trainMatches(t *testing.T, rng *rand.Rand, eng *sim.Engine, opt, one *Channel, ref *refChannel, from sim.Time, where string) {
	t.Helper()
	k := rng.Intn(64) + 1
	n := units.ByteSize(rng.Intn(1024))
	if rng.Intn(8) == 0 {
		n = 0
	}
	raw := rng.Intn(2) == 0
	d := opt.WireTime(n)
	if raw {
		d = units.TransferTime(n, opt.Bandwidth())
	}
	if rng.Intn(4) == 0 {
		from = eng.Now().Add(-sim.Duration(rng.Intn(int(2 * sim.Microsecond))))
		if from < 0 {
			from = 0
		}
	}
	var gap sim.Duration
	switch rng.Intn(4) {
	case 0: // all at once
	case 1:
		gap = d / 2
	case 2:
		gap = d
	case 3:
		gap = d + sim.Duration(rng.Int63n(int64(2*d)+1))
	}
	at := make([]sim.Time, k)
	for i := range at {
		at[i] = from.Add(sim.Duration(i) * gap)
	}
	want := make([]sim.Time, k)
	for i, t := range at {
		if raw {
			_, want[i] = ref.ReserveRaw(t, n)
			one.ReserveRaw(t, n)
		} else {
			_, want[i] = ref.Reserve(t, n)
			one.Reserve(t, n)
		}
	}
	if raw {
		opt.reserveRawTrain(at, n)
	} else {
		opt.reserveTrain(at, n)
	}
	for i := range at {
		if at[i] != want[i] {
			t.Fatalf("%s: train of %d bursts of %v (raw %v) from %v every %v: burst %d ends %v, reference %v",
				where, k, n, raw, from, gap, i, at[i], want[i])
		}
	}
}

// refStream is Stream as it booked its chunks before trains, one Send per
// chunk, kept verbatim as the reference for the train-booked Stream.
func (p *Path) refStream(from sim.Time, n units.ByteSize, rate units.Bandwidth, chunk units.ByteSize) (first, last sim.Time) {
	if n <= 0 {
		return from, from
	}
	if chunk <= 0 {
		panic("pcie: non-positive chunk")
	}
	var sent units.ByteSize
	k := 0
	for sent < n {
		sz := chunk
		if sz > n-sent {
			sz = n - sent
		}
		sent += sz
		ready := from.Add(units.TransferTime(sent, rate))
		_, arr := p.Send(ready, sz)
		if k == 0 {
			first = arr
		}
		last = arr
		k++
	}
	return first, last
}

// Stream books its chunks as trains, a block of equal chunks at a time;
// on two identical fabrics under the same random cross traffic it must
// return what refStream returns and leave every channel's calendar and
// counters where refStream leaves them: streams of fewer and more chunks
// than a block, with and without a partial last chunk.
func TestStreamMatchesChunkByChunk(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	eng, f, gpu, nic := newTestFabric()
	refEng, rf, refGPU, refNIC := newTestFabric()
	paths := [][2]*Path{
		{f.Path(gpu, nic), rf.Path(refGPU, refNIC)},
		{f.Path(nic, f.Root()), rf.Path(refNIC, rf.Root())},
	}
	var chans, refChans []*Channel
	for _, p := range paths {
		chans = append(chans, p[0].channels...)
		refChans = append(refChans, p[1].channels...)
	}
	for op := 0; op < 2000; op++ {
		p := paths[rng.Intn(len(paths))]
		from := eng.Now().Add(sim.Duration(rng.Intn(int(10 * sim.Microsecond))))
		switch rng.Intn(4) {
		case 0: // cross traffic
			n := units.ByteSize(rng.Intn(8192) + 1)
			p[0].Send(from, n)
			p[1].Send(from, n)
		case 1: // advance the clock
			d := sim.Duration(rng.Intn(int(20 * sim.Microsecond)))
			eng.RunUntil(eng.Now().Add(d))
			refEng.RunUntil(refEng.Now().Add(d))
		default:
			n := units.ByteSize(rng.Intn(64*1024) + 1)
			chunk := units.ByteSize(64 << rng.Intn(7))
			rate := units.Bandwidth(rng.Intn(6000)+500) * units.MBps
			gf, gl := p[0].Stream(from, n, rate, chunk)
			wf, wl := p[1].refStream(from, n, rate, chunk)
			if gf != wf || gl != wl {
				t.Fatalf("op %d: Stream(%v, %v, %v, %v) = %v, %v; chunk by chunk %v, %v",
					op, from, n, rate, chunk, gf, gl, wf, wl)
			}
		}
		for i, ch := range chans {
			ref := refChans[i]
			if ch.BusyTime() != ref.BusyTime() || ch.Reservations() != ref.Reservations() ||
				ch.PeakWait() != ref.PeakWait() || ch.PayloadBytes() != ref.PayloadBytes() ||
				ch.WireBytes() != ref.WireBytes() {
				t.Fatalf("op %d: channel %s differs from its chunk-by-chunk twin", op, ch.Name())
			}
		}
	}
}

// TestFullCalendarReclaimsDeadPrefix pins that a calendar whose coming
// bookings would overflow its full array while busy[:head] still holds
// expired intervals, a third of the array or more, reclaims that
// prefix instead of growing the array — for a booking appended at the
// tail, one inserted into a gap, and a train that needs more than the one
// free slot — while a smaller dead prefix lets the array grow rather than
// copy the live calendar on every booking that finds it full. Either way
// the live calendar is unchanged by the move.
func TestFullCalendarReclaimsDeadPrefix(t *testing.T) {
	ns := func(n int) sim.Time { return sim.Time(sim.Duration(n) * sim.Nanosecond) }
	d := 5 * sim.Nanosecond
	for _, tc := range []struct {
		name    string
		n       int      // 10 ns bursts booked 20 ns apart in an array of cap 8
		now     sim.Time // expires the bursts that ended by then
		book    func(ch *Channel)
		wantCap int
		want    []interval
	}{
		{"tail", 8, ns(75), func(ch *Channel) { ch.reserve(ns(200), d) }, 8, []interval{
			{ns(80), ns(90)}, {ns(100), ns(110)}, {ns(120), ns(130)}, {ns(140), ns(150)}, {ns(200), ns(205)}}},
		{"gap", 8, ns(75), func(ch *Channel) { ch.reserve(ns(80), d) }, 8, []interval{
			{ns(80), ns(95)}, {ns(100), ns(110)}, {ns(120), ns(130)}, {ns(140), ns(150)}}},
		{"train", 7, ns(55), func(ch *Channel) { ch.train([]sim.Time{ns(200), ns(220), ns(240)}, d) }, 8, []interval{
			{ns(60), ns(70)}, {ns(80), ns(90)}, {ns(100), ns(110)}, {ns(120), ns(130)},
			{ns(200), ns(205)}, {ns(220), ns(225)}, {ns(240), ns(245)}}},
		{"sliver", 8, ns(15), func(ch *Channel) { ch.reserve(ns(200), d) }, 16, []interval{
			{ns(20), ns(30)}, {ns(40), ns(50)}, {ns(60), ns(70)}, {ns(80), ns(90)},
			{ns(100), ns(110)}, {ns(120), ns(130)}, {ns(140), ns(150)}, {ns(200), ns(205)}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.New()
			ch := NewChannel(eng, "ch", 4000*units.MBps)
			// The dead prefix never outnumbers the live part, so only the
			// full array can make prune compact.
			ch.busy = make([]interval, tc.n, 8)
			for i := range ch.busy {
				ch.busy[i] = interval{ns(20 * i), ns(20*i + 10)}
			}
			eng.RunUntil(tc.now)
			tc.book(ch)
			if got := cap(ch.busy); got != tc.wantCap {
				t.Errorf("array cap %d, want %d", got, tc.wantCap)
			}
			if got := ch.busy[ch.head:]; fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Errorf("live calendar %v, want %v", got, tc.want)
			}
		})
	}
}
