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
// expired entries sliced off eagerly, no memoization, no runs. The
// optimized Channel (tail fast path, binary search, lazy head prune, run
// entries) must be observably indistinguishable from it — same start,
// same end, same cumulative busy time, the same busy picoseconds — for
// any operation sequence.
type refChannel struct {
	eng      *sim.Engine
	bw       units.Bandwidth
	busy     []refInterval
	busyTime sim.Duration
}

// refInterval is the reference calendar's entry: one busy span.
type refInterval struct {
	start, end sim.Time
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
	c.busy = append(c.busy, refInterval{})
	copy(c.busy[i+1:], c.busy[i:])
	c.busy[i] = refInterval{start, end}
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
// reservations, trains of equal bursts, probes, clock advances, and
// trains booked as runs whose gaps then take reservations and probes —
// and demands exact agreement on every returned time, on the cumulative
// busy-time counter and on the busy picoseconds still ahead of the clock.
// A train is booked by the train loop on the optimized calendar and burst
// by burst on the reference. A twin optimized channel books every burst
// one at a time, and the train must leave the same reservation count,
// peak wait and byte counters as the twin. The optimized calendar must
// keep its entries well formed (calendarFault) after every operation, and
// each seed must split a run at least once. This is the pin that lets
// the calendar representation keep evolving without re-arguing its
// semantics.
func TestChannelMatchesReferenceModel(t *testing.T) {
	const bw = 4000 * units.MBps
	for _, seed := range []int64{1, 7, 42, 1234} {
		splits := 0
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
			switch rng.Intn(13) {
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
			case 12: // a run, then bookings and probes into its gaps
				splits += runGapsMatch(t, rng, eng, opt, one, ref, fmt.Sprintf("seed %d op %d", seed, op))
			}
			if opt.BusyTime() != ref.busyTime {
				t.Fatalf("seed %d op %d: busyTime %v, reference %v",
					seed, op, opt.BusyTime(), ref.busyTime)
			}
			if f := calendarFault(opt); f != "" {
				t.Fatalf("seed %d op %d: %s", seed, op, f)
			}
			if g, w := fmt.Sprint(opt.ahead()), fmt.Sprint(ref.ahead()); g != w {
				t.Fatalf("seed %d op %d: busy from %v on\n%s\nreference\n%s", seed, op, eng.Now(), g, w)
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
		if splits == 0 {
			t.Fatalf("seed %d: no booking split a run", seed)
		}
	}
}

// runGapsMatch books a train that a run holds — its first burst a little
// past the calendar's tail, its spacing wider than its burst — with the
// train loop on opt and burst by burst on one and on the reference, and
// checks every burst's end. Then it books and probes raw bursts of up to
// twice the train's burst at random times within the train, on all three,
// with the clock now and then moved into the train, and checks every
// start and end. It returns how many of those bookings landed in a gap
// of a run on opt, splitting it.
func runGapsMatch(t *testing.T, rng *rand.Rand, eng *sim.Engine, opt, one *Channel, ref *refChannel, where string) (splits int) {
	t.Helper()
	from := eng.Now()
	if n := len(opt.busy); n > opt.head && opt.busy[n-1].end > from {
		from = opt.busy[n-1].end
	}
	from = from.Add(sim.Duration(rng.Intn(int(sim.Microsecond))))
	n := units.ByteSize(rng.Intn(256) + 1)
	d := units.TransferTime(n, opt.Bandwidth())
	stride := d + 1 + sim.Duration(rng.Int63n(int64(3*d)))
	at := make([]sim.Time, rng.Intn(63)+2)
	want := make([]sim.Time, len(at))
	for i := range at {
		at[i] = from.Add(sim.Duration(i) * stride)
		_, want[i] = ref.ReserveRaw(at[i], n)
		one.ReserveRaw(at[i], n)
	}
	entries := len(opt.busy) - opt.head
	opt.reserveRawTrain(at, n)
	if len(opt.busy)-opt.head > entries+1 {
		t.Fatalf("%s: a train of %d bursts of %v every %v past the tail added %d entries",
			where, len(at), d, stride, len(opt.busy)-opt.head-entries)
	}
	for i := range at {
		if at[i] != want[i] {
			t.Fatalf("%s: run of %d bursts of %v every %v from %v: burst %d ends %v, reference %v",
				where, len(at), d, stride, from, i, at[i], want[i])
		}
	}
	span := int64(len(at)) * int64(stride)
	for k := rng.Intn(8) + 1; k > 0; k-- {
		when := from.Add(sim.Duration(rng.Int63n(span)))
		m := units.ByteSize(rng.Intn(2*int(n)) + 1)
		switch rng.Intn(4) {
		case 0:
			if g, w := opt.Probe(when, m), ref.Probe(when, m); g != w {
				t.Fatalf("%s: Probe(%v, %v) in a run = %v, reference %v", where, when, m, g, w)
			}
		case 1:
			eng.RunUntil(when)
		default:
			clamped := when
			if now := eng.Now(); clamped < now {
				clamped = now
			}
			if s, i := opt.findSlot(clamped, opt.transfer(m)); i < len(opt.busy) && s > opt.busy[i].start {
				splits++
			}
			gs, ge := opt.ReserveRaw(when, m)
			ws, we := ref.ReserveRaw(when, m)
			one.ReserveRaw(when, m)
			if gs != ws || ge != we {
				t.Fatalf("%s: ReserveRaw(%v, %v) in a run = [%v,%v), reference [%v,%v)",
					where, when, m, gs, ge, ws, we)
			}
		}
	}
	return splits
}

// ahead returns the channel's busy time from now on as merged spans, its
// runs expanded into their bursts.
func (c *Channel) ahead() []refInterval {
	var out []refInterval
	for _, e := range c.busy[c.head:] {
		if e.stride == 0 {
			out = mergeAhead(out, c.eng.Now(), e.start, e.end)
			continue
		}
		for s := e.start; s < e.end; s = s.Add(sim.Duration(e.stride)) {
			out = mergeAhead(out, c.eng.Now(), s, s.Add(sim.Duration(e.dur)))
		}
	}
	return out
}

// ahead returns the reference's busy time from now on as merged spans.
func (c *refChannel) ahead() []refInterval {
	var out []refInterval
	for _, e := range c.busy {
		out = mergeAhead(out, c.eng.Now(), e.start, e.end)
	}
	return out
}

// mergeAhead appends the part of [start, end) after now to sorted spans,
// merging it with the last span if they touch.
func mergeAhead(out []refInterval, now, start, end sim.Time) []refInterval {
	if end <= now {
		return out
	}
	if start < now {
		start = now
	}
	if n := len(out); n > 0 && out[n-1].end == start {
		out[n-1].end = end
		return out
	}
	return append(out, refInterval{start, end})
}

// calendarFault describes the first live entry of c that is not well
// formed, or returns "": entries sorted and disjoint; a plain interval
// non-empty with no run fields; a run of two or more whole bursts, its
// spacing wider than its burst.
func calendarFault(c *Channel) string {
	live := c.busy[c.head:]
	for i, e := range live {
		span, stride, dur := e.end.Sub(e.start), sim.Duration(e.stride), sim.Duration(e.dur)
		switch {
		case i > 0 && e.start < live[i-1].end:
			return fmt.Sprintf("entry %d %v overlaps entry %d %v", i, e, i-1, live[i-1])
		case e.stride == 0 && (e.dur != 0 || span <= 0):
			return fmt.Sprintf("entry %d %v is not a busy interval", i, e)
		case e.stride != 0 && (dur <= 0 || stride <= dur || span <= dur || (span-dur)%stride != 0):
			return fmt.Sprintf("entry %d %v is not a run of two or more bursts with gaps", i, e)
		}
	}
	return ""
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
// tail, one inserted into a gap, and a train that counts as more bookings
// than the one free slot, though it books as one run entry — while a
// smaller dead prefix lets the array grow rather than copy the live
// calendar on every booking that finds it full. Either way the live
// calendar is unchanged by the move.
func TestFullCalendarReclaimsDeadPrefix(t *testing.T) {
	ns := func(n int) sim.Time { return sim.Time(sim.Duration(n) * sim.Nanosecond) }
	iv := func(start, end int) interval { return interval{start: ns(start), end: ns(end)} }
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
			iv(80, 90), iv(100, 110), iv(120, 130), iv(140, 150), iv(200, 205)}},
		{"gap", 8, ns(75), func(ch *Channel) { ch.reserve(ns(80), d) }, 8, []interval{
			iv(80, 95), iv(100, 110), iv(120, 130), iv(140, 150)}},
		{"train", 7, ns(55), func(ch *Channel) { ch.train([]sim.Time{ns(200), ns(220), ns(240)}, d) }, 8, []interval{
			iv(60, 70), iv(80, 90), iv(100, 110), iv(120, 130),
			{ns(200), ns(245), int32(20 * sim.Nanosecond), int32(d)}}},
		{"sliver", 8, ns(15), func(ch *Channel) { ch.reserve(ns(200), d) }, 16, []interval{
			iv(20, 30), iv(40, 50), iv(60, 70), iv(80, 90),
			iv(100, 110), iv(120, 130), iv(140, 150), iv(200, 205)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.New()
			ch := NewChannel(eng, "ch", 4000*units.MBps)
			// The dead prefix never outnumbers the live part, so only the
			// full array can make prune compact.
			ch.busy = make([]interval, tc.n, 8)
			for i := range ch.busy {
				ch.busy[i] = iv(20*i, 20*i+10)
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

// TestEvenTrainIsOneEntry pins when a train books as one run entry: its
// bursts evenly spaced wider than a burst, the first at or past the
// tail and not before now, the spacing within an entry's int32 fields.
// Any other train books burst by burst, as one interval per burst unless
// bursts touch, and a touching train coalesces into one plain interval.
// The tail ends at 100 ns and the clock reads 50 ns; bursts last 8 ns.
func TestEvenTrainIsOneEntry(t *testing.T) {
	ns := func(n int64) sim.Time { return sim.Time(sim.Duration(n) * sim.Nanosecond) }
	d := 8 * sim.Nanosecond
	even := func(first, every int64) []sim.Time {
		at := make([]sim.Time, 32)
		for i := range at {
			at[i] = ns(first + int64(i)*every)
		}
		return at
	}
	uneven := even(200, 80)
	uneven[31] += sim.Time(sim.Nanosecond)
	for _, tc := range []struct {
		name  string
		at    []sim.Time
		added int  // live entries the train adds
		run   bool // the last entry is a run
	}{
		{"paced past the tail", even(200, 80), 1, true},
		{"paced from the tail", even(100, 80), 1, true},
		{"back to back", even(200, 8), 1, false},
		{"first before now", even(40, 80), 32, false},
		{"first before the tail", even(90, 80), 31, false}, // its first burst joins the tail
		{"uneven", uneven, 32, false},
		{"wider than int32", even(200, 3_000_000), 32, false},
		{"one burst", even(200, 80)[:1], 1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.New()
			ch := NewChannel(eng, "ch", 4000*units.MBps)
			ch.reserve(ns(92), d)
			eng.RunUntil(ns(50))
			ch.train(tc.at, d)
			live := ch.busy[ch.head:]
			if added := len(live) - 1; added != tc.added || (live[len(live)-1].stride != 0) != tc.run {
				t.Errorf("train added %d entries, the last %v; want %d, run %v", added, live[len(live)-1], tc.added, tc.run)
			}
			if f := calendarFault(ch); f != "" {
				t.Error(f)
			}
		})
	}
}
