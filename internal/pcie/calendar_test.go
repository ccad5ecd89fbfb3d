package pcie

import (
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
// reservations, probes and clock advances — and demands exact agreement
// on every returned time and on the cumulative busy-time counter. This
// is the pin that lets the calendar representation keep evolving
// without re-arguing its semantics.
func TestChannelMatchesReferenceModel(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1234} {
		rng := rand.New(rand.NewSource(seed))
		eng := sim.New()
		opt := NewChannel(eng, "opt", 4000*units.MBps)
		ref := &refChannel{eng: eng, bw: 4000 * units.MBps}
		for op := 0; op < 10_000; op++ {
			// Mostly near-horizon requests (the streaming pattern the fast
			// path serves), a tail of far-future and stale ones.
			from := eng.Now().Add(sim.Duration(rng.Intn(int(20 * sim.Microsecond))))
			if rng.Intn(10) == 0 {
				from = sim.Time(rng.Intn(int(5 * sim.Millisecond)))
			}
			n := units.ByteSize(rng.Intn(16*1024) + 1)
			switch rng.Intn(10) {
			case 0, 1, 2, 3: // framed reservation
				gs, ge := opt.Reserve(from, n)
				ws, we := ref.Reserve(from, n)
				if gs != ws || ge != we {
					t.Fatalf("seed %d op %d: Reserve(%v, %v) = [%v,%v), reference [%v,%v)",
						seed, op, from, n, gs, ge, ws, we)
				}
			case 4, 5, 6: // raw reservation
				gs, ge := opt.ReserveRaw(from, n)
				ws, we := ref.ReserveRaw(from, n)
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
			}
			if opt.BusyTime() != ref.busyTime {
				t.Fatalf("seed %d op %d: busyTime %v, reference %v",
					seed, op, opt.BusyTime(), ref.busyTime)
			}
		}
	}
}
