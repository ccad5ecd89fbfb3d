package pcie

import (
	"math/rand"
	"testing"

	"apenetsim/internal/sim"
	"apenetsim/internal/units"
)

// BenchmarkChannelReserve measures the two calendar shapes that matter:
//
// hot-tail is the long-lived-link pattern that dominates at torus scale —
// a paced stream booking burst after burst just past the horizon, each
// reservation separated by an idle gap so the intervals never coalesce.
// The tail fast path makes this O(1) per reservation; the seed's linear
// findSlot scan made it O(calendar length), i.e. quadratic over a run.
//
// random-insert scatters reservations over a wide window, forcing mid-
// calendar insertion shifts — the worst case the binary search bounds.
//
// train books, per op, a GPU P2P request train at the tail: 32 read
// request TLPs of 32 raw bytes paced 80 ns apart, the train a v2/v3 card
// books per 4 KB packet, each train continuing the last one's pacing. The
// clock moves to each train's first request, so the calendar holds about
// one train, as a card's upstream channel does.
//
// steady-near-cap keeps about 1000 live intervals in an array of cap
// 1024: each op moves the clock one burst on, expiring the oldest
// interval, and books a burst 1000 slots ahead. The array fills with a
// dead prefix of a few dozen intervals, the case where compacting every
// full array would copy the whole live calendar every few bookings.
func BenchmarkChannelReserve(b *testing.B) {
	b.Run("hot-tail", func(b *testing.B) {
		eng := sim.New()
		c := NewChannel(eng, "c", 4000*units.MBps)
		from := sim.Time(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, end := c.Reserve(from, 4*units.KB)
			from = end.Add(sim.Nanosecond)
		}
	})
	b.Run("random-insert", func(b *testing.B) {
		eng := sim.New()
		c := NewChannel(eng, "c", 4000*units.MBps)
		rng := rand.New(rand.NewSource(1))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			from := sim.Time(rng.Intn(int(100 * sim.Millisecond)))
			c.ReserveRaw(from, 512)
		}
	})
	b.Run("train", func(b *testing.B) {
		eng := sim.New()
		c := NewChannel(eng, "c", 4000*units.MBps)
		var at [32]sim.Time
		from := sim.Time(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.RunUntil(from)
			for j := range at {
				at[j] = from.Add(sim.Duration(j) * 80 * sim.Nanosecond)
			}
			c.reserveRawTrain(at[:], ReadRequestTLP)
			from = from.Add(sim.Duration(len(at)) * 80 * sim.Nanosecond)
		}
	})
	b.Run("steady-near-cap", func(b *testing.B) {
		eng := sim.New()
		c := NewChannel(eng, "c", 4000*units.MBps)
		c.busy = make([]interval, 0, 1024)
		const live, slot = 1000, 20 * sim.Nanosecond
		now := sim.Time(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.RunUntil(now)
			c.reserve(now.Add(live*slot), 10*sim.Nanosecond)
			now = now.Add(slot)
		}
	})
}
