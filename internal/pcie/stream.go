package pcie

import (
	"apenetsim/internal/sim"
	"apenetsim/internal/units"
)

// Stream reserves n bytes through the path as chunk-sized bursts whose
// injection is paced at `rate`, modeling a source that produces data more
// slowly than the wire moves it (a GPU memory pipe, a DMA engine). Chunk k
// becomes available at from + (k+1)*chunk/rate and is then booked onto the
// path, so link contention still applies on top of the pacing.
//
// It returns the arrival times of the first and last byte at the
// destination. Stream performs no blocking; it only computes reservations,
// so callers can model thousands of chunks without event overhead. The
// chunks are booked with SendTrain, up to a block of equal chunks at a
// time.
func (p *Path) Stream(from sim.Time, n units.ByteSize, rate units.Bandwidth, chunk units.ByteSize) (first, last sim.Time) {
	if n <= 0 {
		return from, from
	}
	if chunk <= 0 {
		panic("pcie: non-positive chunk")
	}
	var at [32]sim.Time
	var sent units.ByteSize
	for sent < n {
		begin, sz := sent, chunk
		if sz > n-sent {
			sz = n - sent
		}
		m := 0
		for m < len(at) && sent+sz <= n {
			sent += sz
			at[m] = from.Add(units.TransferTime(sent, rate))
			m++
		}
		p.SendTrain(at[:m], sz)
		if begin == 0 {
			first = at[0]
		}
		last = at[m-1]
	}
	return first, last
}
