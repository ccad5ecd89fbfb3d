package coll

import (
	"fmt"

	"apenetsim/internal/sim"
	"apenetsim/internal/timeseries"
	"apenetsim/internal/torus"
)

// Time-series sampling for collective worlds (Config.TS). Samples are
// taken at round barriers (sim.Group.OnRound), where every shard is
// parked and cross-shard reads are safe. Sampling schedules no event, so
// it leaves the event stream and step accounting of a traced run
// identical to its untraced twin.

// installSampling registers the world's probes and drives them from the
// group's round barrier. No-op without a Config.TS.
func (w *World) installSampling() {
	ts := w.Cfg.TS
	if ts == nil {
		return
	}
	w.registerProbes(ts)
	w.sampleByRound(ts)
}

// registerProbes wires the engine-layout-independent probes: link
// utilization (mean/max over directed links, as busy-time deltas between
// samples), instantaneous max queue backlog, outstanding collective
// sends, and the TLB hit rate over the sampling interval.
func (w *World) registerProbes(ts *timeseries.Set) {
	nlinks := float64(int(torus.NumDirs) * w.Dims.Nodes())
	prevBusy := map[int]sim.Duration{}
	var prevT sim.Time
	var pendingMax float64
	// Probes run in registration order (timeseries.Set samples them in
	// insertion order), so the mean probe computes both aggregates and
	// the max probe reads the cached value of the same instant.
	ts.Probe("links.util.mean", "frac", func(now sim.Time) float64 {
		stats := w.Net().LinkStats()
		dt := now.Sub(prevT)
		var sum, mx float64
		for _, s := range stats {
			key := s.Rank*int(torus.NumDirs) + int(s.Dir)
			if dt > 0 {
				u := float64(s.Busy-prevBusy[key]) / float64(dt)
				sum += u
				if u > mx {
					mx = u
				}
			}
			prevBusy[key] = s.Busy
		}
		prevT = now
		pendingMax = mx
		if nlinks == 0 {
			return 0
		}
		return sum / nlinks
	})
	ts.Probe("links.util.max", "frac", func(now sim.Time) float64 { return pendingMax })
	ts.Probe("links.backlog.max", "ps", func(now sim.Time) float64 {
		var mx sim.Duration
		for r := 0; r < w.Dims.Nodes(); r++ {
			c := w.Dims.CoordOf(r)
			for d := torus.Dir(0); d < torus.NumDirs; d++ {
				if q := w.Net().QueueDelay(c, d, now, 0); q > mx {
					mx = q
				}
			}
		}
		return float64(mx)
	})
	ts.Probe("ops.outstanding", "ops", func(now sim.Time) float64 {
		n := 0
		for _, r := range w.Ranks {
			n += r.sendsOut
		}
		return float64(n)
	})
	var prevHits, prevLookups int64
	ts.Probe("tlb.hit_rate", "frac", func(now sim.Time) float64 {
		var hits, lookups int64
		for _, node := range w.Cl.Nodes {
			st := node.Card.TranslationStats()
			hits += st.Hits
			lookups += st.Lookups
		}
		dh, dl := hits-prevHits, lookups-prevLookups
		prevHits, prevLookups = hits, lookups
		if dl == 0 {
			return 0
		}
		return float64(dh) / float64(dl)
	})
}

// sampleByRound drives the sampler from the group's round barrier:
// per-shard busy flags accumulate every round, and once the round floor
// crosses the next sampling instant the whole probe set fires with the
// floor as its timestamp. With more than one shard, per-shard occupancy
// probes report each shard's busy fraction over the rounds since the
// previous sample (a lone shard is busy in every round).
func (w *World) sampleByRound(ts *timeseries.Set) {
	g := w.g
	n := g.Shards()
	busy := make([]uint64, n)
	var rounds uint64
	for i := 0; n > 1 && i < n; i++ {
		i := i
		ts.Probe(fmt.Sprintf("shard%d.busy", i), "frac", func(now sim.Time) float64 {
			if rounds == 0 {
				return 0
			}
			return float64(busy[i]) / float64(rounds)
		})
	}
	next := sim.Time(0).Add(ts.Interval())
	g.OnRound = func(floor sim.Time, b []bool) {
		rounds++
		for i, v := range b {
			if v {
				busy[i]++
			}
		}
		if floor < next {
			return
		}
		ts.Sample(floor)
		for i := range busy {
			busy[i] = 0
		}
		rounds = 0
		next = floor.Add(ts.Interval())
	}
}
