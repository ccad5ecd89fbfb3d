package sim

import "sync/atomic"

// Account aggregates simulation cost — engines created and events
// executed — across many engines. A single simulated experiment typically
// spins up dozens of short-lived engines (one per measurement point);
// attaching them all to one Account yields the experiment's total
// simulation work.
//
// Unlike an Engine, an Account is safe for concurrent use: independent
// engines running in parallel goroutines may share one, which is how the
// bench runner attributes sim steps per experiment even when experiments
// run on a worker pool.
//
// The zero value is ready to use. A nil *Account is valid and counts
// nothing, so engine constructors can take one unconditionally.
type Account struct {
	steps   atomic.Uint64
	engines atomic.Uint64
	// peakPending is the largest event-queue high-water mark reported by
	// any attached engine — the run's peak simultaneous event load.
	peakPending atomic.Uint64
	// rounds / busyShardRounds describe sharded execution: how many
	// conservative windows every attached Group ran, and the sum over
	// those windows of shards that had events to execute. Their ratio is
	// the run's average parallel occupancy — the speedup ceiling a
	// multi-core host can reach. Both are deterministic (pure functions
	// of the event structure, unlike wall-clock throughput).
	rounds          atomic.Uint64
	busyShardRounds atomic.Uint64
}

// Steps returns the total number of events executed by attached engines
// (flushed at the end of each Run and at Shutdown).
func (a *Account) Steps() uint64 {
	if a == nil {
		return 0
	}
	return a.steps.Load()
}

// Engines returns the number of engines attached so far.
func (a *Account) Engines() uint64 {
	if a == nil {
		return 0
	}
	return a.engines.Load()
}

// PeakPending returns the largest event-queue high-water mark any
// attached engine reported (flushed at the end of each Run and at
// Shutdown).
func (a *Account) PeakPending() uint64 {
	if a == nil {
		return 0
	}
	return a.peakPending.Load()
}

// ShardRounds returns the total conservative windows run by attached
// multi-shard Groups, and the sum over those windows of shards that
// executed events. Zero on runs of one shard.
func (a *Account) ShardRounds() (rounds, busyShardRounds uint64) {
	if a == nil {
		return 0, 0
	}
	return a.rounds.Load(), a.busyShardRounds.Load()
}

// AddFrom folds another account's totals into a (nil-safe on both sides).
func (a *Account) AddFrom(b *Account) {
	if a == nil || b == nil {
		return
	}
	if n := b.Steps(); n > 0 {
		a.steps.Add(n)
	}
	if n := b.Engines(); n > 0 {
		a.engines.Add(n)
	}
	if r, busy := b.ShardRounds(); r > 0 {
		a.rounds.Add(r)
		a.busyShardRounds.Add(busy)
	}
	a.notePeakPending(b.PeakPending())
}

// addShardRounds folds one Group run's window statistics in.
func (a *Account) addShardRounds(rounds, busyShardRounds uint64) {
	if a != nil && rounds > 0 {
		a.rounds.Add(rounds)
		a.busyShardRounds.Add(busyShardRounds)
	}
}

func (a *Account) addSteps(n uint64) {
	if a != nil && n > 0 {
		a.steps.Add(n)
	}
}

func (a *Account) addEngine() {
	if a != nil {
		a.engines.Add(1)
	}
}

// notePeakPending raises the recorded peak to n (atomic max).
func (a *Account) notePeakPending(n uint64) {
	if a == nil || n == 0 {
		return
	}
	for {
		cur := a.peakPending.Load()
		if n <= cur || a.peakPending.CompareAndSwap(cur, n) {
			return
		}
	}
}
