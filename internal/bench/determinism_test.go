package bench

import "testing"

// TestAllExperimentsDeterministic demands that every registered
// experiment, run twice with identical options, produce byte-identical
// report JSON plus identical simulation accounting. This is the property
// the whole baseline-diff workflow rests on (CompareRuns at 0% tolerance,
// the CI smoke that diffs a run against its own rerun): any
// nondeterminism — map iteration leaking into a table, wall-clock data in
// a cell, a worker-count dependence — fails here first, with the
// experiment named.
//
// The two runs are TestShardedEquivalence's reference pair (see
// referenceRuns), shared so each experiment's reference executes twice
// per test binary, not four times. This test keeps the check running
// under the race detector, where the equivalence test skips the
// experiments that consume no shards.
func TestAllExperimentsDeterministic(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			referenceRuns(t, e)
		})
	}
}
