package bench

import (
	"bytes"
	"testing"
)

// FuzzReadRun throws arbitrary bytes at the baseline loader. Whatever the
// input, ReadRun must either return an error or a run that diffs against
// itself with no deltas, shape changes, text changes or new entries, and whose diffs
// against an empty run, in both directions, render without panicking.
// The committed corpus holds a slice of a committed artifact, a NaN
// cell, a row longer than its header, and null results.
func FuzzReadRun(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		run, err := ReadRun(bytes.NewReader(data))
		if err != nil {
			return
		}
		d := CompareRuns(run, run, 0)
		if len(d.Regressions)+len(d.Improvements)+len(d.Neutral)+len(d.ShapeChanged)+
			len(d.MissingInCurrent)+len(d.NewInCurrent)+len(d.TextChanged) > 0 {
			t.Fatalf("run does not diff clean against itself:\n%s", d.Render())
		}
		empty := &Run{SchemaVersion: SchemaVersion}
		CompareRuns(run, empty, 0).Render()
		CompareRuns(empty, run, 0).Render()
	})
}
