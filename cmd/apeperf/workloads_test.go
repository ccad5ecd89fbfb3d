package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"apenetsim/internal/bench"
	"apenetsim/internal/torus"
)

// runTiny performs one run of w in-process, through the same path a child
// process takes, and returns its decoded sample.
func runTiny(t *testing.T, w workload, seed int64, traced bool) sample {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := runChild(w, root, seed, traced, &out); err != nil {
		t.Fatal(err)
	}
	var s sample
	if err := json.Unmarshal(out.Bytes(), &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestTinyWorkloadsPassTheirChecks(t *testing.T) {
	tiny := torus.Dims{X: 2, Y: 2, Z: 2}
	serial := runTiny(t, lqcdWorkload("lqcd", tiny, 1), 3, true)
	sharded := runTiny(t, lqcdWorkload("lqcd-2sh", tiny, 2), 3, false)
	a2a := runTiny(t, a2aWorkload("a2a", tiny), 3, false)
	paper := runTiny(t, paperWorkload("paper", []string{"fig3"}), 0, false)
	for name, s := range map[string]sample{"lqcd": serial, "lqcd-2sh": sharded, "a2a": a2a, "paper": paper} {
		if len(s.Errors) > 0 {
			t.Errorf("%s failed its checks: %v", name, s.Errors)
		}
		if s.Entry == 0 || s.WallS <= 0 || s.Values["sim.events"] <= 0 {
			t.Errorf("%s: entry %d, wall %v s, %v events: want all measured", name, s.Entry, s.WallS, s.Values["sim.events"])
		}
	}
	if serial.Outputs[worldOp] != sharded.Outputs[worldOp] {
		t.Errorf("serial and sharded outputs differ:\n%s\n%s", serial.Outputs[worldOp], sharded.Outputs[worldOp])
	}
	if serial.Profile == nil {
		t.Error("the traced run has no profile attribution")
	}
	if sharded.Values["sim.shard_rounds"] == 0 || serial.Values["sim.shard_rounds"] != 0 {
		t.Errorf("shard rounds: serial %v, sharded %v", serial.Values["sim.shard_rounds"], sharded.Values["sim.shard_rounds"])
	}
	if _, ok := paper.Values["bench.fig3_s"]; !ok {
		t.Error("paper run did not time its exhibit")
	}
}

// A torus with no committed coll-scaling row cannot pass the lqcd check,
// and an unknown exhibit fails its operation rather than the run.
func TestChecksFailWithoutReference(t *testing.T) {
	s := runTiny(t, lqcdWorkload("lqcd", torus.Dims{X: 3, Y: 2, Z: 2}, 1), 0, false)
	if !strings.Contains(s.Errors[worldOp], "no coll-scaling row") {
		t.Errorf("errors = %v, want a missing-row failure", s.Errors)
	}
	s = runTiny(t, paperWorkload("paper", []string{"fig3", "fig99"}), 0, false)
	if _, ok := s.Errors["fig99"]; !ok || len(s.Errors) != 1 {
		t.Errorf("errors = %v, want only fig99 to fail", s.Errors)
	}
}

// One moved cell of the committed coll-scaling row fails the lqcd check.
func TestLQCDCheckFailsOnMovedAnchorCell(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	run, err := bench.LoadRun(filepath.Join(root, "BENCH_SHARD_16CUBE.json"))
	if err != nil {
		t.Fatal(err)
	}
	rows := run.Result("coll-scaling").Report.Rows
	for _, row := range rows {
		if row[0] == "2x2x2" {
			row[2] = "199.6" // halo/iter
		}
	}
	tampered := t.TempDir()
	if err := run.SaveJSON(filepath.Join(tampered, "BENCH_SHARD_16CUBE.json")); err != nil {
		t.Fatal(err)
	}
	s := newSample()
	lqcdWorkload("lqcd", torus.Dims{X: 2, Y: 2, Z: 2}, 1).run(0, s)(tampered)
	if !strings.Contains(s.Errors[worldOp], "199.6") {
		t.Errorf("errors = %v, want the moved halo cell reported", s.Errors)
	}
}

// paper-quick diffs against the newest BENCH_20*.json, and every moved
// cell fails, improvements and unitless (neutral) cells included.
func TestCheckPaperFailsOnAnyDelta(t *testing.T) {
	report := func(n, lat string) *bench.Report {
		return &bench.Report{ID: "table4", Header: []string{"case", "n", "latency"}, Units: []string{"", "", "us"},
			Rows: [][]string{{"a", n, lat}}}
	}
	root := t.TempDir()
	for file, lat := range map[string]string{"BENCH_2000-01-01.json": "9", "BENCH_2001-01-01.json": "10"} {
		run := &bench.Run{SchemaVersion: bench.SchemaVersion, Results: []bench.Result{{ID: "table4", Report: report("5", lat)}}}
		if err := run.SaveJSON(filepath.Join(root, file)); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name   string
		seed   int64
		n, lat string
		fail   bool
	}{
		{"identical", 0, "5", "10", false},
		{"improvement", 0, "5", "9", true},
		{"neutral", 0, "6", "10", true},
		{"seeded exhibit at another seed", 7, "6", "10", false},
	} {
		s := newSample()
		checkPaper(root, tc.seed, &bench.Run{Results: []bench.Result{{ID: "table4", Report: report(tc.n, tc.lat)}}}, s)
		if got := s.Errors["table4"] != ""; got != tc.fail {
			t.Errorf("%s: failed = %v (%v), want %v", tc.name, got, s.Errors, tc.fail)
		}
	}
}

func TestCheckRepeatsAndSameAs(t *testing.T) {
	w := workload{name: "a", ops: []string{worldOp}}
	run := func(out string, events float64) runRecord {
		return runRecord{Values: map[string]float64{"sim.events": events, "wall_s": events},
			outputs: map[string]string{worldOp: out}}
	}
	r := &workloadResult{Name: "a", w: w, Runs: []runRecord{run("x", 10), run("x", 10), run("y", 10), run("x", 11)}}
	checkRepeats(r)
	for i, want := range []bool{false, false, true, true} {
		if got := len(r.Runs[i].Failed) > 0; got != want {
			t.Errorf("run %d failed = %v (%v), want %v", i+1, got, r.Runs[i].Failed, want)
		}
	}

	twin := &workloadResult{Name: "b", w: workload{name: "b", ops: []string{worldOp}, sameAs: "a"},
		Runs: []runRecord{run("x", 10), run("z", 10)}}
	checkSameAs([]*workloadResult{r, twin})
	if len(twin.Runs[0].Failed) != 0 || len(twin.Runs[1].Failed) != 1 {
		t.Errorf("sameAs failures: %v, %v; want only the second run", twin.Runs[0].Failed, twin.Runs[1].Failed)
	}
	twin.summarize()
	if twin.Attempted != 2 || twin.Failed != 1 {
		t.Errorf("attempted %d, failed %d; want 2, 1", twin.Attempted, twin.Failed)
	}
}
