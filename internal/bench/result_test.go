package bench

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
)

func sampleRun() *Run {
	return &Run{
		SchemaVersion: SchemaVersion,
		CreatedAt:     "2026-07-27T00:00:00Z",
		Quick:         true,
		Parallel:      4,
		Results: []Result{
			{
				ID: "fig8", Title: "latency", WallSeconds: 1.25, SimEngines: 12, SimSteps: 34567,
				Report: &Report{
					ID: "fig8", Title: "Half round-trip latency, us",
					Header: []string{"msg", "H-H", "G-G"},
					Units:  []string{"", "us", "us"},
					Rows:   [][]string{{"32", "6.3", "8.2"}, {"4K", "9.0", "11.5"}},
					Notes:  []string{"paper: H-H 6.3 us"},
					Meta:   map[string]string{"gpu": "Fermi C2050"},
				},
			},
			{
				ID: "table4", Title: "teps", WallSeconds: 2.5, SimEngines: 8, SimSteps: 99,
				Report: &Report{
					ID: "table4", Title: "BFS TEPS",
					Header: []string{"NP", "TEPS"},
					Units:  []string{"", "TEPS"},
					Rows:   [][]string{{"1", "6.7e+07"}, {"8", "1.7e+08"}},
				},
			},
			{ID: "broken", Title: "failed one", Err: "panic: boom"},
		},
	}
}

// The JSON report must round-trip losslessly through the baseline loader.
func TestRunJSONRoundTrip(t *testing.T) {
	run := sampleRun()
	var buf bytes.Buffer
	if err := run.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	got, err := ReadRun(&buf)
	if err != nil {
		t.Fatalf("ReadRun: %v", err)
	}
	if !reflect.DeepEqual(run, got) {
		t.Fatalf("round trip mismatch:\nwrote %+v\nread  %+v", run, got)
	}
}

func TestReadRunRejectsWrongSchema(t *testing.T) {
	in := strings.NewReader(`{"schema_version": 999, "results": []}`)
	if _, err := ReadRun(in); err == nil {
		t.Fatal("ReadRun accepted schema_version 999")
	}
}

func TestReadRunRejectsDuplicateIDs(t *testing.T) {
	in := strings.NewReader(`{"schema_version": 1, "results": [{"id": "fig8"}, {"id": "fig8"}]}`)
	if _, err := ReadRun(in); err == nil || !strings.Contains(err.Error(), `"fig8" twice`) {
		t.Fatalf("ReadRun accepted a duplicate experiment: %v", err)
	}
}

func TestReportValueAndColumns(t *testing.T) {
	r := sampleRun().Results[0].Report
	if v := r.Value(0, 1); !v.Numeric || v.Num != 6.3 {
		t.Fatalf("Value(0,1) = %+v, want numeric 6.3", v)
	}
	if v := r.Value(1, 0); v.Numeric || v.Text != "4K" {
		t.Fatalf("Value(1,0) = %+v, want textual 4K", v)
	}
	if v := r.Value(7, 7); v.Text != "" || v.Numeric {
		t.Fatalf("out-of-range Value = %+v, want zero", v)
	}
	if i := r.ColumnIndex("G-G"); i != 2 {
		t.Fatalf("ColumnIndex(G-G) = %d, want 2", i)
	}
	if i := r.ColumnIndex("nope"); i != -1 {
		t.Fatalf("ColumnIndex(nope) = %d, want -1", i)
	}
	if u := r.Unit(1); u != "us" {
		t.Fatalf("Unit(1) = %q, want us", u)
	}
	if u := r.Unit(17); u != "" {
		t.Fatalf("Unit(17) = %q, want empty", u)
	}
}

// A run diffed against itself must be clean at zero tolerance, NaN
// cells included.
func TestCompareRunsSelf(t *testing.T) {
	nan := sampleRun()
	nan.Results[0].Report.Rows[0][1] = "NaN"
	nan.Results[1].Report.Rows[1][1] = "NaN"
	for _, run := range []*Run{sampleRun(), nan} {
		d := CompareRuns(run, run, 0)
		if !d.Clean() {
			t.Fatalf("self-diff not clean:\n%s", d.Render())
		}
		if len(d.Improvements) != 0 || len(d.Neutral) != 0 {
			t.Fatalf("self-diff found changes:\n%s", d.Render())
		}
	}
}

func TestCompareRunsDirections(t *testing.T) {
	base := sampleRun()
	cur := sampleRun()
	// Latency up = regression (lower-better unit).
	cur.Results[0].Report.Rows[0][1] = "7.0"
	// TEPS down = regression (higher-better unit).
	cur.Results[1].Report.Rows[1][1] = "1.5e+08"
	d := CompareRuns(cur, base, 0)
	if len(d.Regressions) != 2 {
		t.Fatalf("want 2 regressions, got:\n%s", d.Render())
	}
	if d.Clean() {
		t.Fatal("diff with regressions reported Clean")
	}

	// The same moves in the other direction are improvements.
	cur = sampleRun()
	cur.Results[0].Report.Rows[0][1] = "5.0"
	cur.Results[1].Report.Rows[1][1] = "2.0e+08"
	d = CompareRuns(cur, base, 0)
	if len(d.Regressions) != 0 || len(d.Improvements) != 2 {
		t.Fatalf("want 2 improvements, got:\n%s", d.Render())
	}
	if !d.Clean() {
		t.Fatal("improvements-only diff should be clean")
	}

	// A cell that turns NaN is a regression whatever its unit: a
	// lower-better latency, a higher-better rate, and a unitless axis.
	cur = sampleRun()
	cur.Results[0].Report.Rows[0][1] = "NaN"
	cur.Results[1].Report.Rows[1][1] = "NaN"
	cur.Results[1].Report.Rows[0][0] = "NaN"
	d = CompareRuns(cur, base, 0)
	if len(d.Regressions) != 3 || len(d.Improvements) != 0 || len(d.Neutral) != 0 {
		t.Fatalf("want 3 NaN regressions, got:\n%s", d.Render())
	}
	if d.Clean() {
		t.Fatal("diff with NaN cells reported Clean")
	}
}

func TestCompareRunsTolerance(t *testing.T) {
	base := sampleRun()
	cur := sampleRun()
	cur.Results[0].Report.Rows[0][1] = "6.35" // +0.8%
	if d := CompareRuns(cur, base, 1.0); !d.Clean() {
		t.Fatalf("0.8%% move should pass 1%% tolerance:\n%s", d.Render())
	}
	if d := CompareRuns(cur, base, 0.1); d.Clean() {
		t.Fatal("0.8% move should fail 0.1% tolerance")
	}
}

func TestCheckTolerance(t *testing.T) {
	for _, tc := range []struct {
		pct float64
		ok  bool
	}{
		{0, true},
		{1.5, true},
		{-1, false},
		{math.NaN(), false},
		{math.Inf(1), false},
	} {
		if err := CheckTolerance(tc.pct); (err == nil) != tc.ok {
			t.Errorf("CheckTolerance(%v) = %v, want ok=%v", tc.pct, err, tc.ok)
		}
	}
}

func TestCheckCount(t *testing.T) {
	for _, tc := range []struct {
		n  int
		ok bool
	}{
		{0, true},
		{1, true},
		{64, true},
		{-1, false},
		{-3, false},
	} {
		err := CheckCount("parallel", tc.n)
		if (err == nil) != tc.ok {
			t.Errorf("CheckCount(parallel, %d) = %v, want ok=%v", tc.n, err, tc.ok)
		}
		if err != nil && !strings.HasPrefix(err.Error(), "parallel ") {
			t.Errorf("CheckCount(parallel, %d) = %q: want the flag name first", tc.n, err)
		}
	}
}

func TestCompareRunsNeutralUnit(t *testing.T) {
	base := sampleRun()
	cur := sampleRun()
	// Column 0 of fig8 row 0 has no unit: numeric change is neutral.
	base.Results[0].Report.Rows[0][0] = "32"
	cur.Results[0].Report.Rows[0][0] = "64"
	d := CompareRuns(cur, base, 0)
	if len(d.Neutral) != 1 || len(d.Regressions) != 0 {
		t.Fatalf("want 1 neutral change, got:\n%s", d.Render())
	}
	if !d.Clean() {
		t.Fatal("neutral-only diff should be clean")
	}
}

func TestCompareRunsShapeAndMissing(t *testing.T) {
	base := sampleRun()

	// Missing experiment counts as a regression.
	cur := sampleRun()
	cur.Results = cur.Results[1:]
	d := CompareRuns(cur, base, 0)
	if len(d.MissingInCurrent) != 1 || d.MissingInCurrent[0] != "fig8" || d.Clean() {
		t.Fatalf("missing experiment not flagged:\n%s", d.Render())
	}

	// New experiment is fine.
	cur = sampleRun()
	cur.Results = append(cur.Results, Result{ID: "extra", Report: &Report{ID: "extra"}})
	d = CompareRuns(cur, base, 0)
	if len(d.NewInCurrent) != 1 || !d.Clean() {
		t.Fatalf("new experiment mishandled:\n%s", d.Render())
	}

	// Textual cell change is a shape change.
	cur = sampleRun()
	cur.Results[0].Report.Rows[1][0] = "8K"
	d = CompareRuns(cur, base, 0)
	if len(d.ShapeChanged) != 1 || d.Clean() {
		t.Fatalf("text change not flagged as shape change:\n%s", d.Render())
	}

	// Dimension change is a shape change.
	cur = sampleRun()
	cur.Results[0].Report.Rows = cur.Results[0].Report.Rows[:1]
	d = CompareRuns(cur, base, 0)
	if len(d.ShapeChanged) != 1 || d.Clean() {
		t.Fatalf("row-count change not flagged:\n%s", d.Render())
	}

	// A previously-working experiment that now fails is a shape change.
	cur = sampleRun()
	cur.Results[0].Report = nil
	cur.Results[0].Err = "panic: new breakage"
	d = CompareRuns(cur, base, 0)
	if len(d.ShapeChanged) != 1 || d.Clean() {
		t.Fatalf("new failure not flagged:\n%s", d.Render())
	}
}

// Report text around the table is compared too: a changed title, note or
// meta value is listed under its own heading and fails the gate, while
// the six cell and coverage categories stay empty.
func TestCompareRunsText(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(r *Report)
		want []string
	}{
		{"title", func(r *Report) { r.Title = "Half round-trip latency (us)" },
			[]string{`fig8: title "Half round-trip latency (us)", baseline "Half round-trip latency, us"`}},
		{"note changed", func(r *Report) { r.Notes[0] = "paper: H-H 6.4 us" },
			[]string{`fig8: note 0 "paper: H-H 6.4 us", baseline "paper: H-H 6.3 us"`}},
		{"note added", func(r *Report) { r.Notes = append(r.Notes, "caveat") },
			[]string{`fig8: note 1 "caveat", baseline absent`}},
		{"notes removed", func(r *Report) { r.Notes = nil },
			[]string{`fig8: note 0 absent, baseline "paper: H-H 6.3 us"`}},
		{"meta value", func(r *Report) { r.Meta["gpu"] = "Kepler K20" },
			[]string{`fig8: meta gpu "Kepler K20", baseline "Fermi C2050"`}},
		{"meta keys", func(r *Report) { delete(r.Meta, "gpu"); r.SetMeta("clock", "200") },
			[]string{`fig8: meta clock "200", baseline absent`, `fig8: meta gpu absent, baseline "Fermi C2050"`}},
		{"with a shape change", func(r *Report) { r.Title = "t"; r.Rows = r.Rows[:1] },
			[]string{`fig8: title "t", baseline "Half round-trip latency, us"`}},
	} {
		base, cur := sampleRun(), sampleRun()
		tc.edit(cur.Results[0].Report)
		d := CompareRuns(cur, base, 0)
		if !reflect.DeepEqual(d.TextChanged, tc.want) {
			t.Errorf("%s: text changes %q, want %q", tc.name, d.TextChanged, tc.want)
		}
		if d.Clean() || strings.Contains(d.Render(), "no changes") || !strings.Contains(d.Render(), "text changes") {
			t.Errorf("%s: changed text reads clean:\n%s", tc.name, d.Render())
		}
		shape := len(cur.Results[0].Report.Rows) != len(base.Results[0].Report.Rows)
		if len(d.MissingInCurrent)+len(d.NewInCurrent)+len(d.Regressions)+len(d.Improvements)+len(d.Neutral) > 0 ||
			(len(d.ShapeChanged) > 0) != shape {
			t.Errorf("%s: text change leaked into the cell categories:\n%s", tc.name, d.Render())
		}
	}
}

// A run of selected experiments compares against the matching subset of
// a full artifact; a selected experiment the artifact lacks is listed.
func TestCompareRunsSubset(t *testing.T) {
	base := sampleRun()
	cur := sampleRun()
	cur.Results = cur.Results[1:2]
	if d := CompareRuns(cur, base.Subset([]string{"table4"}), 0); !d.Clean() || len(d.NewInCurrent) != 0 {
		t.Fatalf("one selected experiment against a full artifact:\n%s", d.Render())
	}
	if len(base.Subset([]string{"table4"}).Results) != 1 || len(base.Results) != 3 {
		t.Fatal("Subset must copy the run, not edit it")
	}
	cur.Results = append(cur.Results, Result{ID: "fig99", Report: &Report{ID: "fig99"}})
	d := CompareRuns(cur, base.Subset([]string{"table4", "fig99"}), 0)
	if !reflect.DeepEqual(d.NewInCurrent, []string{"fig99"}) || len(d.MissingInCurrent) != 0 {
		t.Fatalf("selected experiment absent from the artifact not listed:\n%s", d.Render())
	}
}

func TestRenderShowsUnits(t *testing.T) {
	r := sampleRun().Results[0].Report
	out := r.Render()
	if !strings.Contains(out, "H-H (us)") {
		t.Fatalf("rendered header missing units: %q", out)
	}
}

func TestRunTotals(t *testing.T) {
	run := sampleRun()
	if got := run.TotalWallSeconds(); got != 3.75 {
		t.Fatalf("TotalWallSeconds = %v, want 3.75", got)
	}
	if got := run.TotalSimSteps(); got != 34666 {
		t.Fatalf("TotalSimSteps = %v, want 34666", got)
	}
	if run.Result("table4") == nil || run.Result("nope") != nil {
		t.Fatal("Run.Result lookup broken")
	}
}
