package bench

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Baseline diffing: compare a run report against a previously saved one
// and classify every numeric change as a regression, an improvement, or a
// neutral change, using column units to decide which direction is worse.
//
// The simulator is deterministic, so under unchanged code and options a
// diff against an older artifact is exact: any delta is a real behavior
// change, and a run diffed against itself is always clean.

// lower-is-better units (latencies, per-spin times, overheads) vs
// higher-is-better units (bandwidths, traversal rates, speedups).
var (
	lowerBetterUnits  = map[string]bool{"s": true, "ms": true, "us": true, "ns": true, "ps": true}
	higherBetterUnits = map[string]bool{"KB/s": true, "MB/s": true, "GB/s": true, "TEPS": true, "x": true}
)

// Delta is one numeric cell that moved beyond tolerance.
type Delta struct {
	ID     string  `json:"id"`
	Row    int     `json:"row"`
	Col    int     `json:"col"`
	RowKey string  `json:"row_key"` // first cell of the row (the sweep axis value)
	Column string  `json:"column"`  // header label
	Unit   string  `json:"unit,omitempty"`
	Base   float64 `json:"base"`
	Cur    float64 `json:"cur"`
	Pct    float64 `json:"pct"` // signed relative change, percent of base
}

func (d Delta) String() string {
	unit := d.Unit
	if unit != "" {
		unit = " " + unit
	}
	return fmt.Sprintf("%s [%s, %s]: %g -> %g%s (%+.2f%%)",
		d.ID, d.RowKey, d.Column, d.Base, d.Cur, unit, d.Pct)
}

// Diff is the outcome of comparing a current run against a baseline.
type Diff struct {
	TolerancePct float64 `json:"tolerance_pct"`
	// MissingInCurrent lists experiment IDs the baseline has but the
	// current run does not; NewInCurrent the reverse. Missing experiments
	// count as regressions (coverage went backwards); new ones do not.
	MissingInCurrent []string `json:"missing_in_current,omitempty"`
	NewInCurrent     []string `json:"new_in_current,omitempty"`
	// ShapeChanged lists experiments whose table layout or textual cells
	// differ, with a description; such experiments cannot be cell-diffed.
	ShapeChanged []string `json:"shape_changed,omitempty"`
	Regressions  []Delta  `json:"regressions,omitempty"`
	Improvements []Delta  `json:"improvements,omitempty"`
	// Neutral holds moved cells in columns with no known better/worse
	// direction (input axes, dimensionless counters).
	Neutral []Delta `json:"neutral,omitempty"`
	// TextChanged lists report titles, notes and meta values that differ:
	// text that describes the cells, so a change to it is a change to
	// what the report claims.
	TextChanged []string `json:"text_changed,omitempty"`
}

// Clean reports whether the diff shows no regressions: no worsened cells,
// no lost experiments, no shape changes and no changed report text.
func (d *Diff) Clean() bool {
	return len(d.Regressions) == 0 && len(d.MissingInCurrent) == 0 && len(d.ShapeChanged) == 0 &&
		len(d.TextChanged) == 0
}

// Render formats the diff for the terminal.
func (d *Diff) Render() string {
	var sb strings.Builder
	section := func(title string, lines []string) {
		if len(lines) == 0 {
			return
		}
		fmt.Fprintf(&sb, "%s (%d):\n", title, len(lines))
		for _, l := range lines {
			fmt.Fprintf(&sb, "  %s\n", l)
		}
	}
	deltas := func(ds []Delta) []string {
		out := make([]string, len(ds))
		for i, dd := range ds {
			out[i] = dd.String()
		}
		return out
	}
	section("missing experiments", d.MissingInCurrent)
	section("new experiments", d.NewInCurrent)
	section("shape changes", d.ShapeChanged)
	section("regressions", deltas(d.Regressions))
	section("improvements", deltas(d.Improvements))
	section("neutral changes", deltas(d.Neutral))
	section("text changes", d.TextChanged)
	if sb.Len() == 0 {
		fmt.Fprintf(&sb, "no changes beyond %.2f%% tolerance\n", d.TolerancePct)
	}
	return sb.String()
}

// CheckTolerance validates a -tolerance flag value: a finite,
// non-negative percentage. A negative or NaN tolerance would pass no cell
// as unchanged, and the classifier would then report equal cells as
// improvements or neutral changes.
func CheckTolerance(pct float64) error {
	if math.IsNaN(pct) || math.IsInf(pct, 0) || pct < 0 {
		return fmt.Errorf("tolerance %v%%: want a finite percentage >= 0", pct)
	}
	return nil
}

// CheckCount validates a count flag — -parallel, -hotlinks — whose zero
// has a meaning of its own (all CPUs, no links): a negative count means
// nothing, and used to run as if it were zero.
func CheckCount(name string, n int) error {
	if n < 0 {
		return fmt.Errorf("%s %d: want a count >= 0", name, n)
	}
	return nil
}

// CompareRuns diffs cur against base. Numeric cells that move by more
// than tolerancePct (relative to the baseline value) are classified by
// their column unit; textual cells and table layout must match exactly.
func CompareRuns(cur, base *Run, tolerancePct float64) *Diff {
	d := &Diff{TolerancePct: tolerancePct}
	for _, br := range base.Results {
		cr := cur.Result(br.ID)
		if cr == nil {
			d.MissingInCurrent = append(d.MissingInCurrent, br.ID)
			continue
		}
		compareResult(d, cr, &br, tolerancePct)
	}
	for _, cr := range cur.Results {
		if base.Result(cr.ID) == nil {
			d.NewInCurrent = append(d.NewInCurrent, cr.ID)
		}
	}
	return d
}

// Subset returns a copy of the run that holds only the results of the
// given experiment IDs, so that a run of a few experiments compares
// against an artifact of all of them without listing the rest as
// missing.
func (r *Run) Subset(ids []string) *Run {
	keep := make(map[string]bool, len(ids))
	for _, id := range ids {
		keep[id] = true
	}
	out := *r
	out.Results = nil
	for _, res := range r.Results {
		if keep[res.ID] {
			out.Results = append(out.Results, res)
		}
	}
	return &out
}

func compareResult(d *Diff, cr, br *Result, tol float64) {
	id := br.ID
	switch {
	case br.Err == "" && cr.Err != "":
		d.ShapeChanged = append(d.ShapeChanged, fmt.Sprintf("%s: now fails: %s", id, cr.Err))
		return
	case br.Err != "" && cr.Err == "":
		d.NewInCurrent = append(d.NewInCurrent, id+" (baseline had failed)")
		return
	case br.Err != "":
		return // failed in both; nothing to diff
	}
	b, c := br.Report, cr.Report
	if b == nil || c == nil {
		if (b == nil) != (c == nil) {
			d.ShapeChanged = append(d.ShapeChanged, id+": report present on one side only")
		}
		return
	}
	compareText(d, id, c, b)
	if len(b.Header) != len(c.Header) || len(b.Rows) != len(c.Rows) {
		d.ShapeChanged = append(d.ShapeChanged,
			fmt.Sprintf("%s: table is %dx%d, baseline %dx%d",
				id, len(c.Rows), len(c.Header), len(b.Rows), len(b.Header)))
		return
	}
	for row := range b.Rows {
		if len(b.Rows[row]) != len(c.Rows[row]) {
			d.ShapeChanged = append(d.ShapeChanged,
				fmt.Sprintf("%s: row %d has %d cells, baseline %d",
					id, row, len(c.Rows[row]), len(b.Rows[row])))
			return
		}
		for col := range b.Rows[row] {
			bv, cv := b.Value(row, col), c.Value(row, col)
			if bv.Numeric != cv.Numeric {
				d.ShapeChanged = append(d.ShapeChanged,
					fmt.Sprintf("%s: cell [%d,%d] numeric on one side only (%q vs %q)",
						id, row, col, bv.Text, cv.Text))
				return
			}
			if !bv.Numeric {
				if bv.Text != cv.Text {
					d.ShapeChanged = append(d.ShapeChanged,
						fmt.Sprintf("%s: cell [%d,%d] text changed (%q vs %q)",
							id, row, col, bv.Text, cv.Text))
					return
				}
				continue
			}
			pct := relChangePct(bv.Num, cv.Num)
			if math.Abs(pct) <= tol {
				continue
			}
			delta := Delta{
				ID: id, Row: row, Col: col,
				RowKey: b.Value(row, 0).Text, Column: headerLabel(b, col),
				Unit: b.Unit(col), Base: bv.Num, Cur: cv.Num, Pct: pct,
			}
			switch worse(delta.Unit, bv.Num, cv.Num) {
			case +1:
				d.Regressions = append(d.Regressions, delta)
			case -1:
				d.Improvements = append(d.Improvements, delta)
			default:
				d.Neutral = append(d.Neutral, delta)
			}
		}
	}
}

// compareText lists every difference in the report text around the
// table: the title, each note by position and each meta key.
func compareText(d *Diff, id string, c, b *Report) {
	ct, bt := reportText(c), reportText(b)
	keys := make([]string, 0, len(ct)+len(bt))
	for k := range ct {
		keys = append(keys, k)
	}
	for k := range bt {
		if _, ok := ct[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	quote := func(s string, ok bool) string {
		if !ok {
			return "absent"
		}
		return strconv.Quote(s)
	}
	for _, k := range keys {
		cv, cok := ct[k]
		bv, bok := bt[k]
		if cv != bv || cok != bok {
			d.TextChanged = append(d.TextChanged,
				fmt.Sprintf("%s: %s %s, baseline %s", id, k, quote(cv, cok), quote(bv, bok)))
		}
	}
}

// reportText keys a report's title, notes and meta values by what they
// are: "title", "note <i>", "meta <key>".
func reportText(r *Report) map[string]string {
	m := map[string]string{"title": r.Title}
	for i, n := range r.Notes {
		m[fmt.Sprintf("note %d", i)] = n
	}
	for k, v := range r.Meta {
		m["meta "+k] = v
	}
	return m
}

// relChangePct is the signed relative change in percent. Any change from
// an exactly-zero baseline counts as ±100% (avoids dividing by zero while
// still flagging the cell past any sane tolerance). NaN on both sides is
// no change.
func relChangePct(base, cur float64) float64 {
	if base == cur || math.IsNaN(base) && math.IsNaN(cur) {
		return 0
	}
	if base == 0 {
		return math.Copysign(100, cur)
	}
	return (cur - base) / math.Abs(base) * 100
}

// worse classifies a change by unit: +1 regression, -1 improvement,
// 0 unknown direction. A cell that became NaN is a broken measurement,
// a regression in any unit.
func worse(unit string, base, cur float64) int {
	switch {
	case math.IsNaN(cur):
		return +1
	case lowerBetterUnits[unit]:
		if cur > base {
			return +1
		}
		return -1
	case higherBetterUnits[unit]:
		if cur < base {
			return +1
		}
		return -1
	}
	return 0
}

func headerLabel(r *Report, col int) string {
	if col < len(r.Header) {
		return r.Header[col]
	}
	return fmt.Sprintf("col%d", col)
}
