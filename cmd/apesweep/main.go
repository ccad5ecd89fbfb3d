// Command apesweep runs a declared experiment matrix — experiments ×
// torus dims × shard counts × routers × TLB modes — through the same
// bench.Runner/JSON pipeline as apebench, one run artifact per cell,
// then re-loads those artifacts and distills them into a Markdown and a
// CSV summary table plus a self-contained HTML index with cross-cell
// metric charts (wall clock, sim steps, throughput, shard occupancy
// against the cell axis). Because the
// summary is built from the re-loaded JSONs, it provably matches the
// per-cell artifacts. Cells whose flag tuple matches a -baseline run
// are diffed against it; regressions make the command exit non-zero.
//
// Usage:
//
//	apesweep -run coll-scaling -shards 1,2,4 -quick -out sweep/
//	apesweep -run 'coll-*' -dims '8,8,8;16,16,16' -router dor,adaptive -quick
//	apesweep -run coll-scaling -dims 16,16,16 -shards 2,4 -quick -baseline BENCH_SHARD_16CUBE.json
package main

import (
	"flag"
	"fmt"
	"html"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"apenetsim/internal/bench"
	"apenetsim/internal/route"
	"apenetsim/internal/torus"
)

// cell is one point of the sweep matrix plus its run artifact.
type cell struct {
	id     string
	dims   torus.Dims
	shards int
	router route.Mode
	tlb    bool

	path string     // run JSON under -out
	run  *bench.Run // re-loaded from path for the summary
	diff *bench.Diff
}

func main() {
	runSel := flag.String("run", "", "comma-separated experiment IDs, globs or prefixes (required; same selector as apebench -run)")
	dimsList := flag.String("dims", "", "semicolon-separated torus dims cells, e.g. '8,8,8;16,16,16' (empty entry or empty flag = experiment defaults)")
	shardsList := flag.String("shards", "1", "comma-separated shard counts, e.g. 1,2,4")
	routerList := flag.String("router", "", "comma-separated routing engines (dor, adaptive, fault); empty = dor")
	tlbList := flag.String("tlb", "off", "comma-separated TLB modes out of off,on (on = hardware RX TLB on every card)")
	quick := flag.Bool("quick", false, "reduced sweeps / problem sizes in every cell")
	seed := flag.Int64("seed", 0, "base RNG seed per cell; 0 keeps the paper-default seeds")
	parallel := flag.Int("parallel", 1, "worker count inside each cell (0 = all CPUs); cells themselves run one after another")
	outDir := flag.String("out", "sweep", "output directory: run-<cell>.json per cell, summary.md, summary.csv, index.html")
	baseline := flag.String("baseline", "", "diff cells whose flag tuple matches this JSON run against it; exit 1 on regressions")
	tolerance := flag.Float64("tolerance", 0, "per-cell relative tolerance for -baseline, in percent")
	flag.Parse()

	if *runSel == "" {
		fmt.Fprintln(os.Stderr, "apesweep: -run is required (see -h)")
		os.Exit(2)
	}
	if err := bench.CheckTolerance(*tolerance); err != nil {
		fmt.Fprintf(os.Stderr, "apesweep: -%v\n", err)
		os.Exit(2)
	}
	if err := bench.CheckCount("parallel", *parallel); err != nil {
		fmt.Fprintf(os.Stderr, "apesweep: -%v\n", err)
		os.Exit(2)
	}
	exps, err := bench.Select(strings.Split(*runSel, ","))
	if err != nil {
		fmt.Fprintf(os.Stderr, "apesweep: %v\n", err)
		os.Exit(2)
	}
	cells, err := buildCells(*dimsList, *shardsList, *routerList, *tlbList)
	if err != nil {
		fmt.Fprintf(os.Stderr, "apesweep: %v\n", err)
		os.Exit(2)
	}
	var base *bench.Run
	if *baseline != "" {
		if base, err = bench.LoadRun(*baseline); err != nil {
			fmt.Fprintf(os.Stderr, "apesweep: %v\n", err)
			os.Exit(1)
		}
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "apesweep: %v\n", err)
		os.Exit(1)
	}

	// Run every cell and save its artifact. Cells run sequentially —
	// each is internally parallel and fully deterministic, so order
	// cannot change any result.
	for i, c := range cells {
		fmt.Fprintf(os.Stderr, "apesweep: cell %d/%d: %s (%d experiments)\n", i+1, len(cells), c.id, len(exps))
		runner := bench.Runner{
			Parallel: *parallel,
			Opts: bench.Options{Quick: *quick, Seed: *seed, Dims: c.dims,
				TLB: c.tlb, Router: c.router, Shards: c.shards},
			Progress: func(r bench.Result) {
				status := fmt.Sprintf("%.1fs, %d sim steps", r.WallSeconds, r.SimSteps)
				if r.Err != "" {
					status = "FAILED: " + r.Err
				}
				fmt.Fprintf(os.Stderr, "apesweep:   %-12s (%s)\n", r.ID, status)
			},
		}
		run := runner.Run(exps)
		cells[i].path = filepath.Join(*outDir, "run-"+c.id+".json")
		if err := run.SaveJSON(cells[i].path); err != nil {
			fmt.Fprintf(os.Stderr, "apesweep: %v\n", err)
			os.Exit(1)
		}
	}

	// Re-load every artifact: the summary is distilled from what is on
	// disk, so it provably matches the per-cell JSONs.
	exit := 0
	for i := range cells {
		run, err := bench.LoadRun(cells[i].path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "apesweep: %v\n", err)
			os.Exit(1)
		}
		cells[i].run = run
		if base != nil && tupleMatches(base, run) {
			cells[i].diff = bench.CompareRuns(run, base, *tolerance)
			if !cells[i].diff.Clean() {
				fmt.Fprintf(os.Stderr, "apesweep: cell %s regressed vs %s:\n%s",
					cells[i].id, *baseline, cells[i].diff.Render())
				exit = 1
			}
		}
		for _, res := range run.Results {
			if res.Err != "" {
				exit = 1
			}
		}
	}

	md, csv := summarize(cells, *baseline)
	for name, data := range map[string][]byte{
		"summary.md":  md,
		"summary.csv": csv,
		"index.html":  indexHTML(cells, *runSel, *baseline),
	} {
		if err := os.WriteFile(filepath.Join(*outDir, name), data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "apesweep: %v\n", err)
			os.Exit(1)
		}
	}
	fmt.Fprintf(os.Stderr, "apesweep: wrote %s/{summary.md,summary.csv,index.html} (%d cells)\n", *outDir, len(cells))
	os.Exit(exit)
}

// buildCells expands the axis lists into the full matrix, in declared
// order: dims outermost, then shards, router, tlb.
func buildCells(dimsList, shardsList, routerList, tlbList string) ([]cell, error) {
	var allDims []torus.Dims
	for _, s := range strings.Split(dimsList, ";") {
		s = strings.TrimSpace(s)
		if s == "" {
			allDims = append(allDims, torus.Dims{})
			continue
		}
		d, err := torus.ParseDims(s)
		if err != nil {
			return nil, fmt.Errorf("-dims: %w", err)
		}
		allDims = append(allDims, d)
	}
	var allShards []int
	for _, s := range strings.Split(shardsList, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("-shards: bad count %q", s)
		}
		allShards = append(allShards, n)
	}
	var allRouters []route.Mode
	for _, s := range strings.Split(routerList, ",") {
		m, err := route.ParseMode(strings.TrimSpace(s))
		if err != nil {
			return nil, fmt.Errorf("-router: %w", err)
		}
		allRouters = append(allRouters, m)
	}
	var allTLB []bool
	for _, s := range strings.Split(tlbList, ",") {
		switch strings.TrimSpace(s) {
		case "off", "":
			allTLB = append(allTLB, false)
		case "on":
			allTLB = append(allTLB, true)
		default:
			return nil, fmt.Errorf("-tlb: want off or on, got %q", s)
		}
	}

	var cells []cell
	seen := map[string]bool{}
	for _, d := range allDims {
		for _, sh := range allShards {
			for _, r := range allRouters {
				for _, tlb := range allTLB {
					c := cell{dims: d, shards: sh, router: r, tlb: tlb}
					c.id = cellID(c)
					if seen[c.id] {
						return nil, fmt.Errorf("duplicate cell %s in the matrix", c.id)
					}
					seen[c.id] = true
					cells = append(cells, c)
				}
			}
		}
	}
	return cells, nil
}

// cellID names a cell by its non-default axes ("d16x16x16-s4-adaptive");
// the all-defaults cell is "default".
func cellID(c cell) string {
	var parts []string
	if c.dims.Valid() {
		parts = append(parts, "d"+c.dims.String())
	}
	if c.shards > 1 {
		parts = append(parts, fmt.Sprintf("s%d", c.shards))
	}
	if c.router != route.ModeDimensionOrder {
		parts = append(parts, c.router.String())
	}
	if c.tlb {
		parts = append(parts, "tlb")
	}
	if len(parts) == 0 {
		return "default"
	}
	return strings.Join(parts, "-")
}

// tupleMatches reports whether a cell's run carries the same option
// tuple as the baseline — the same gate apebench applies before diffing.
func tupleMatches(base, run *bench.Run) bool {
	return base.Quick == run.Quick && base.Seed == run.Seed && base.Dims == run.Dims &&
		base.TLB == run.TLB && base.Router == run.Router && base.Scale == run.Scale &&
		base.Shards == run.Shards && base.Traced == run.Traced
}

// cellAxes renders a cell's axes as CSV-safe columns.
func cellAxes(c cell) (dims, shards, router, tlb string) {
	dims = c.run.Dims
	if dims == "" {
		dims = "default"
	}
	shards = strconv.Itoa(c.shards)
	router = c.router.String()
	tlb = "off"
	if c.tlb {
		tlb = "on"
	}
	return
}

// diffStatus renders a cell's baseline outcome for the tables.
func diffStatus(c cell, baseline string) string {
	if baseline == "" {
		return ""
	}
	if c.diff == nil {
		return "not gated"
	}
	if c.diff.Clean() {
		return "clean"
	}
	return fmt.Sprintf("%d regressions", len(c.diff.Regressions)+len(c.diff.MissingInCurrent)+len(c.diff.ShapeChanged))
}

// summarize distills the re-loaded artifacts into the Markdown and CSV
// summary tables: one row per (cell, experiment).
func summarize(cells []cell, baseline string) (md, csv []byte) {
	var m, c strings.Builder
	m.WriteString("# apesweep summary\n\n")
	m.WriteString("| cell | dims | shards | router | tlb | experiment | status | wall (s) | sim steps | steps/s | baseline |\n")
	m.WriteString("|---|---|---|---|---|---|---|---|---|---|---|\n")
	c.WriteString("cell,dims,shards,router,tlb,experiment,status,wall_seconds,sim_steps,steps_per_sec,baseline\n")
	for _, cl := range cells {
		dims, shards, router, tlb := cellAxes(cl)
		gate := diffStatus(cl, baseline)
		for _, res := range cl.run.Results {
			status := "ok"
			if res.Err != "" {
				status = "FAILED"
			}
			fmt.Fprintf(&m, "| %s | %s | %s | %s | %s | %s | %s | %.1f | %d | %.0f | %s |\n",
				cl.id, dims, shards, router, tlb, res.ID, status,
				res.WallSeconds, res.SimSteps, res.StepsPerSec, orDash(gate))
			fmt.Fprintf(&c, "%s,%s,%s,%s,%s,%s,%s,%.3f,%d,%.0f,%s\n",
				cl.id, dims, shards, router, tlb, res.ID, status,
				res.WallSeconds, res.SimSteps, res.StepsPerSec, gate)
		}
	}
	m.WriteString("\nPer-cell run artifacts (full report tables): `run-<cell>.json`; schema in docs/REPORTS.md.\n")
	return []byte(m.String()), []byte(c.String())
}

// indexHTML renders the self-contained HTML index: the summary table
// with links to the artifacts, then every cell's report tables verbatim.
func indexHTML(cells []cell, runSel, baseline string) []byte {
	var b strings.Builder
	b.WriteString(`<!DOCTYPE html>
<html>
<head>
<meta charset="utf-8"/>
<title>apesweep index</title>
<style>
body { font-family: monospace; margin: 16px; background: #fff; color: #222; }
h1 { font-size: 16px; } h2 { font-size: 13px; margin-top: 24px; }
table { border-collapse: collapse; font-size: 11px; }
td, th { border: 1px solid #ccc; padding: 2px 8px; text-align: right; }
th { background: #f2f2f2; } td:first-child, th:first-child { text-align: left; }
pre { font-size: 11px; background: #f8f8f8; padding: 8px; }
p.meta { color: #666; font-size: 11px; }
.bad { color: #e53e3e; }
</style>
</head>
<body>
<h1>apesweep index</h1>
`)
	fmt.Fprintf(&b, `<p class="meta">run=%s cells=%d baseline=%s</p>`+"\n",
		html.EscapeString(runSel), len(cells), html.EscapeString(orDash(baseline)))
	b.WriteString("<table><tr><th>cell</th><th>dims</th><th>shards</th><th>router</th><th>tlb</th><th>experiment</th><th>status</th><th>wall (s)</th><th>sim steps</th><th>baseline</th><th>artifact</th></tr>\n")
	for _, cl := range cells {
		dims, shards, router, tlb := cellAxes(cl)
		gate := diffStatus(cl, baseline)
		for _, res := range cl.run.Results {
			status, class := "ok", ""
			if res.Err != "" {
				status, class = "FAILED", ` class="bad"`
			}
			fmt.Fprintf(&b, `<tr><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td%s>%s</td><td>%.1f</td><td>%d</td><td>%s</td><td><a href="%s">json</a></td></tr>`+"\n",
				html.EscapeString(cl.id), dims, shards, router, tlb,
				html.EscapeString(res.ID), class, status, res.WallSeconds, res.SimSteps,
				html.EscapeString(orDash(gate)), html.EscapeString(filepath.Base(cl.path)))
		}
	}
	b.WriteString("</table>\n")
	if charts := sweepCharts(cells); len(charts) > 0 {
		b.WriteString("<h2>cross-cell charts</h2>\n")
		for _, ch := range charts {
			b.Write(ch)
		}
	}
	for _, cl := range cells {
		fmt.Fprintf(&b, "<h2>cell %s</h2>\n", html.EscapeString(cl.id))
		if cl.diff != nil {
			fmt.Fprintf(&b, "<pre>%s</pre>\n", html.EscapeString(cl.diff.Render()))
		}
		for _, res := range cl.run.Results {
			if res.Report == nil {
				fmt.Fprintf(&b, "<pre class=\"bad\">%s: %s</pre>\n",
					html.EscapeString(res.ID), html.EscapeString(res.Err))
				continue
			}
			fmt.Fprintf(&b, "<pre>%s</pre>\n", html.EscapeString(res.Report.Render()))
		}
	}
	b.WriteString("</body>\n</html>\n")
	return []byte(b.String())
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
