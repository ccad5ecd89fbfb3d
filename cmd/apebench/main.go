// Command apebench regenerates the tables and figures of "GPU peer-to-peer
// techniques applied to a cluster interconnect" (Ammendola et al., 2013)
// on the simulated APEnet+ cluster.
//
// Experiments are independent simulations, so they run on a worker pool
// (-parallel) without changing any result. Every run can be saved as a
// JSON report (-json, schema in docs/REPORTS.md) and diffed against a
// previous one (-baseline): numeric cells that move beyond -tolerance are
// classified as regressions or improvements by their column unit, and
// regressions make the command exit non-zero.
//
// Usage:
//
//	apebench -list
//	apebench -run fig7
//	apebench -run table1,table2 -csv
//	apebench -run 'coll-*'                 # glob and prefix patterns
//	apebench -run coll-scaling -dims 8,8,8
//	apebench -run fig6,fig8 -tlb           # hardware RX TLB on every card
//	apebench -run 'route-*,coll-a2a-adaptive'  # routing experiments (adaptive, fault-aware)
//	apebench -run coll-a2a -router adaptive -hotlinks 3
//	apebench -run coll-scaling,scale-sweep -scale  # 16^3/32^3 LQCD-scale rows
//	apebench -run scale-sweep -dims 16,16,16 -shards 4  # 4 parallel engines, bit-identical results
//	apebench -run 'route-*' -shards 2      # adaptive and fault-aware routing shard too
//	apebench -run route-degraded -trace-out traces/  # stage traces + telemetry + rendered HTML per experiment
//	apebench -run coll-allreduce -shards 4 -trace-out traces/  # sharded capture, canonically merged
//	apebench -all -quick -parallel 4 -json out.json
//	apebench -all -quick -scale -parallel 1 -baseline BENCH_2026-10-19.json -tolerance 0
//	apebench -run 'fig*,table*' -quick -scale -baseline BENCH_2026-10-19.json -tolerance 0  # the paper exhibits only
//	apebench -all -quick -json auto   # writes BENCH_<date>.json
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"apenetsim/internal/bench"
	"apenetsim/internal/route"
	"apenetsim/internal/torus"
)

// fmtRate renders an event-engine throughput compactly ("2.1M" steps/s).
func fmtRate(r float64) string {
	switch {
	case r >= 1e6:
		return fmt.Sprintf("%.1fM", r/1e6)
	case r >= 1e3:
		return fmt.Sprintf("%.0fk", r/1e3)
	default:
		return fmt.Sprintf("%.0f", r)
	}
}

// listExperiments prints the registry as a stable aligned table: ID,
// paper exhibit, title. The same rows, in the same order, appear in
// docs/EXPERIMENTS.md — the binary is the source of truth. With grouped
// set, experiments are printed in family blocks (paper exhibits, then
// abl-*, rx-*, coll-*, route-*, get-*, ... in first-appearance order) so
// the catalog stays readable as it grows.
func listExperiments(grouped bool) {
	exps := bench.All()
	idW, exW := len("ID"), len("EXHIBIT")
	for _, e := range exps {
		if len(e.ID) > idW {
			idW = len(e.ID)
		}
		if len(e.Exhibit) > exW {
			exW = len(e.Exhibit)
		}
	}
	row := func(e bench.Experiment) {
		fmt.Printf("%-*s  %-*s  %s\n", idW, e.ID, exW, e.Exhibit, e.Title)
	}
	fmt.Printf("%-*s  %-*s  %s\n", idW, "ID", exW, "EXHIBIT", "TITLE")
	if !grouped {
		for _, e := range exps {
			row(e)
		}
	} else {
		var families []string
		byFamily := map[string][]bench.Experiment{}
		for _, e := range exps {
			f := family(e.ID)
			if _, seen := byFamily[f]; !seen {
				families = append(families, f)
			}
			byFamily[f] = append(byFamily[f], e)
		}
		for _, f := range families {
			fmt.Printf("\n-- %s --\n", f)
			for _, e := range byFamily[f] {
				row(e)
			}
		}
	}
	fmt.Println("\ncatalog with expected headline numbers: docs/EXPERIMENTS.md")
}

// family buckets an experiment ID for the grouped listing: the paper's
// figures and tables form one block, every dashed prefix (abl-, rx-,
// coll-, route-, get-, ...) its own.
func family(id string) string {
	if strings.HasPrefix(id, "fig") || strings.HasPrefix(id, "table") {
		return "paper exhibits"
	}
	if i := strings.Index(id, "-"); i > 0 {
		return id[:i] + "-*"
	}
	return id
}

func main() {
	list := flag.Bool("list", false, "list experiment IDs (with paper exhibits) and exit; full catalog in docs/EXPERIMENTS.md")
	group := flag.Bool("group", false, "with -list: print experiments in family blocks (paper, abl-*, rx-*, coll-*, route-*, get-*)")
	run := flag.String("run", "", "comma-separated experiment IDs, globs or prefixes to run (e.g. fig7 or coll-*)")
	all := flag.Bool("all", false, "run every experiment")
	quick := flag.Bool("quick", false, "reduced sweeps / problem sizes")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	parallel := flag.Int("parallel", 1, "worker count (0 = all CPUs)")
	jsonOut := flag.String("json", "", "write the run as JSON to this file ('auto' = BENCH_<date>.json)")
	baseline := flag.String("baseline", "", "diff the run against this JSON report (with -run, only the selected experiments of it); exit 1 on regressions")
	tolerance := flag.Float64("tolerance", 0, "per-cell relative tolerance for -baseline, in percent")
	seed := flag.Int64("seed", 0, "base RNG seed; 0 keeps the paper-default seeds")
	dimsFlag := flag.String("dims", "", "torus dimensions X,Y,Z for the coll-* experiments (e.g. 8,8,8; at most 64x64x64 nodes)")
	tlb := flag.Bool("tlb", false, "run every card with the hardware RX TLB (28 nm follow-up) instead of the firmware V2P walk")
	router := flag.String("router", "", "torus routing engine: dor (default), adaptive, or fault")
	scale := flag.Bool("scale", false, "include the LQCD-scale 16^3/32^3 rows in size-sweeping experiments (minutes of wall time)")
	shards := flag.Int("shards", 1, "run the collective-world experiments (coll-*, route-*, scale-sweep; every router) across N parallel per-slab engines (1 = one engine, the default; results are bit-identical at every shard count, and recorded+gated on baseline compares)")
	hotlinks := flag.Int("hotlinks", 0, "print the top-N congested links after each coll-*/route-* experiment")
	traceOut := flag.String("trace-out", "", "write per-experiment stage traces with sampled telemetry series (shared trace JSON schema) and rendered HTML pages to this directory; composes with -shards via per-shard capture buffers")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile covering the experiment runs to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile (after the runs, post-GC) to this file")
	flag.Parse()

	if *shards < 1 {
		fmt.Fprintf(os.Stderr, "apebench: -shards %d: want at least 1 (one engine, the default)\n", *shards)
		os.Exit(2)
	}
	if err := bench.CheckTolerance(*tolerance); err != nil {
		fmt.Fprintf(os.Stderr, "apebench: -%v\n", err)
		os.Exit(2)
	}
	for _, c := range []struct {
		name string
		n    int
	}{{"parallel", *parallel}, {"hotlinks", *hotlinks}} {
		if err := bench.CheckCount(c.name, c.n); err != nil {
			fmt.Fprintf(os.Stderr, "apebench: -%v\n", err)
			os.Exit(2)
		}
	}
	if *list {
		listExperiments(*group)
		return
	}

	var dims torus.Dims
	if *dimsFlag != "" {
		var err error
		if dims, err = torus.ParseDims(*dimsFlag); err != nil {
			fmt.Fprintf(os.Stderr, "apebench: -dims: %v\n", err)
			os.Exit(2)
		}
	}
	routerMode, err := route.ParseMode(*router)
	if err != nil {
		fmt.Fprintf(os.Stderr, "apebench: -router: %v\n", err)
		os.Exit(2)
	}

	var todo []bench.Experiment
	switch {
	case *all:
		todo = bench.All()
	case *run != "":
		var err error
		if todo, err = bench.Select(strings.Split(*run, ",")); err != nil {
			fmt.Fprintf(os.Stderr, "apebench: %v\n", err)
			os.Exit(2)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}

	runner := bench.Runner{
		Parallel: *parallel,
		TraceDir: *traceOut,
		Opts: bench.Options{Quick: *quick, Seed: *seed, Dims: dims, TLB: *tlb,
			Router: routerMode, HotLinks: *hotlinks, Scale: *scale, Shards: *shards},
		Progress: func(r bench.Result) {
			status := fmt.Sprintf("%.1fs, %d sim steps, %s steps/s", r.WallSeconds, r.SimSteps, fmtRate(r.StepsPerSec))
			if r.ShardRounds > 0 {
				status += fmt.Sprintf(", %.2f busy shards", float64(r.ShardBusyRounds)/float64(r.ShardRounds))
			}
			if r.Err != "" {
				status = "FAILED: " + r.Err
			}
			fmt.Fprintf(os.Stderr, "apebench: %-12s (%s)\n", r.ID, status)
		},
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "apebench: -cpuprofile:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "apebench: -cpuprofile:", err)
			os.Exit(1)
		}
		// main exits through os.Exit, so the profile is stopped explicitly
		// right after the runs rather than deferred.
	}
	start := time.Now()
	report := runner.Run(todo)
	elapsed := time.Since(start)
	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "apebench: -memprofile:", err)
			os.Exit(1)
		}
		runtime.GC() // report live allocations, not garbage
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "apebench: -memprofile:", err)
			os.Exit(1)
		}
		f.Close()
	}

	failed := 0
	for _, res := range report.Results {
		if res.Err != "" {
			failed++ // already reported by the Progress callback
			continue
		}
		if *csv {
			fmt.Print(res.Report.CSV())
		} else {
			fmt.Print(res.Report.Render())
			occupancy := ""
			if res.ShardRounds > 0 {
				// Sharded runs: mean busy shards per round of the windowed
				// protocol, the direct measure of how well the slab cut fed
				// the parallel engines.
				occupancy = fmt.Sprintf(", shard occupancy %.2f busy/round (%d busy in %d rounds)",
					float64(res.ShardBusyRounds)/float64(res.ShardRounds),
					res.ShardBusyRounds, res.ShardRounds)
			}
			fmt.Printf("(%s in %.1fs, %d engines, %d sim steps, %s steps/s, peak %d pending%s)\n\n",
				res.ID, res.WallSeconds, res.SimEngines, res.SimSteps,
				fmtRate(res.StepsPerSec), res.PeakPending, occupancy)
		}
		if len(res.Report.HotLinks) > 0 {
			// -hotlinks: congestion data without reading trace JSON. Keep
			// stdout parseable in -csv mode.
			out := os.Stdout
			if *csv {
				out = os.Stderr
			}
			fmt.Fprintf(out, "hot links (%s):\n", res.ID)
			for _, h := range res.Report.HotLinks {
				fmt.Fprintf(out, "  %s\n", h)
			}
			fmt.Fprintln(out)
		}
	}
	if !*csv {
		rate := 0.0
		if s := report.TotalWallSeconds(); s > 0 {
			rate = float64(report.TotalSimSteps()) / s
		}
		fmt.Printf("ran %d experiments in %s wall (%.1fs serial work, %d sim steps, %s steps/s, %d workers)\n",
			len(report.Results), elapsed.Round(100*time.Millisecond),
			report.TotalWallSeconds(), report.TotalSimSteps(), fmtRate(rate), report.Parallel)
	}

	if *jsonOut != "" {
		path := *jsonOut
		if path == "auto" {
			path = "BENCH_" + time.Now().UTC().Format("2006-01-02") + ".json"
		}
		if err := report.SaveJSON(path); err != nil {
			fmt.Fprintln(os.Stderr, "apebench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "apebench: wrote %s\n", path)
	}

	exit := 0
	if *baseline != "" {
		base, err := bench.LoadRun(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "apebench:", err)
			os.Exit(1)
		}
		if base.Quick != report.Quick || base.Seed != report.Seed || base.Dims != report.Dims ||
			base.TLB != report.TLB || base.Router != report.Router || base.Scale != report.Scale ||
			base.Shards != report.Shards || base.Traced != report.Traced {
			fmt.Fprintf(os.Stderr, "apebench: incompatible baseline %s (quick=%v seed=%d dims=%q tlb=%v router=%q scale=%v shards=%d traced=%v, this run quick=%v seed=%d dims=%q tlb=%v router=%q scale=%v shards=%d traced=%v); rerun with matching flags\n",
				*baseline, base.Quick, base.Seed, base.Dims, base.TLB, base.Router, base.Scale, base.Shards, base.Traced,
				report.Quick, report.Seed, report.Dims, report.TLB, report.Router, report.Scale, report.Shards, report.Traced)
			os.Exit(1)
		}
		if !*all {
			// A -run selection is held against the artifact's results for
			// the same experiments; one it lacks is still listed as new.
			ids := make([]string, len(todo))
			for i, e := range todo {
				ids[i] = e.ID
			}
			base = base.Subset(ids)
		}
		// Keep stdout parseable in -csv mode; the diff goes to stderr there.
		diffOut := os.Stdout
		if *csv {
			diffOut = os.Stderr
		}
		diff := bench.CompareRuns(report, base, *tolerance)
		fmt.Fprintf(diffOut, "baseline %s:\n%s", *baseline, diff.Render())
		if !diff.Clean() {
			exit = 1
		}
	}
	if failed > 0 {
		exit = 1
	}
	os.Exit(exit)
}
