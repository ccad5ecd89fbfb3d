// Command apetrace renders saved trace captures (the shared trace JSON
// schema written by apebench -trace-out and pciescope -json; legacy bare
// event arrays are accepted too) into self-contained HTML pages: a
// per-link utilization timeline, a packet space-time diagram with
// detoured packets highlighted, run telemetry charts (shard-occupancy
// lanes and sampled series, when the capture carries them), the per-op
// stage breakdown, and the busiest-links table. See docs/OBSERVABILITY.md.
//
// Usage:
//
//	apetrace trace.json                 # writes trace.html next to it
//	apetrace -out page.html trace.json
//	apetrace -out - trace.json          # HTML on stdout
//	apetrace -summary trace.json        # per-(component, kind) text table
//	apetrace traces/*.json              # one HTML per input
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"apenetsim/internal/opmetrics"
	"apenetsim/internal/trace"
	"apenetsim/internal/trace/render"
)

func main() {
	out := flag.String("out", "", "output HTML path ('-' = stdout); defaults to the input path with .html; requires a single input")
	summary := flag.Bool("summary", false, "print per-(component, kind) and per-stage text summaries instead of rendering HTML")
	flag.Parse()

	paths := flag.Args()
	if len(paths) == 0 {
		fmt.Fprintln(os.Stderr, "apetrace: no trace files given (see -h)")
		os.Exit(2)
	}
	if *out != "" && len(paths) != 1 {
		fmt.Fprintln(os.Stderr, "apetrace: -out requires exactly one input file")
		os.Exit(2)
	}

	exit := 0
	for _, path := range paths {
		if err := one(path, *out, *summary); err != nil {
			fmt.Fprintf(os.Stderr, "apetrace: %s: %v\n", path, err)
			exit = 1
		}
	}
	os.Exit(exit)
}

// one processes a single capture: text summaries to stdout, or a
// rendered HTML page to its output path.
func one(path, out string, summary bool) error {
	f, err := trace.LoadFile(path)
	if err != nil {
		return err
	}
	if summary {
		return printSummary(path, f)
	}
	page, err := render.Page(f)
	if err != nil {
		return err
	}
	if out == "-" {
		_, err := os.Stdout.Write(page)
		return err
	}
	if out == "" {
		out = htmlPath(path)
	}
	if err := os.WriteFile(out, page, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "apetrace: wrote %s\n", out)
	return nil
}

// htmlPath derives the default output path: the input with its extension
// replaced by .html.
func htmlPath(path string) string {
	if i := strings.LastIndex(path, "."); i > strings.LastIndex(path, "/") {
		return path[:i] + ".html"
	}
	return path + ".html"
}

// printSummary writes the capture's per-(component, kind) aggregate table
// and, when the capture holds stage events, the per-op stage percentiles.
func printSummary(path string, f *trace.File) error {
	fmt.Printf("%s: source=%s label=%s dims=%s events=%d\n",
		path, orDash(f.Source), orDash(f.Label), orDash(f.Dims), len(f.Events))
	for _, s := range trace.SummarizeEvents(f.Events) {
		fmt.Printf("  %-28s %-14s %6d events  %10dB  %s .. %s\n",
			s.Comp, s.Kind, s.Count, s.Bytes, s.First, s.Last)
	}
	if ops := opmetrics.Collect(f.Events); len(ops) > 0 {
		fmt.Printf("stage breakdown (%d ops):\n", len(ops))
		for _, s := range opmetrics.Summarize(ops) {
			fmt.Printf("  %-14s %4d ops  p50 %-12s p90 %-12s p99 %-12s max %s\n",
				s.Stage, s.Count, s.P50, s.P90, s.P99, s.Max)
		}
	}
	if len(f.Series) > 0 {
		fmt.Printf("telemetry series (%d):\n", len(f.Series))
		for _, s := range f.Series {
			unit := s.Unit
			if unit == "" {
				unit = "-"
			}
			fmt.Printf("  %-20s %-6s %6d samples\n", s.Name, unit, len(s.Samples))
		}
	}
	return nil
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
