package main

import (
	"math"
	"sort"
	"strings"
)

// metric names one reported number. BENCHMARK.json at the repository root
// lists the same end-to-end and per-layer metrics with the same units and
// directions; TestBenchmarkJSONMatchesCommand keeps the two in step.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the simulator sees, with the share of
// the parent's median by which a change may worsen them. The bounds are
// what a shared 2-vCPU VM can resolve: its own speed drifts by 10-20%
// over tens of minutes, so the medians of ten 25 s runs of one workload
// spread by up to 20% (see README.md). setup_s gets the widest bound too:
// on paper-quick it is a few milliseconds of process start-up.
var endToEnd = []metric{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mib", Unit: "MiB", Better: "lower", Bound: 0.15},
}

// layers are the modules CPU profile samples are charged to: the
// repository's internal packages, the benchmark's own code, and four
// runtime buckets (see attribute).
var layers = []string{
	"sim", "pcie", "core", "rdma", "route", "torus", "coll", "cluster",
	"nios", "v2p", "gpu", "cuda", "hsg", "bfs", "graph", "mpigpu", "ib",
	"trace", "units", "bench", "opmetrics", "timeseries", "apeperf",
	"go.gc", "go.sched", "go.alloc", "go.other",
}

// perLayer are the metrics of single layers that every workload reports.
// Counts a workload cannot observe read 0 (core.* on paper-quick, whose
// exhibits own their networks). Workload-specific timers (coll.*_s,
// bench.<exhibit>_s) and sim.parallel_speedup are printed too, but they
// are not defined on every workload, so they stay out of this list.
var perLayer = append([]metric{
	{Name: "sim.events", Unit: "count", Better: "lower"},
	{Name: "sim.peak_pending", Unit: "count", Better: "lower"},
	{Name: "sim.engines", Unit: "count", Better: "lower"},
	{Name: "sim.procs", Unit: "count", Better: "lower"},
	{Name: "sim.shard_rounds", Unit: "count", Better: "lower"},
	{Name: "sim.shard_busy_rounds", Unit: "count", Better: "lower"},
	{Name: "core.hop_bookings", Unit: "count", Better: "lower"},
	{Name: "core.wire_mib", Unit: "MiB", Better: "lower"},
	{Name: "core.tx_packets", Unit: "count", Better: "lower"},
	{Name: "core.rx_packets", Unit: "count", Better: "lower"},
	{Name: "route.decisions", Unit: "count", Better: "lower"},
	{Name: "route.deviations", Unit: "count", Better: "lower"},
	{Name: "route.escapes", Unit: "count", Better: "lower"},
	{Name: "go.mallocs", Unit: "count", Better: "lower"},
	{Name: "go.alloc_mib", Unit: "MiB", Better: "lower"},
	{Name: "go.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "sim.events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "sim.shard_occupancy", Unit: "fraction", Better: "higher"},
	{Name: "go.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "go.cpu_s", Unit: "s", Better: "lower"},
	{Name: "apeperf.profile_overhead", Unit: "x", Better: "lower"},
	{Name: "sim.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "go.sched.ns_per_event", Unit: "ns", Better: "lower"},
}, shareMetrics()...)

func shareMetrics() []metric {
	out := make([]metric, len(layers))
	for i, l := range layers {
		out[i] = metric{Name: l + ".cpu_share", Unit: "fraction", Better: "lower"}
	}
	return out
}

// deterministic reports whether a metric is a count of simulated work,
// which must repeat exactly across runs of one workload and seed. go.*
// counts depend on GC timing and are not included.
func deterministic(name string) bool {
	for _, m := range perLayer {
		if m.Name == name {
			return (m.Unit == "count" || m.Unit == "MiB") && !strings.HasPrefix(name, "go.")
		}
	}
	return false
}

// unitOf returns the unit of any metric the command prints.
func unitOf(name string) string {
	for _, set := range [][]metric{endToEnd, perLayer} {
		for _, m := range set {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	if name == "sim.parallel_speedup" {
		return "x"
	}
	return "s" // coll.*_s and bench.<exhibit>_s
}

// summary is one metric over a set of runs.
type summary struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	// Spread is the interquartile range as a share of the median.
	Spread float64 `json:"spread"`
	N      int     `json:"n"`
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := sorted(xs)
	return summary{Median: median(s), Min: s[0], Max: s[len(s)-1], Spread: spread(s), N: len(s)}
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs; 0 for none.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the method of
// Python's statistics.quantiles(xs, n=4) (the default, "exclusive"), so the
// spread printed here is the one a caller computing it that way sees.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	ld, m := len(s), len(s)+1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile range of xs as a share of its median.
func spread(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs(q3-q1) / math.Abs(med)
}

// withinBound reports whether the run-to-run spread of an end-to-end
// metric stays inside its regression bound; a wider spread means the set
// cannot tell a regression of that size from noise.
func (m metric) withinBound(s summary) bool {
	return m.Bound == 0 || s.Spread <= m.Bound
}
