// Command apeperf is the repository's benchmark: it measures the host cost
// of the simulator — wall time, set-up time, peak memory, and where the CPU
// goes by layer — on fixed workloads, and checks that every run reproduces
// the committed simulated results. See README.md for the workloads and
// metrics.
//
// Usage (from anywhere in the repository):
//
//	bash cmd/apeperf/run.sh [-workload a,b] [-seed N] [-seconds S] [-trace 0|1] [-json file]
//
// Each run of a workload is a fresh child process, so its peak RSS and GC
// state belong to that run alone. Workloads take turns run by run until
// each has been measured for -seconds; with -trace 1 each then gets one
// CPU-profiled run. The last line of standard output is a JSON object with
// the end-to-end metrics (-trace 0) or the per-layer metrics (-trace 1).
// The command exits 1 if any operation failed its checks.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// childTimeout bounds one run, so a hung simulation fails its operations
// instead of stalling the set.
const childTimeout = 150 * time.Second

func main() {
	var (
		names   = flag.String("workload", "", "comma-separated workloads to run (default: all)")
		seed    = flag.Int64("seed", 0, "input seed: bench.Options.Seed, route.Config.Seed and the lqcd vectors")
		seconds = flag.Float64("seconds", 25, "host seconds to measure each workload for (at least one run)")
		trace   = flag.Int("trace", 1, "1: add one CPU-profiled run per workload and end with the per-layer metrics; 0: end with the end-to-end metrics")
		jsonOut = flag.String("json", "", "write every run, the summaries and host metadata to this file")
		child   = flag.String("child", "", "run one run of this workload and print its sample (used by the parent process)")
	)
	flag.Parse()
	root, err := findRoot()
	if err == nil && *child != "" {
		var ws []workload
		if ws, err = selectWorkloads(*child); err == nil {
			err = runChild(ws[0], root, *seed, *trace == 1, os.Stdout)
		}
	} else if err == nil {
		var ok bool
		ok, err = runSet(root, *names, *seed, *seconds, *trace == 1, *jsonOut, os.Stdout)
		if err == nil && !ok {
			os.Exit(1)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "apeperf:", err)
		os.Exit(2)
	}
}

// findRoot walks up from the working directory to the repository root:
// the directory whose go.mod declares module apenetsim.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			line, _, _ := strings.Cut(string(b), "\n")
			if strings.TrimSpace(line) == "module apenetsim" {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the apenetsim repository (no go.mod declaring module apenetsim)")
		}
		dir = parent
	}
}

func selectWorkloads(names string) ([]workload, error) {
	all := defaultWorkloads()
	if names == "" {
		return all, nil
	}
	var out []workload
	for _, name := range strings.Split(names, ",") {
		found := false
		for _, w := range all {
			if w.name == name {
				out, found = append(out, w), true
			}
		}
		if !found {
			var known []string
			for _, w := range all {
				known = append(known, w.name)
			}
			return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(known, ", "))
		}
	}
	return out, nil
}

// runRecord is one run of a workload as the parent saw it.
type runRecord struct {
	Traced  bool                 `json:"traced"`
	Values  map[string]float64   `json:"values"`
	Profile map[string]layerCost `json:"profile,omitempty"`
	// Failed maps each failed operation to its first failure.
	Failed  map[string]string `json:"failed,omitempty"`
	outputs map[string]string
}

func (r *runRecord) fail(op, reason string) {
	if r.Failed == nil {
		r.Failed = map[string]string{}
	}
	if _, seen := r.Failed[op]; !seen {
		r.Failed[op] = reason
	}
}

// spawn performs one run of w in a child process.
func spawn(exe, root string, w workload, seed int64, traced bool) runRecord {
	rec := runRecord{Traced: traced, Values: map[string]float64{}}
	failAll := func(format string, args ...any) runRecord {
		for _, op := range w.ops {
			rec.fail(op, fmt.Sprintf(format, args...))
		}
		return rec
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "-child", w.name, "-seed", strconv.FormatInt(seed, 10), "-trace", trace)
	cmd.Dir = root
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", w.engines))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	spawned := time.Now()
	if err := cmd.Run(); err != nil {
		return failAll("run: %v", err)
	}
	var s sample
	if err := json.Unmarshal(stdout.Bytes(), &s); err != nil {
		return failAll("decoding the run's sample: %v", err)
	}
	for k, v := range s.Values {
		rec.Values[k] = v
	}
	ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	rec.Values["wall_s"] = s.WallS
	rec.Values["peak_rss_mib"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	rec.Values["go.cpu_s"] = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	if s.WallS > 0 {
		rec.Values["sim.events_per_s"] = s.Values["sim.events"] / s.WallS
	}
	if s.Entry > 0 {
		rec.Values["setup_s"] = time.Duration(s.Entry - spawned.UnixNano()).Seconds()
	}
	rec.Profile, rec.outputs = s.Profile, s.Outputs
	for op, e := range s.Errors {
		rec.fail(op, e)
	}
	for _, op := range w.ops {
		if _, ok := s.Outputs[op]; !ok {
			rec.fail(op, "no output")
		}
	}
	return rec
}

// workloadResult is a workload's runs and their summaries.
type workloadResult struct {
	Name       string `json:"name"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Attempted  int    `json:"attempted"`
	Failed     int    `json:"failed"`
	// Metrics summarize the untraced runs.
	Metrics map[string]summary `json:"metrics"`
	// Traced holds the per-layer metrics of the CPU-profiled run.
	Traced   map[string]float64 `json:"traced,omitempty"`
	Failures []string           `json:"failures,omitempty"`
	Runs     []runRecord        `json:"runs"`
	w        workload
	measured time.Duration
}

// hostInfo is the metadata that tells two sets' hosts apart.
type hostInfo struct {
	NProc     int    `json:"nproc"`
	GoVersion string `json:"go_version"`
	Commit    string `json:"commit"`
	// The speed probe is a pure-Go kernel's rate (iterations/s) before and
	// after the set: metadata, not a metric, that shows whether host drift
	// explains two sets that disagree.
	SpeedProbeBefore float64 `json:"speed_probe_before"`
	SpeedProbeAfter  float64 `json:"speed_probe_after"`
}

// setRecord is what -json writes.
type setRecord struct {
	Host            hostInfo           `json:"host"`
	Seed            int64              `json:"seed"`
	Seconds         float64            `json:"seconds"`
	Order           []string           `json:"order"`
	Workloads       []*workloadResult  `json:"workloads"`
	ParallelSpeedup map[string]float64 `json:"sim.parallel_speedup,omitempty"`
}

// runSet measures the named workloads, prints the report and the result
// line to out, and reports whether every operation passed its checks.
func runSet(root, names string, seed int64, seconds float64, traced bool, jsonOut string, out io.Writer) (bool, error) {
	ws, err := selectWorkloads(names)
	if err != nil {
		return false, err
	}
	exe, err := os.Executable()
	if err != nil {
		return false, err
	}
	set := &setRecord{Seed: seed, Seconds: seconds, Host: hostInfo{
		NProc: runtime.NumCPU(), GoVersion: runtime.Version(), Commit: commit()}}
	if jsonOut != "" {
		set.Host.SpeedProbeBefore = speedProbe()
	}
	for _, w := range ws {
		set.Workloads = append(set.Workloads, &workloadResult{Name: w.name, GOMAXPROCS: w.engines, w: w})
	}
	do := func(r *workloadResult, traced bool) {
		label := fmt.Sprintf("%s#%d", r.Name, len(r.Runs)+1)
		if traced {
			label = r.Name + "#traced"
		}
		start := time.Now()
		rec := spawn(exe, root, r.w, seed, traced)
		if !traced {
			r.measured += time.Since(start)
		}
		r.Runs = append(r.Runs, rec)
		set.Order = append(set.Order, label)
		fmt.Fprintf(os.Stderr, "apeperf: %-22s wall %.3fs, %d failed operations\n", label, rec.Values["wall_s"], len(rec.Failed))
	}
	budget := time.Duration(seconds * float64(time.Second))
	for more := true; more; {
		more = false
		for _, r := range set.Workloads {
			if len(r.Runs) == 0 || r.measured < budget {
				do(r, false)
				more = true
			}
		}
	}
	if traced {
		for _, r := range set.Workloads {
			do(r, true)
		}
	}
	if jsonOut != "" {
		set.Host.SpeedProbeAfter = speedProbe()
	}
	checkSameAs(set.Workloads)
	for _, r := range set.Workloads {
		checkRepeats(r)
		r.summarize()
	}
	set.ParallelSpeedup = parallelSpeedups(set.Workloads)
	printReport(out, set)
	if jsonOut != "" {
		b, err := json.MarshalIndent(set, "", "  ")
		if err == nil {
			err = os.WriteFile(jsonOut, append(b, '\n'), 0o644)
		}
		if err != nil {
			return false, fmt.Errorf("writing %s: %w", jsonOut, err)
		}
	}
	line := resultLine(set.Workloads, traced)
	b, err := json.Marshal(line)
	if err != nil {
		return false, err
	}
	fmt.Fprintln(out, string(b))
	return line.Correct, nil
}

// checkRepeats fails every operation whose simulated output differs from
// the workload's first run, and every run whose counts of simulated work
// differ from the first run's.
func checkRepeats(r *workloadResult) {
	ref := map[string]string{}
	var refValues map[string]float64
	for i := range r.Runs {
		run := &r.Runs[i]
		for op, got := range run.outputs {
			if want, ok := ref[op]; !ok {
				ref[op] = got
			} else if got != want {
				run.fail(op, "simulated output differs from the first run")
			}
		}
		if len(run.outputs) == 0 {
			continue
		}
		if refValues == nil {
			refValues = run.Values
			continue
		}
		for name, want := range refValues {
			if got := run.Values[name]; deterministic(name) && got != want {
				for _, op := range r.w.ops {
					run.fail(op, fmt.Sprintf("%s = %v, first run %v", name, got, want))
				}
			}
		}
	}
}

// checkSameAs fails the runs of a workload whose simulated outputs differ
// from those of the workload it must reproduce, when both ran.
func checkSameAs(rs []*workloadResult) {
	for _, r := range rs {
		for _, twin := range rs {
			if r.w.sameAs != twin.Name || len(twin.Runs) == 0 {
				continue
			}
			want := twin.Runs[0].outputs
			for i := range r.Runs {
				for op, got := range r.Runs[i].outputs {
					if w, ok := want[op]; ok && got != w {
						r.Runs[i].fail(op, "simulated output differs from "+twin.Name)
					}
				}
			}
		}
	}
}

// summarize fills in the counts of operations and the metric summaries.
func (r *workloadResult) summarize() {
	values := map[string][]float64{}
	var traced *runRecord
	for i := range r.Runs {
		run := &r.Runs[i]
		r.Attempted += len(r.w.ops)
		r.Failed += len(run.Failed)
		for _, op := range sortedKeys(run.Failed) {
			r.Failures = append(r.Failures, fmt.Sprintf("run %d: %s: %s", i+1, op, run.Failed[op]))
		}
		if run.Traced {
			traced = run
			continue
		}
		for k, v := range run.Values {
			values[k] = append(values[k], v)
		}
	}
	r.Metrics = map[string]summary{}
	for k, xs := range values {
		r.Metrics[k] = summarize(xs)
	}
	if traced == nil || traced.Profile == nil {
		return
	}
	var total int64
	for _, c := range traced.Profile {
		total += c.Samples
	}
	r.Traced = map[string]float64{}
	for _, l := range layers {
		if total > 0 {
			r.Traced[l+".cpu_share"] = float64(traced.Profile[l].Samples) / float64(total)
		}
	}
	if events := traced.Values["sim.events"]; events > 0 {
		r.Traced["sim.ns_per_event"] = float64(traced.Profile["sim"].Nanos) / events
		r.Traced["go.sched.ns_per_event"] = float64(traced.Profile["go.sched"].Nanos) / events
	}
	if wall := r.Metrics["wall_s"].Median; wall > 0 {
		r.Traced["apeperf.profile_overhead"] = traced.Values["wall_s"] / wall
	}
}

// parallelSpeedups divides the median wall time of each workload that
// reproduces another by that other's: the sharded engine's speed-up.
func parallelSpeedups(rs []*workloadResult) map[string]float64 {
	out := map[string]float64{}
	for _, r := range rs {
		for _, twin := range rs {
			if r.w.sameAs == twin.Name && r.Metrics["wall_s"].Median > 0 {
				out[r.Name] = twin.Metrics["wall_s"].Median / r.Metrics["wall_s"].Median
			}
		}
	}
	return out
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the command prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

// resultLine gives the median of every end-to-end metric, or with traced
// set every per-layer metric. Names get a "<workload>/" prefix when more
// than one workload ran.
func resultLine(rs []*workloadResult, traced bool) result {
	res := result{Metrics: map[string]resultValue{}}
	set := endToEnd
	if traced {
		set = perLayer
	}
	for _, r := range rs {
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		for _, m := range set {
			v, ok := r.Traced[m.Name]
			if !ok {
				v = r.Metrics[m.Name].Median
			}
			name := m.Name
			if len(rs) > 1 {
				name = r.Name + "/" + name
			}
			res.Metrics[name] = resultValue{Value: v, Unit: m.Unit}
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res
}

// printReport writes the human-readable summary of a set.
func printReport(out io.Writer, set *setRecord) {
	bw := bufio.NewWriter(out)
	defer bw.Flush()
	fmt.Fprintf(bw, "apeperf: seed %d, %g s per workload, %d CPUs, %s, commit %s\n",
		set.Seed, set.Seconds, set.Host.NProc, set.Host.GoVersion, set.Host.Commit)
	for _, r := range set.Workloads {
		rate := 0.0
		if r.Attempted > 0 {
			rate = float64(r.Failed) / float64(r.Attempted)
		}
		traced := 0
		for _, run := range r.Runs {
			if run.Traced {
				traced++
			}
		}
		fmt.Fprintf(bw, "\n== %s: %d runs + %d traced, GOMAXPROCS %d, error_rate %g (%d of %d operations failed)\n",
			r.Name, len(r.Runs)-traced, traced, r.GOMAXPROCS, rate, r.Failed, r.Attempted)
		for _, f := range r.Failures {
			fmt.Fprintf(bw, "FAIL %s\n", f)
		}
		fmt.Fprintf(bw, "%-30s %-9s %14s %14s %14s %8s\n", "metric", "unit", "median", "min", "max", "spread")
		line := func(name string) {
			if v, ok := r.Traced[name]; ok {
				fmt.Fprintf(bw, "%-30s %-9s %14.6g %14s %14s %8s\n", name, unitOf(name), v, "-", "-", "traced")
				return
			}
			s, ok := r.Metrics[name]
			if !ok {
				return // profile metrics of an untraced set, sim.procs on paper-quick
			}
			fmt.Fprintf(bw, "%-30s %-9s %14.6g %14.6g %14.6g %7.1f%%", name, unitOf(name), s.Median, s.Min, s.Max, 100*s.Spread)
			for _, m := range endToEnd {
				if m.Name == name && !m.withinBound(s) {
					fmt.Fprintf(bw, "  exceeds its %g%% bound", 100*m.Bound)
				}
			}
			fmt.Fprintln(bw)
		}
		printed := map[string]bool{}
		for _, set := range [][]metric{endToEnd, perLayer} {
			for _, m := range set {
				line(m.Name)
				printed[m.Name] = true
			}
		}
		for _, name := range sortedKeys(r.Metrics) {
			if !printed[name] {
				line(name)
			}
		}
	}
	for _, name := range sortedKeys(set.ParallelSpeedup) {
		fmt.Fprintf(bw, "\nsim.parallel_speedup (%s) = %.3f x\n", name, set.ParallelSpeedup[name])
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// commit names the source revision the binary was built from.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+modified"
		}
	}
	return rev + dirty
}

var probeSink int

// speedProbe runs a fixed pure-Go kernel (fill and sort 4096 integers) for
// about a second and returns its iterations per second.
func speedProbe() float64 {
	buf := make([]int, 4096)
	x := uint64(1)
	n := 0
	start := time.Now()
	for time.Since(start) < time.Second {
		for i := range buf {
			x = x*6364136223846793005 + 1442695040888963407
			buf[i] = int(x >> 33)
		}
		sort.Ints(buf)
		n++
	}
	probeSink = buf[0]
	return float64(n) / time.Since(start).Seconds()
}
