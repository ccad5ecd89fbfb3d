package bench

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"apenetsim/internal/route"
	"apenetsim/internal/sim"
	"apenetsim/internal/timeseries"
	"apenetsim/internal/trace"
	"apenetsim/internal/trace/render"
)

// SampleInterval is the telemetry sampling period traced experiments use:
// fine enough to resolve collective phases at the paper's microsecond
// latencies, coarse enough that long runs stay within the sampler's
// decimation budget (timeseries.MaxSamples).
const SampleInterval = 10 * sim.Microsecond

// Runner executes experiments across a worker pool. Experiments are
// independent full simulations (each builds its own engines), so they
// parallelize trivially; the runner keeps them deterministic by giving
// every experiment its own sim.Account and a seed derived only from the
// base seed and the experiment ID. Results come back in request order
// regardless of completion order, so a parallel run produces reports
// bit-identical to a serial one.
type Runner struct {
	// Parallel is the worker count. 0 defaults to GOMAXPROCS; 1 runs
	// serially.
	Parallel int
	// Opts is the base options every experiment receives. Opts.Seed is the
	// base seed (0 = paper defaults); Opts.Account, when set, additionally
	// aggregates simulation work across the whole run.
	Opts Options
	// Progress, when non-nil, is called once per finished experiment, from
	// a single goroutine at a time.
	Progress func(Result)
	// TraceDir, when non-empty, gives every experiment its own recorder in
	// stage-capture mode plus a telemetry sampler, and writes its capture
	// (shared trace.File schema, sampled series included) and rendered
	// HTML page to TraceDir/<id>.json and TraceDir/<id>.html. Experiments
	// that emitted nothing write no files. Tracing composes with -shards
	// (per-shard capture buffers, canonical post-run merge) and is
	// recorded as Run.Traced so baseline compares can gate on it.
	TraceDir string

	mu sync.Mutex // serializes Progress
}

// Run executes the experiments and assembles the run report.
func (r *Runner) Run(exps []Experiment) *Run {
	workers := r.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(exps) {
		workers = len(exps)
	}
	if workers < 1 {
		workers = 1
	}

	run := &Run{
		SchemaVersion: SchemaVersion,
		CreatedAt:     time.Now().UTC().Format(time.RFC3339),
		Quick:         r.Opts.Quick,
		Parallel:      workers,
		Seed:          r.Opts.Seed,
		TLB:           r.Opts.TLB,
		Scale:         r.Opts.Scale,
		Results:       make([]Result, len(exps)),
	}
	if r.Opts.Dims.Valid() {
		run.Dims = r.Opts.Dims.String()
	}
	if r.Opts.Shards > 1 {
		// 0 and 1 both mean one shard; normalize so -shards 1 runs stay
		// baseline-compatible with artifacts recorded without the flag.
		run.Shards = r.Opts.Shards
	}
	if r.Opts.Router != route.ModeDimensionOrder {
		run.Router = r.Opts.Router.String()
	}
	run.Traced = r.TraceDir != ""

	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				run.Results[i] = r.runOne(exps[i])
				if r.Progress != nil {
					r.mu.Lock()
					r.Progress(run.Results[i])
					r.mu.Unlock()
				}
			}
		}()
	}
	for i := range exps {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return run
}

// runOne executes a single experiment with its own accounting, capturing
// panics as failed results so one broken experiment cannot take down a
// whole sweep.
func (r *Runner) runOne(e Experiment) Result {
	opts := r.Opts
	acct := &sim.Account{}
	opts.Account = acct
	opts.Seed = DeriveSeed(r.Opts.Seed, e.ID)
	if r.TraceDir != "" {
		opts.Rec = trace.New()
		opts.Rec.SetStages(true)
		opts.TS = timeseries.NewSet(SampleInterval)
	}

	res := Result{ID: e.ID, Title: e.Title, Seed: opts.Seed}
	start := time.Now()
	func() {
		defer func() {
			if p := recover(); p != nil {
				res.Err = fmt.Sprintf("panic: %v", p)
				res.Report = nil
			}
		}()
		res.Report = e.Run(opts)
	}()
	res.WallSeconds = time.Since(start).Seconds()
	if opts.Rec.Len() > 0 {
		if err := r.writeTrace(e.ID, opts.Rec, opts.TS); err != nil && res.Err == "" {
			res.Err = fmt.Sprintf("trace-out: %v", err)
		}
	}
	res.SimSteps = acct.Steps()
	res.SimEngines = acct.Engines()
	res.PeakPending = acct.PeakPending()
	res.ShardRounds, res.ShardBusyRounds = acct.ShardRounds()
	if res.WallSeconds > 0 {
		res.StepsPerSec = float64(res.SimSteps) / res.WallSeconds
	}
	if r.Opts.Account != nil {
		// Fold the per-experiment work into the caller's whole-run account.
		r.Opts.Account.AddFrom(acct)
	}
	return res
}

// writeTrace saves one experiment's stage capture — events plus any
// sampled telemetry series — and its rendered HTML page under TraceDir.
func (r *Runner) writeTrace(id string, rec *trace.Recorder, ts *timeseries.Set) error {
	if err := os.MkdirAll(r.TraceDir, 0o755); err != nil {
		return err
	}
	f := trace.NewFile("apebench", id, rec)
	if r.Opts.Dims.Valid() {
		f.Dims = r.Opts.Dims.String()
	}
	f.Series = ts.Series()
	if err := f.Save(filepath.Join(r.TraceDir, id+".json")); err != nil {
		return err
	}
	page, err := render.Page(f)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(r.TraceDir, id+".html"), page, 0o644)
}

// DeriveSeed maps (base seed, experiment ID) to a per-experiment seed.
// A zero base keeps the experiments' paper-default seeds (returns 0); a
// non-zero base yields a deterministic, ID-dependent non-zero seed, so
// sweeps re-run with different randomness without losing reproducibility.
func DeriveSeed(base int64, id string) int64 {
	if base == 0 {
		return 0
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s", base, id)
	s := int64(h.Sum64() >> 1) // keep it positive
	if s == 0 {
		s = 1
	}
	return s
}
