package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// SchemaVersion identifies the JSON run-report layout (docs/REPORTS.md).
// It is bumped on breaking changes so baseline loaders can refuse
// incompatible artifacts instead of mis-diffing them.
const SchemaVersion = 1

// Result is one experiment execution under the Runner: the regenerated
// report plus the runner's accounting — host wall time and the amount of
// simulation work (engines spun up, discrete events executed).
type Result struct {
	ID          string  `json:"id"`
	Title       string  `json:"title"`
	Report      *Report `json:"report,omitempty"`
	WallSeconds float64 `json:"wall_seconds"`
	SimEngines  uint64  `json:"sim_engines"`
	SimSteps    uint64  `json:"sim_steps"`
	// StepsPerSec is SimSteps/WallSeconds — the event-engine throughput
	// this host sustained. Wall-derived and therefore nondeterministic:
	// it lives here (and in apebench's progress output), never in a
	// Report cell, so baseline diffs stay byte-stable. Additive field:
	// older schema-1 readers ignore it.
	StepsPerSec float64 `json:"steps_per_sec,omitempty"`
	// PeakPending is the event-queue high-water mark across every engine
	// the experiment spun up — the simultaneity the simulator had to
	// hold. Deterministic. Additive field: older schema-1 readers
	// ignore it.
	PeakPending uint64 `json:"peak_pending,omitempty"`
	// ShardRounds and ShardBusyRounds describe sharded (-shards) runs:
	// the conservative windows the experiment's engine groups executed,
	// and the sum over windows of shards that had work. Their ratio is
	// the average parallel occupancy — the deterministic ceiling on
	// multi-core speedup (the achieved speedup is the steps_per_sec ratio
	// between runs at different -shards). Additive fields: older schema-1
	// readers ignore them, runs of one shard omit them.
	ShardRounds     uint64 `json:"shard_rounds,omitempty"`
	ShardBusyRounds uint64 `json:"shard_busy_rounds,omitempty"`
	// Seed is the per-experiment seed the runner derived (0 = the
	// experiment's paper default).
	Seed int64 `json:"seed,omitempty"`
	// Err carries a panic or failure message; Report is nil when set.
	Err string `json:"error,omitempty"`
}

// Run is one full apebench invocation: invocation metadata plus the
// per-experiment results, in the order the experiments were requested.
type Run struct {
	SchemaVersion int    `json:"schema_version"`
	CreatedAt     string `json:"created_at,omitempty"` // RFC 3339, UTC
	Quick         bool   `json:"quick"`
	Parallel      int    `json:"parallel"`
	// Seed is the base seed per-experiment seeds were derived from
	// (0 = paper defaults).
	Seed int64 `json:"seed,omitempty"`
	// Dims records a -dims torus override ("8x8x8"); empty when the
	// experiments ran with their default dimensions. Additive field:
	// older schema-1 readers ignore it.
	Dims string `json:"dims,omitempty"`
	// TLB records a -tlb override: every card ran with the hardware RX
	// TLB instead of the firmware V2P walk. Additive field: older
	// schema-1 readers ignore it.
	TLB bool `json:"tlb,omitempty"`
	// Router records a -router override ("adaptive", "fault"); empty when
	// the experiments ran with the default dimension-ordered router.
	// Additive field: older schema-1 readers ignore it.
	Router string `json:"router,omitempty"`
	// Scale records a -scale run: size-sweeping experiments included
	// their LQCD-scale (16^3/32^3) rows. Additive field: older schema-1
	// readers ignore it.
	Scale bool `json:"scale,omitempty"`
	// Shards records a -shards override: the collective-world experiments
	// ran across that many parallel per-slab engines (pinned bit-identical
	// to the default one-shard run, except scale-sweep's peak-pending
	// cell, which measures per-engine queues). Additive field: older
	// schema-1 readers ignore it.
	Shards int `json:"shards,omitempty"`
	// Traced records a -trace-out run: every experiment carried a
	// stage-capture recorder and a telemetry sampler, which perturb
	// wall-clock numbers, so baseline compares gate on it. Tracing
	// composes with -shards (per-shard capture buffers merged
	// canonically after each run). Additive field: older schema-1
	// readers ignore it.
	Traced  bool     `json:"traced,omitempty"`
	Results []Result `json:"results"`
}

// Result returns the result with the given experiment ID, or nil.
func (r *Run) Result(id string) *Result {
	for i := range r.Results {
		if r.Results[i].ID == id {
			return &r.Results[i]
		}
	}
	return nil
}

// TotalWallSeconds sums the per-experiment wall times (the serial cost of
// the run; with a parallel runner the elapsed time is lower).
func (r *Run) TotalWallSeconds() float64 {
	var s float64
	for i := range r.Results {
		s += r.Results[i].WallSeconds
	}
	return s
}

// TotalSimSteps sums the per-experiment executed-event counts.
func (r *Run) TotalSimSteps() uint64 {
	var s uint64
	for i := range r.Results {
		s += r.Results[i].SimSteps
	}
	return s
}

// WriteJSON writes the run as indented JSON.
func (r *Run) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// SaveJSON writes the run to a file.
func (r *Run) SaveJSON(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadRun decodes a JSON run report and checks its schema version and
// that no experiment ID appears twice, since a diff pairs results by ID.
func ReadRun(r io.Reader) (*Run, error) {
	var run Run
	dec := json.NewDecoder(r)
	if err := dec.Decode(&run); err != nil {
		return nil, fmt.Errorf("bench: decoding run report: %w", err)
	}
	if run.SchemaVersion != SchemaVersion {
		return nil, fmt.Errorf("bench: run report has schema_version %d, this build reads %d",
			run.SchemaVersion, SchemaVersion)
	}
	seen := make(map[string]bool, len(run.Results))
	for _, res := range run.Results {
		if seen[res.ID] {
			return nil, fmt.Errorf("bench: run report holds experiment %q twice", res.ID)
		}
		seen[res.ID] = true
	}
	return &run, nil
}

// LoadRun reads a JSON run report from a file.
func LoadRun(path string) (*Run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	run, err := ReadRun(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return run, nil
}
