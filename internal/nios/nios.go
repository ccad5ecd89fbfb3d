// Package nios models the Nios II soft microcontroller synthesized in the
// APEnet+ FPGA: a single in-order core that firmware tasks (RX packet
// processing, GPU TX flow control, buffer management) contend for. The
// paper identifies this core as the card's main performance bottleneck
// (Table I "Nios II active tasks" column), so its serialization and
// per-task accounting matter more than its microarchitecture.
package nios

import (
	"sort"

	"apenetsim/internal/sim"
	"apenetsim/internal/trace"
)

// RefClockMHz is the clock at which task costs in this repository are
// specified (the 200 MHz the paper quotes for the Nios II).
const RefClockMHz = 200.0

// CPU is a serial task executor with per-task busy-time accounting.
type CPU struct {
	eng      *sim.Engine
	name     string
	clockMHz float64
	core     *sim.Semaphore // one unit: the core runs one task at a time
	taskBusy map[string]sim.Duration
	taskRuns map[string]int64
	rec      *trace.Recorder
}

// SetRecorder attaches a trace recorder. Task executions are emitted as
// spans ("task" events covering queue wait + execution) only when the
// recorder is in stage-capture mode (trace.Recorder.SetStages), so
// ordinary recorders see no new events.
func (c *CPU) SetRecorder(rec *trace.Recorder) { c.rec = rec }

// New returns a CPU running at clockMHz. Task costs passed to Exec are
// interpreted as durations at RefClockMHz and scaled by RefClockMHz/clockMHz,
// so a 400 MHz ablation halves every firmware cost.
func New(eng *sim.Engine, name string, clockMHz float64) *CPU {
	if clockMHz <= 0 {
		panic("nios: non-positive clock")
	}
	return &CPU{
		eng:      eng,
		name:     name,
		clockMHz: clockMHz,
		core:     sim.NewSemaphore(eng, 1),
		taskBusy: map[string]sim.Duration{},
		taskRuns: map[string]int64{},
	}
}

// Scale converts a task cost specified at the reference clock into this
// CPU's actual execution time.
func (c *CPU) Scale(refDur sim.Duration) sim.Duration {
	return sim.Duration(float64(refDur) * RefClockMHz / c.clockMHz)
}

// Exec runs a named firmware task for refDur (at the reference clock),
// serializing against every other task on the core. This serialization is
// the mechanism behind the paper's loop-back bandwidth drop: when the core
// must run both GPU_P2P_TX and RX processing, each steals time from the
// other (§V.B).
func (c *CPU) Exec(p *sim.Proc, task string, refDur sim.Duration) {
	if refDur <= 0 {
		return
	}
	d := c.Scale(refDur)
	t0 := p.Now()
	c.core.Acquire(p, 1)
	p.Sleep(d)
	c.core.Release(1)
	if c.rec.Stages() {
		c.rec.EmitSpan(t0, p.Now(), c.name, "task", 0, task)
	}
	c.taskBusy[task] += d
	c.taskRuns[task]++
}

// BusyTime returns the cumulative execution time of one task.
func (c *CPU) BusyTime(task string) sim.Duration { return c.taskBusy[task] }

// Runs returns how many times a task executed.
func (c *CPU) Runs(task string) int64 { return c.taskRuns[task] }

// TotalBusy returns the cumulative execution time over all tasks.
func (c *CPU) TotalBusy() sim.Duration {
	var t sim.Duration
	for _, d := range c.taskBusy {
		t += d
	}
	return t
}

// Utilization returns total busy time over elapsed time.
func (c *CPU) Utilization(now sim.Time) float64 {
	if now <= 0 {
		return 0
	}
	return float64(c.TotalBusy()) / float64(sim.Duration(now))
}

// TaskUtilization returns one task's busy time over elapsed time — e.g.
// the fraction of a run the core spent in RX packet processing.
func (c *CPU) TaskUtilization(task string, now sim.Time) float64 {
	if now <= 0 {
		return 0
	}
	return float64(c.taskBusy[task]) / float64(sim.Duration(now))
}

// TaskShare describes one task's share of core time.
type TaskShare struct {
	Task string
	Busy sim.Duration
	Runs int64
}

// ActiveTasks lists tasks by descending busy time — the simulation's
// version of the paper's "Nios II active tasks" column.
func (c *CPU) ActiveTasks() []TaskShare {
	out := make([]TaskShare, 0, len(c.taskBusy))
	for t, d := range c.taskBusy {
		out = append(out, TaskShare{Task: t, Busy: d, Runs: c.taskRuns[t]})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Busy != out[j].Busy {
			return out[i].Busy > out[j].Busy
		}
		return out[i].Task < out[j].Task
	})
	return out
}

// Name returns the CPU name.
func (c *CPU) Name() string { return c.name }
