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
	tasks    []*taskStat    // in order of each task's first completion
	rec      *trace.Recorder
}

// taskStat is one task's accounting: a CPU runs a handful of distinct
// tasks, and each slot keeps a pointer to its task's entry, so a run
// costs no hash.
type taskStat struct {
	name string
	busy sim.Duration
	runs int64
}

// find returns the task's accounting entry, or nil if it never ran.
func (c *CPU) find(task string) *taskStat {
	for _, ts := range c.tasks {
		if ts.name == task {
			return ts
		}
	}
	return nil
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
	}
}

// Scale converts a task cost specified at the reference clock into this
// CPU's actual execution time.
func (c *CPU) Scale(refDur sim.Duration) sim.Duration {
	return sim.Duration(float64(refDur) * RefClockMHz / c.clockMHz)
}

// Slot is one engine's reusable handle for running firmware tasks on the
// CPU, one at a time: it holds the running task and its continuation, and
// its events are bound once, so a task allocates nothing.
type Slot struct {
	cpu            *CPU
	task           string
	stat           *taskStat // the entry of the last task this slot finished
	d              sim.Duration
	t0             sim.Time
	next           func()
	acquired, done func()
}

// NewSlot returns a task slot on this CPU for one engine.
func (c *CPU) NewSlot() *Slot {
	s := &Slot{cpu: c}
	s.acquired = s.run
	s.done = s.finish
	return s
}

// Exec runs a named firmware task for refDur (at the reference clock)
// through slot s, serializing against every other task on the core. This
// serialization is the mechanism behind the paper's loop-back bandwidth
// drop: when the core must run both GPU_P2P_TX and RX processing, each
// steals time from the other (§V.B). A task of no cost runs nothing and
// Exec reports true, so the caller continues at once; otherwise Exec
// reports false, the task waits its turn on the core and runs, and next
// is called when it finishes.
func (c *CPU) Exec(s *Slot, task string, refDur sim.Duration, next func()) bool {
	if refDur <= 0 {
		return true
	}
	if s.next != nil {
		panic("nios: slot already runs task " + s.task)
	}
	s.task, s.d, s.t0, s.next = task, c.Scale(refDur), c.eng.Now(), next
	if c.core.AcquireFunc(1, s.acquired) {
		s.run()
	}
	return false
}

// run starts the task on the core, which it holds.
func (s *Slot) run() { s.cpu.eng.After(s.d, s.done) }

// finish releases the core, accounts the task and continues its engine.
func (s *Slot) finish() {
	c := s.cpu
	c.core.Release(1)
	if c.rec.Stages() {
		c.rec.EmitSpan(s.t0, c.eng.Now(), c.name, "task", 0, s.task)
	}
	if s.stat == nil || s.stat.name != s.task {
		if s.stat = c.find(s.task); s.stat == nil {
			s.stat = &taskStat{name: s.task}
			c.tasks = append(c.tasks, s.stat)
		}
	}
	s.stat.busy += s.d
	s.stat.runs++
	next := s.next
	s.next = nil
	next()
}

// BusyTime returns the cumulative execution time of one task.
func (c *CPU) BusyTime(task string) sim.Duration {
	if ts := c.find(task); ts != nil {
		return ts.busy
	}
	return 0
}

// Runs returns how many times a task executed.
func (c *CPU) Runs(task string) int64 {
	if ts := c.find(task); ts != nil {
		return ts.runs
	}
	return 0
}

// TotalBusy returns the cumulative execution time over all tasks.
func (c *CPU) TotalBusy() sim.Duration {
	var t sim.Duration
	for _, ts := range c.tasks {
		t += ts.busy
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
	return float64(c.BusyTime(task)) / float64(sim.Duration(now))
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
	out := make([]TaskShare, 0, len(c.tasks))
	for _, ts := range c.tasks {
		out = append(out, TaskShare{Task: ts.name, Busy: ts.busy, Runs: ts.runs})
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
