// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel is built around three ideas:
//
//   - An Engine owning a priority queue of timestamped events. Ties are
//     broken by insertion order, so runs are fully deterministic.
//   - Procs: lightweight coroutine processes (one goroutine each, but with
//     strict alternation so exactly one goroutine runs at a time: the
//     driver of the event loop or the proc holding it). Procs model
//     application code — rank bodies and the libraries they call — and
//     may block on time (Sleep) or on synchronization objects. Hardware
//     engines are event-driven state machines instead: plain callbacks
//     that wait on the same objects without a goroutine.
//   - Synchronization primitives with FIFO fairness: Signal, Semaphore,
//     Queue and ByteFIFO. These model mailboxes, FIFOs with backpressure,
//     and serial servers (a one-unit Semaphore: DMA engines, processors).
//     Blocked procs and waiting callbacks share one FIFO per primitive;
//     waking either is one event at the current time.
//
// Simulated time has picosecond resolution, which keeps bandwidth/latency
// arithmetic exact enough for PCIe-level modeling (an 80 ns request cadence,
// 128-byte beat times, etc.) without accumulating rounding bias.
package sim

import "fmt"

// Time is an absolute simulation timestamp in picoseconds since the start
// of the run. The zero Time is the beginning of the simulation.
type Time int64

// Duration is a span of simulated time in picoseconds.
type Duration int64

// Common durations. They mirror time.Duration style but are picosecond
// based, because sub-nanosecond precision matters when modeling multi-GB/s
// links (a 128-byte beat on a 4 GB/s link lasts 32 ns; a 28 Gbps torus link
// moves one byte every 285.7 ps).
const (
	Picosecond  Duration = 1
	Nanosecond           = 1000 * Picosecond
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns the time as a float64 number of seconds.
func (t Time) Seconds() float64 { return Duration(t).Seconds() }

// String formats the timestamp with an adaptive unit.
func (t Time) String() string { return Duration(t).String() }

// Seconds returns the duration as a float64 number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Micros returns the duration as a float64 number of microseconds.
func (d Duration) Micros() float64 { return float64(d) / float64(Microsecond) }

// Nanos returns the duration as a float64 number of nanoseconds.
func (d Duration) Nanos() float64 { return float64(d) / float64(Nanosecond) }

// FromSeconds converts a float64 number of seconds into a Duration,
// rounding to the nearest picosecond.
func FromSeconds(s float64) Duration {
	if s < 0 {
		return -FromSeconds(-s)
	}
	return Duration(s*float64(Second) + 0.5)
}

// FromMicros converts a float64 number of microseconds into a Duration.
func FromMicros(us float64) Duration { return FromSeconds(us * 1e-6) }

// FromNanos converts a float64 number of nanoseconds into a Duration.
func FromNanos(ns float64) Duration { return FromSeconds(ns * 1e-9) }

// String formats the duration with an adaptive unit, e.g. "3.20us",
// "663.04us", "1.50ms", "80ns", "285ps".
func (d Duration) String() string {
	neg := ""
	if d < 0 {
		neg = "-"
		d = -d
	}
	switch {
	case d == 0:
		return "0s"
	case d < Nanosecond:
		return fmt.Sprintf("%s%dps", neg, int64(d))
	case d < Microsecond:
		return trimUnit(neg, float64(d)/float64(Nanosecond), "ns")
	case d < Millisecond:
		return trimUnit(neg, float64(d)/float64(Microsecond), "us")
	case d < Second:
		return trimUnit(neg, float64(d)/float64(Millisecond), "ms")
	default:
		return trimUnit(neg, float64(d)/float64(Second), "s")
	}
}

func trimUnit(neg string, v float64, unit string) string {
	s := fmt.Sprintf("%.2f", v)
	// Trim trailing zeros and a dangling decimal point: "80.00" -> "80".
	for len(s) > 0 && s[len(s)-1] == '0' {
		s = s[:len(s)-1]
	}
	if len(s) > 0 && s[len(s)-1] == '.' {
		s = s[:len(s)-1]
	}
	return neg + s + unit
}
