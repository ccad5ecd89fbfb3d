package trace

import (
	"testing"

	"apenetsim/internal/sim"
)

// BenchmarkTraceEmit prices one emission, the trace layer's unit of work:
//
// disabled is Emit on a disabled recorder, the check every emit point
// pays in an untraced run; enabled is Emit on a recording one; op-stages
// is a card's per-packet stage span, EmitOp behind the Stages check, on a
// recorder under SetStages(true).
//
// The recording cases Reset every 4,096 events, so each op appends into
// an array that has already grown: the op prices the emit, not the growth
// of one ever-longer slice.
func BenchmarkTraceEmit(b *testing.B) {
	const keep = 4096
	b.Run("disabled", func(b *testing.B) {
		r := New()
		r.SetEnabled(false)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.Emit(sim.Time(i), "n0.card.gputx", "fetch_done", 4096, "")
		}
	})
	b.Run("enabled", func(b *testing.B) {
		r := New()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%keep == 0 {
				r.Reset()
			}
			r.Emit(sim.Time(i), "n0.card.gputx", "fetch_done", 4096, "")
		}
	})
	b.Run("op-stages", func(b *testing.B) {
		r := New()
		r.SetStages(true)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%keep == 0 {
				r.Reset()
			}
			if r.Stages() {
				r.EmitOp(sim.Time(i), sim.Time(i+100), "n0.card", "inject", uint64(i), 4096, "")
			}
		}
	})
}
