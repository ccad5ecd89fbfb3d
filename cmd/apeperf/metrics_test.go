package main

import (
	"math"
	"testing"
)

func TestSummarize(t *testing.T) {
	s := summarize([]float64{3, 1, 2})
	if s.Median != 2 || s.Min != 1 || s.Max != 3 || s.N != 3 {
		t.Errorf("summarize(3,1,2) = %+v", s)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", m)
	}
	if s := summarize(nil); s != (summary{}) {
		t.Errorf("summarize(nil) = %+v, want zero", s)
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4)[0] and [2].
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{5}, 5, 5},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestWithinBound(t *testing.T) {
	m := metric{Name: "wall_s", Bound: 0.10}
	if !m.withinBound(summary{Spread: 0.05}) || !m.withinBound(summary{Spread: 0.10}) {
		t.Error("a spread inside the bound was flagged")
	}
	if m.withinBound(summary{Spread: 0.11}) {
		t.Error("a spread beyond the bound was not flagged")
	}
	if !(metric{Name: "sim.events"}).withinBound(summary{Spread: 1}) {
		t.Error("a metric without a bound was flagged")
	}
}

func TestDeterministicCounts(t *testing.T) {
	for name, want := range map[string]bool{
		"sim.events": true, "core.wire_mib": true, "route.escapes": true,
		"go.mallocs": false, "sim.events_per_s": false, "wall_s": false, "bench.fig4_s": false,
	} {
		if got := deterministic(name); got != want {
			t.Errorf("deterministic(%q) = %v, want %v", name, got, want)
		}
	}
}
