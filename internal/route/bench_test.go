package route

import (
	"testing"

	"apenetsim/internal/sim"
	"apenetsim/internal/torus"
)

var benchDecision Decision

// BenchmarkRouterNextHop measures one routing decision per router, the
// call every packet makes at every hop. The packet at (0,0,0) is headed
// for (2,3,1) on an 8x8x8 torus, so all three dimensions are unfinished,
// and the view is backlogged: the dimension-ordered X+ link waits longest
// and Y+ and Z+ tie below it, so the adaptive router probes all three
// candidates and deviates through a two-way tie.
func BenchmarkRouterNextHop(b *testing.B) {
	dims := torus.Dims{X: 8, Y: 8, Z: 8}
	v := newFakeView(dims)
	cur, dst := torus.Coord{}, torus.Coord{X: 2, Y: 3, Z: 1}
	v.backlog[fakeLink{cur, torus.XPlus}] = 2 * sim.Microsecond
	v.backlog[fakeLink{cur, torus.YPlus}] = sim.Microsecond
	v.backlog[fakeLink{cur, torus.ZPlus}] = sim.Microsecond
	for _, r := range []Router{NewDimensionOrder(), NewAdaptiveMinimal(1), NewFaultAware()} {
		b.Run(r.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dec, ok := r.NextHop(v, cur, dst, sim.Time(i), 4096)
				if !ok {
					b.Fatal("no hop")
				}
				benchDecision = dec
			}
		})
	}
}
