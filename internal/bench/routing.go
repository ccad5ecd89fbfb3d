package bench

import (
	"fmt"

	"apenetsim/internal/coll"
	"apenetsim/internal/core"
	"apenetsim/internal/route"
	"apenetsim/internal/sim"
	"apenetsim/internal/torus"
	"apenetsim/internal/units"
)

// The route-* experiments exercise the pluggable routing subsystem
// (internal/route) under the traffic that separates the routers:
//
//   - route-hotspot: a matrix-transpose permutation, the classic
//     adversarial pattern for dimension-ordered routing — X-first
//     correction funnels many flows onto a few column links while
//     equivalent minimal paths sit idle. AdaptiveMinimal spreads them.
//   - route-degraded: dimension-ordered allreduce while torus cables die
//     one by one; FaultAware detours around the corpses, and a fully
//     cut-off node is refused synchronously rather than hanging the job.
//   - coll-a2a-adaptive: the BFS-style all-to-all, comparing how evenly
//     the two routers load the links (hot-link spread).
//
// Routing experiments run host-buffer worlds on 20 Gbps links — the
// paper's second link configuration — so the wire, not the card's RX
// firmware, is the binding resource and congestion is actually visible;
// on 28 Gbps links the RX ceiling hides most of it (cf. abl-link).

// routedWorld builds a host-buffer collective world with the given
// routing mode on 20 Gbps links.
func routedWorld(o Options, dims torus.Dims, mode route.Mode) (*sim.Engine, *coll.World) {
	eng := sim.NewWithAccount(o.Account)
	cfg := o.config()
	cfg.LinkBandwidth = units.Gbps(20)
	cfg.Routing = route.Config{Mode: mode, Seed: o.Seed}
	w, err := coll.NewWorld(eng, coll.Config{
		Dims:      dims,
		Card:      &cfg,
		SlotBytes: collSlot,
		Shards:    o.shardsFor(dims),
		Rec:       o.Rec,
		TS:        o.TS,
	})
	must(err)
	o.traceWorld(dims, dims.Nodes())
	return eng, w
}

// worldRouteStats folds every card's routing counters into totals.
func worldRouteStats(w *coll.World) (deviations, routedAround int64) {
	for _, node := range w.Cl.Nodes {
		st := node.Card.Stats()
		deviations += st.AdaptiveDeviations
		routedAround += st.RoutedAroundJobs
	}
	return
}

// linkSpread returns max/mean wire bytes where the mean runs over every
// usable directed link of the torus (links joining distinct nodes), not
// just the links that happened to carry traffic. Minimal routers move
// the same total wire bytes, so the denominator is router-independent
// and the metric is monotone in the actual peak load: 1.0 is a
// perfectly balanced torus, large values mean a few links carry the
// load while the rest idle.
func linkSpread(net *core.Network) float64 {
	var max, sum int64
	for _, s := range net.LinkStats() {
		if s.WireBytes > max {
			max = s.WireBytes
		}
		sum += s.WireBytes
	}
	usable := 0
	d := net.Dims
	for r := 0; r < d.Nodes(); r++ {
		for dir := torus.Dir(0); dir < torus.NumDirs; dir++ {
			if d.Neighbor(d.CoordOf(r), dir) != d.CoordOf(r) {
				usable++
			}
		}
	}
	if usable == 0 || sum == 0 {
		return 0
	}
	return float64(max) / (float64(sum) / float64(usable))
}

// transposePeer maps rank r to its matrix-transpose partner (x,y,z) ->
// (y,x,z); the permutation is an involution, so Exchange pairs up.
func transposePeer(d torus.Dims, r int) int {
	c := d.CoordOf(r)
	return d.Rank(torus.Coord{X: c.Y, Y: c.X, Z: c.Z})
}

// RouteHotspot measures the transpose permutation under both routers:
// achieved aggregate bandwidth, the adaptive deviation count, and how
// hot the worst link ran.
func RouteHotspot(o Options) *Report {
	dims := torus.Dims{X: 4, Y: 4, Z: 1}
	sizes := []units.ByteSize{64 * units.KB, 256 * units.KB}
	iters := 4
	if o.Quick {
		sizes = sizes[:1]
		iters = 2
	}
	n := dims.Nodes()
	offDiag := 0 // ranks that actually exchange (x != y)
	for r := 0; r < n; r++ {
		if transposePeer(dims, r) != r {
			offDiag++
		}
	}

	type res struct {
		elapsed sim.Duration
		util    float64
		dev     int64
		hot     []HotLink
	}
	measure := func(mode route.Mode, size units.ByteSize) res {
		eng, w := routedWorld(o, dims, mode)
		defer eng.Shutdown()
		var elapsed sim.Duration
		w.Run(func(p *sim.Proc, r *coll.Rank) {
			peer := transposePeer(w.Dims, r.ID)
			vals := collVals(r.ID, 4)
			r.Exchange(p, peer, 16*units.KB, vals) // warm-up
			d := r.Timed(p, func() {
				for i := 0; i < iters; i++ {
					r.Exchange(p, peer, size, vals)
				}
			})
			if r.ID == 0 {
				elapsed = d
			}
		})
		dev, _ := worldRouteStats(w)
		util := 0.0
		if hot := w.Net().HotLinks(1); len(hot) > 0 {
			util = 100 * hot[0].Utilization(eng.Now())
		}
		hot := o.hotLinks(fmt.Sprintf("%v %v %s", dims, size, mode), w.Net(), eng.Now())
		return res{elapsed, util, dev, hot}
	}

	rep := &Report{ID: "route-hotspot",
		Title: fmt.Sprintf("Transpose permutation on a %v torus (%d cards, 20 Gbps links): DOR vs adaptive", dims, n),
		Header: []string{"msg", "DOR time", "DOR agg BW", "adaptive time", "adaptive agg BW",
			"speedup", "deviations", "DOR hot util", "adaptive hot util"},
		Units: []string{"", "us", "MB/s", "us", "MB/s", "x", "", "%", "%"},
	}
	for _, size := range sizes {
		dor := measure(route.ModeDimensionOrder, size)
		ada := measure(route.ModeAdaptive, size)
		rep.HotLinks = append(rep.HotLinks, dor.hot...)
		rep.HotLinks = append(rep.HotLinks, ada.hot...)
		bytesMoved := units.ByteSize(offDiag*iters) * size
		rep.Rows = append(rep.Rows, []string{
			size.String(),
			f1(dor.elapsed.Micros()), f0(units.Rate(bytesMoved, dor.elapsed).MBpsValue()),
			f1(ada.elapsed.Micros()), f0(units.Rate(bytesMoved, ada.elapsed).MBpsValue()),
			f2(float64(dor.elapsed) / float64(ada.elapsed)),
			fmt.Sprint(ada.dev),
			f1(dor.util), f1(ada.util),
		})
	}
	rep.Notes = []string{
		"transpose (x,y,z)->(y,x,z): X-first correction funnels flows onto column links; adaptive spreads over minimal alternatives",
		fmt.Sprintf("%d of %d ranks exchange (the diagonal is idle); aggregate BW = exchanged bytes / makespan", offDiag, n),
		"deviations = hops the adaptive router took off the dimension-ordered direction (whole run)",
	}
	rep.SetMeta("dims", dims.String())
	rep.SetMeta("link", "20Gbps")
	return rep
}

// RouteDegraded kills torus cables one by one under the fault-aware
// router and measures the dimension-ordered allreduce as the detours pile
// up, ending with a fully cut-off node that must be refused synchronously.
func RouteDegraded(o Options) *Report {
	dims := torus.Dims{X: 4, Y: 2, Z: 2}
	reduceBytes := units.ByteSize(256 * units.KB)
	if o.Quick {
		dims = torus.Dims{X: 2, Y: 2, Z: 2}
		reduceBytes = 64 * units.KB
	}
	n := dims.Nodes()
	// Cables to cut, in order: two X cables on different rings, far from
	// each other, so two-fault runs stay connected.
	cables := []core.LinkID{
		{Coord: torus.Coord{X: 0, Y: 0, Z: 0}, Dir: torus.XPlus},
		{Coord: torus.Coord{X: 0, Y: 1, Z: 1}, Dir: torus.XPlus},
	}
	const vlen = 8
	want := collWant(n, vlen)

	rep := &Report{ID: "route-degraded",
		Title:  fmt.Sprintf("Allreduce on a degrading %v torus (%d cards, fault-aware routing)", dims, n),
		Header: []string{"links down", "allreduce time", "rate", "routed-around jobs", "detour hops"},
		Units:  []string{"", "us", "MB/s", "", ""},
	}

	for down := 0; down <= len(cables); down++ {
		eng, w := routedWorld(o, dims, route.ModeFaultAware)
		for _, c := range cables[:down] {
			w.Net().CutCable(c.Coord, c.Dir)
		}
		var elapsed sim.Duration
		w.Run(func(p *sim.Proc, r *coll.Rank) {
			vals := collVals(r.ID, vlen)
			r.AllReduceDims(p, 16*units.KB, vals) // warm-up
			var res []float64
			d := r.Timed(p, func() { res = r.AllReduceDims(p, reduceBytes, vals) })
			checkReduced("route-degraded", r.ID, res, want)
			if r.ID == 0 {
				elapsed = d
			}
		})
		dev, around := worldRouteStats(w)
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprint(down),
			f1(elapsed.Micros()), f0(units.Rate(reduceBytes, elapsed).MBpsValue()),
			fmt.Sprint(around), fmt.Sprint(dev),
		})
		rep.HotLinks = append(rep.HotLinks, o.hotLinks(fmt.Sprintf("%v down=%d", dims, down), w.Net(), eng.Now())...)
		eng.Shutdown()
	}

	// Partition: isolate the last rank and show the refusal is clean and
	// synchronous — an error from the PUT, not a hang.
	cut := dims.CoordOf(n - 1)
	eng, w := routedWorld(o, dims, route.ModeFaultAware)
	w.Net().IsolateNode(cut)
	var putErr error
	w.Run(func(p *sim.Proc, r *coll.Rank) {
		if r.ID == 0 {
			putErr = r.TryPut(p, n-1, 4*units.KB)
		}
	})
	eng.Shutdown()
	if putErr == nil {
		panic("route-degraded: PUT toward a cut-off node succeeded")
	}
	rep.Rows = append(rep.Rows, []string{
		fmt.Sprintf("node %v isolated", cut), "refused", "-", "-", "-",
	})
	rep.Notes = []string{
		"fault-aware routing detours around cut cables; the allreduce still verifies against the serial reduction",
		"routed-around jobs = PUTs detoured around dead links; detour hops = hops taken off dimension order (both whole-run: warm-up allreduce included)",
		fmt.Sprintf("isolated node refused synchronously: %v", putErr),
	}
	rep.SetMeta("dims", dims.String())
	rep.SetMeta("reduce_bytes", reduceBytes.String())
	return rep
}

// CollAllToAllAdaptive runs the BFS-style all-to-all under both routers
// and reports the hot-link spread: how unevenly each router loads the
// torus while moving the same traffic.
func CollAllToAllAdaptive(o Options) *Report {
	dims := torus.Dims{X: 4, Y: 2, Z: 2}
	sizes := []units.ByteSize{16 * units.KB, 64 * units.KB}
	if o.Quick {
		dims = torus.Dims{X: 2, Y: 2, Z: 2}
		sizes = sizes[:1]
	}
	if o.Dims.Valid() {
		dims = o.Dims
	}
	n := dims.Nodes()

	type res struct {
		elapsed sim.Duration
		spread  float64
		dev     int64
		hot     []HotLink
	}
	measure := func(mode route.Mode, size units.ByteSize) res {
		eng, w := routedWorld(o, dims, mode)
		defer eng.Shutdown()
		var elapsed sim.Duration
		w.Run(func(p *sim.Proc, r *coll.Rank) {
			d := r.Timed(p, func() { r.AllToAll(p, size, nil) })
			if r.ID == 0 {
				elapsed = d
			}
		})
		dev, _ := worldRouteStats(w)
		hot := o.hotLinks(fmt.Sprintf("%v %v %s", dims, size, mode), w.Net(), eng.Now())
		return res{elapsed, linkSpread(w.Net()), dev, hot}
	}

	rep := &Report{ID: "coll-a2a-adaptive",
		Title: fmt.Sprintf("All-to-all on a %v torus (%d cards, 20 Gbps links): hot-link spread by router", dims, n),
		Header: []string{"msg/peer", "DOR time", "DOR agg BW", "DOR spread", "adaptive time",
			"adaptive agg BW", "adaptive spread", "deviations"},
		Units: []string{"", "us", "MB/s", "", "us", "MB/s", "", ""},
	}
	for _, size := range sizes {
		dor := measure(route.ModeDimensionOrder, size)
		ada := measure(route.ModeAdaptive, size)
		rep.HotLinks = append(rep.HotLinks, dor.hot...)
		rep.HotLinks = append(rep.HotLinks, ada.hot...)
		total := units.ByteSize(n*(n-1)) * size
		rep.Rows = append(rep.Rows, []string{
			size.String(),
			f1(dor.elapsed.Micros()), f0(units.Rate(total, dor.elapsed).MBpsValue()), f2(dor.spread),
			f1(ada.elapsed.Micros()), f0(units.Rate(total, ada.elapsed).MBpsValue()), f2(ada.spread),
			fmt.Sprint(ada.dev),
		})
	}
	rep.Notes = []string{
		"spread = max link wire bytes / mean over all usable directed links; 1.00 is a perfectly balanced torus",
		fmt.Sprintf("average route length %.2f hops; every byte occupies that many links", dims.AvgHops()),
	}
	rep.SetMeta("dims", dims.String())
	rep.SetMeta("link", "20Gbps")
	return rep
}

// hotLinks snapshots the network's top-o.HotLinks links, labeled with
// the sub-run they came from. Empty when the run did not ask for hot
// links (-hotlinks unset), so default reports stay byte-identical.
func (o Options) hotLinks(label string, net *core.Network, now sim.Time) []HotLink {
	if o.HotLinks <= 0 {
		return nil
	}
	var out []HotLink
	for _, s := range net.HotLinks(o.HotLinks) {
		out = append(out, HotLink{
			Run:           label,
			Link:          s.Name(),
			Packets:       s.Packets,
			WireBytes:     s.WireBytes,
			UtilPct:       100 * s.Utilization(now),
			PeakBacklogUs: s.PeakBacklog.Micros(),
		})
	}
	return out
}
