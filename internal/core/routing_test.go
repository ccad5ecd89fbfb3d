package core_test

import (
	"reflect"
	"strings"
	"testing"

	"apenetsim/internal/cluster"
	"apenetsim/internal/core"
	"apenetsim/internal/rdma"
	"apenetsim/internal/route"
	"apenetsim/internal/sim"
	"apenetsim/internal/torus"
	"apenetsim/internal/units"
)

// routedRing builds a 4x1x1 torus with the given routing config and one
// registered 1 MB host buffer per rank. mut, when non-nil, adjusts the
// card configuration before the cluster is built.
func routedRing(t *testing.T, rc route.Config, mut func(*core.Config)) (*sim.Engine, *cluster.Cluster, []*rdma.Endpoint, []*rdma.Buffer) {
	t.Helper()
	eng := sim.New()
	cfg := core.DefaultConfig()
	cfg.Routing = rc
	if mut != nil {
		mut(&cfg)
	}
	cl, err := cluster.New(eng, nil, torus.Dims{X: 4, Y: 1, Z: 1}, 4, func(i int) cluster.NodeConfig {
		return cluster.NodeConfig{Card: &cfg}
	})
	if err != nil {
		t.Fatal(err)
	}
	eps := make([]*rdma.Endpoint, 4)
	bufs := make([]*rdma.Buffer, 4)
	for i := range eps {
		i := i
		eps[i] = rdma.NewEndpoint(cl.Nodes[i].Card)
		eng.Go("setup", func(p *sim.Proc) {
			var err error
			bufs[i], err = eps[i].NewHostBuffer(p, 1*units.MB)
			if err != nil {
				t.Error(err)
			}
		})
	}
	eng.Run()
	return eng, cl, eps, bufs
}

// A cut cable under the fault-aware router must detour the traffic the
// long way around the ring and account the job as routed around.
func TestFaultAwareRoutesAroundCutCable(t *testing.T) {
	eng, cl, eps, bufs := routedRing(t, route.Config{Mode: route.ModeFaultAware}, nil)
	defer eng.Shutdown()
	cl.Net.CutCable(torus.Coord{X: 0}, torus.XPlus)

	done := false
	eng.Go("send", func(p *sim.Proc) {
		if _, err := eps[0].PutBuffer(p, 1, bufs[1], bufs[0], 4*units.KB, rdma.PutFlags{}); err != nil {
			t.Error(err)
		}
	})
	eng.Go("recv", func(p *sim.Proc) {
		eps[1].WaitRecv(p)
		done = true
	})
	eng.Run()

	if !done {
		t.Fatal("detoured message never delivered")
	}
	st := cl.Net.Card(0).Stats()
	if st.RoutedAroundJobs != 1 {
		t.Fatalf("RoutedAroundJobs = %d, want 1", st.RoutedAroundJobs)
	}
	if st.UnroutablePackets != 0 || st.UnreachableJobs != 0 {
		t.Fatalf("lossless detour dropped traffic: %+v", st)
	}
	// The detour 0->3->2->1 runs on the X- links; the dead X+ cable and
	// the still-healthy other X+ links carried nothing.
	for _, s := range cl.Net.LinkStats() {
		if s.Dir != torus.XMinus {
			t.Fatalf("detour used unexpected link %s", s.Name())
		}
	}
	if len(cl.Net.DownLinks()) != 2 {
		t.Fatalf("DownLinks = %v, want both directions of one cable", cl.Net.DownLinks())
	}
}

// A fault downstream of the divergence point must still count the job
// as routed around: the router leaves dimension order at a node whose
// own dimension-ordered link is healthy, because the dead cable sits one
// hop further along the would-be path.
func TestFaultAwareCountsDownstreamDetours(t *testing.T) {
	eng, cl, eps, bufs := routedRing(t, route.Config{Mode: route.ModeFaultAware}, nil)
	defer eng.Shutdown()
	// Kill the 1<->2 cable. The dimension-ordered route 0->1->2 dies one
	// hop downstream of the source; fault-aware goes 0->3->2 instead,
	// deviating at node 0 where the local X+ link is still up.
	cl.Net.CutCable(torus.Coord{X: 1}, torus.XPlus)

	done := false
	eng.Go("send", func(p *sim.Proc) {
		if _, err := eps[0].PutBuffer(p, 2, bufs[2], bufs[0], 4*units.KB, rdma.PutFlags{}); err != nil {
			t.Error(err)
		}
	})
	eng.Go("recv", func(p *sim.Proc) {
		eps[2].WaitRecv(p)
		done = true
	})
	eng.Run()

	if !done {
		t.Fatal("detoured message never delivered")
	}
	if st := cl.Net.Card(0).Stats(); st.RoutedAroundJobs != 1 || st.AdaptiveDeviations == 0 {
		t.Fatalf("downstream fault not attributed to the job: %+v", st)
	}
}

// A fully cut-off node must fail the PUT synchronously — no hang, no
// packets on the wire — and count as an unreachable job.
func TestUnreachableNodeFailsSubmit(t *testing.T) {
	eng, cl, eps, bufs := routedRing(t, route.Config{Mode: route.ModeFaultAware}, nil)
	defer eng.Shutdown()
	cl.Net.IsolateNode(torus.Coord{X: 1})

	var putErr error
	eng.Go("send", func(p *sim.Proc) {
		_, putErr = eps[0].PutBuffer(p, 1, bufs[1], bufs[0], 4*units.KB, rdma.PutFlags{})
	})
	eng.Run()

	if putErr == nil || !strings.Contains(putErr.Error(), "unreachable") {
		t.Fatalf("Put toward a cut-off node: err = %v, want unreachable", putErr)
	}
	st := cl.Net.Card(0).Stats()
	if st.UnreachableJobs != 1 || st.JobsSubmitted != 0 || st.TXPackets != 0 {
		t.Fatalf("unreachable PUT leaked into the TX path: %+v", st)
	}
	if len(cl.Net.LinkStats()) != 0 {
		t.Fatalf("unreachable PUT put bytes on the wire: %v", cl.Net.LinkStats())
	}
	// Unrelated pairs still work after the partition.
	ok := false
	eng.Go("send2", func(p *sim.Proc) {
		if _, err := eps[0].PutBuffer(p, 3, bufs[3], bufs[0], 4*units.KB, rdma.PutFlags{}); err != nil {
			t.Error(err)
		}
	})
	eng.Go("recv2", func(p *sim.Proc) {
		eps[3].WaitRecv(p)
		ok = true
	})
	eng.Run()
	if !ok {
		t.Fatal("healthy pair stopped working after the partition")
	}
}

// On a 4-ring the two-hop distance is a wrap-around tie, so the adaptive
// router may leave the dimension-ordered X+ path when it is backlogged by
// a competing flow; the deviation must be counted and the traffic must
// still arrive.
func TestAdaptiveDeviatesAroundContention(t *testing.T) {
	// 10 Gbps links make the flood wire-bound (the RX firmware is no
	// longer the bottleneck), so the contended link carries back-to-back
	// bursts the adaptive probe can actually see.
	eng, cl, eps, bufs := routedRing(t, route.Config{Mode: route.ModeAdaptive},
		func(c *core.Config) { c.LinkBandwidth = units.Gbps(10) })
	defer eng.Shutdown()
	const msg = 256 * units.KB

	recvd := 0
	// Rank 3 floods 3->1, whose dimension-ordered route cuts through
	// node 0 on (0,0,0)X+. Rank 0 then sends 0->2: the two-hop distance
	// is a wrap-around tie, X+ rides the flooded link, X- is idle.
	eng.Go("flood", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			if _, err := eps[3].PutBuffer(p, 1, bufs[1], bufs[3], msg, rdma.PutFlags{}); err != nil {
				t.Error(err)
			}
		}
	})
	eng.Go("probe", func(p *sim.Proc) {
		p.Sleep(50 * sim.Microsecond) // let the flood build backlog first
		if _, err := eps[0].PutBuffer(p, 2, bufs[2], bufs[0], msg, rdma.PutFlags{}); err != nil {
			t.Error(err)
		}
	})
	eng.Go("recv1", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			eps[1].WaitRecv(p)
			recvd++
		}
	})
	eng.Go("recv2", func(p *sim.Proc) {
		eps[2].WaitRecv(p)
		recvd++
	})
	eng.Run()

	if recvd != 5 {
		t.Fatalf("received %d messages, want 5", recvd)
	}
	st0 := cl.Net.Card(0).Stats()
	if st0.AdaptiveDeviations == 0 {
		t.Fatalf("adaptive router never deviated around the flooded link: %+v", st0)
	}
	if st0.RoutedAroundJobs != 0 {
		t.Fatalf("no links are down, yet RoutedAroundJobs = %d", st0.RoutedAroundJobs)
	}
	// The deviating packets went 0 -> 3 -> 2 on X- links.
	if _, ok := linkByName(cl.Net.LinkStats(), "(3,0,0)X-"); !ok {
		t.Fatalf("deviated path left no trace on (3,0,0)X-: %v", cl.Net.LinkStats())
	}
}

// When a link dies mid-message under a fault-blind router, the packets
// already on the wire deliver but the rest are lost — and the receiver
// must drain the damaged job as incomplete instead of waiting forever
// on bytes that can no longer arrive.
func TestWireLossDrainsDamagedJob(t *testing.T) {
	eng, cl, eps, bufs := routedRing(t, route.Config{}, nil)
	defer eng.Shutdown()
	const msg = 256 * units.KB // 64 packets

	eng.Go("send", func(p *sim.Proc) {
		if _, err := eps[0].PutBuffer(p, 1, bufs[1], bufs[0], msg, rdma.PutFlags{}); err != nil {
			t.Error(err)
		}
		eps[0].WaitSend(p)
	})
	// Cut the only link toward rank 1 while the message is in flight.
	eng.At(sim.Time(50*sim.Microsecond), func() {
		cl.Net.SetLinkState(core.LinkID{Coord: torus.Coord{X: 0}, Dir: torus.XPlus}, false)
	})
	eng.Run()

	src, dst := cl.Net.Card(0).Stats(), cl.Net.Card(1).Stats()
	if src.UnroutablePackets == 0 || src.UnroutablePackets >= 64 {
		t.Fatalf("want a partial loss, got %d of 64 packets lost", src.UnroutablePackets)
	}
	if dst.RXPackets == 0 || dst.RXPackets+src.UnroutablePackets != 64 {
		t.Fatalf("packets unaccounted: %d delivered + %d lost != 64", dst.RXPackets, src.UnroutablePackets)
	}
	if dst.IncompleteRXJobs != 1 {
		t.Fatalf("damaged job not drained: IncompleteRXJobs = %d", dst.IncompleteRXJobs)
	}
	if got := cl.Net.Card(1).PendingRXJobs(); got != 0 {
		t.Fatalf("job progress stranded: PendingRXJobs = %d", got)
	}
}

// A link dying past the first hop dead-ends packets mid-route: every
// packet still crosses the injector's hop, the ones arriving after the
// cut are lost at the intermediate node, and the receiver drains the
// damaged job.
func TestMidRouteDeadEndDrainsDamagedJob(t *testing.T) {
	eng, cl, eps, bufs := routedRing(t, route.Config{}, nil)
	defer eng.Shutdown()
	const msg = 256 * units.KB // 64 packets, 0 -> 1 -> 2 on X+ links

	eng.Go("send", func(p *sim.Proc) {
		if _, err := eps[0].PutBuffer(p, 2, bufs[2], bufs[0], msg, rdma.PutFlags{}); err != nil {
			t.Error(err)
		}
		eps[0].WaitSend(p)
	})
	eng.At(sim.Time(50*sim.Microsecond), func() {
		cl.Net.SetLinkState(core.LinkID{Coord: torus.Coord{X: 1}, Dir: torus.XPlus}, false)
	})
	eng.Run()

	src, dst := cl.Net.Card(0).Stats(), cl.Net.Card(2).Stats()
	if src.UnroutablePackets == 0 || src.UnroutablePackets >= 64 {
		t.Fatalf("want a partial loss, got %d of 64 packets lost", src.UnroutablePackets)
	}
	if dst.RXPackets+src.UnroutablePackets != 64 {
		t.Fatalf("packets unaccounted: %d delivered + %d lost != 64", dst.RXPackets, src.UnroutablePackets)
	}
	links := cl.Net.LinkStats()
	first, _ := linkByName(links, "(0,0,0)X+")
	second, _ := linkByName(links, "(1,0,0)X+")
	if first.Packets != 64 || second.Packets != dst.RXPackets {
		t.Fatalf("hop counts: first link %d (want 64), second %d (want %d delivered)",
			first.Packets, second.Packets, dst.RXPackets)
	}
	if dst.IncompleteRXJobs != 1 {
		t.Fatalf("damaged job not drained: IncompleteRXJobs = %d", dst.IncompleteRXJobs)
	}
	if got := cl.Net.Card(2).PendingRXJobs(); got != 0 {
		t.Fatalf("job progress stranded: PendingRXJobs = %d", got)
	}
}

// deadLinkRing builds an 8x1x1 torus under the dimension-ordered router,
// on one engine or split into shards per-slab engines, with the link out of
// rank 4 toward rank 5 down: traffic from rank 2 to rank 5 travels
// 2 -> 3 -> 4 and dies there, past the slab boundary of a 2-shard group.
func deadLinkRing(t *testing.T, shards int) (*sim.Engine, *cluster.Cluster) {
	t.Helper()
	eng := sim.New()
	cfg := core.DefaultConfig()
	dims := torus.Dims{X: 8, Y: 1, Z: 1}
	engOf := func(i int) *sim.Engine { return eng }
	if shards > 1 {
		g := sim.NewGroup(eng, shards, cfg.HopLatency)
		engOf = func(i int) *sim.Engine { return g.Engine(i * shards / dims.X) }
	}
	cl, err := cluster.New(eng, nil, dims, dims.X, func(i int) cluster.NodeConfig {
		return cluster.NodeConfig{Card: &cfg, Eng: engOf(i)}
	})
	if err != nil {
		t.Fatal(err)
	}
	cl.Net.SetLinkState(core.LinkID{Coord: torus.Coord{X: 4}, Dir: torus.XPlus}, false)
	return eng, cl
}

// A mid-route dead end on a sharded torus accounts the loss on both
// ends across shard boundaries — the source card's counters on its
// shard, the destination's credit and drain on its own — exactly like
// one shard.
func TestMidRouteDeadEndAcrossShards(t *testing.T) {
	run := func(shards int) (src, dst core.CardStats, pending int) {
		eng, cl := deadLinkRing(t, shards)
		defer eng.Shutdown()
		srcCard, dstCard := cl.Nodes[2].Card, cl.Nodes[5].Card
		srcEP, dstEP := rdma.NewEndpoint(srcCard), rdma.NewEndpoint(dstCard)
		var srcBuf, dstBuf *rdma.Buffer
		dstCard.Eng.Go("recv-setup", func(p *sim.Proc) {
			var err error
			if dstBuf, err = dstEP.NewHostBuffer(p, 64*units.KB); err != nil {
				t.Error(err)
			}
		})
		eng.Run()
		srcCard.Eng.Go("send", func(p *sim.Proc) {
			var err error
			if srcBuf, err = srcEP.NewHostBuffer(p, 64*units.KB); err != nil {
				t.Error(err)
				return
			}
			if _, err := srcEP.PutBuffer(p, 5, dstBuf, srcBuf, 16*units.KB, rdma.PutFlags{}); err != nil {
				t.Error(err)
			}
			srcEP.WaitSend(p)
		})
		eng.Run()
		return srcCard.Stats(), dstCard.Stats(), dstCard.PendingRXJobs()
	}
	src1, dst1, pend1 := run(1)
	if src1.UnroutablePackets != 4 || dst1.IncompleteRXJobs != 1 || pend1 != 0 {
		t.Fatalf("one shard: %d packets lost (want 4), %d incomplete jobs (want 1), %d pending",
			src1.UnroutablePackets, dst1.IncompleteRXJobs, pend1)
	}
	src2, dst2, pend2 := run(2)
	if src2 != src1 || dst2 != dst1 || pend2 != pend1 {
		t.Fatalf("2 shards differ from one:\nsrc %+v\n    %+v\ndst %+v\n    %+v",
			src2, src1, dst2, dst1)
	}
}

// A GET request lost mid-route fails the requester's outstanding entry
// from the responder's side of the torus; on a sharded torus the failure
// must reach the requester's shard as a post, not edit its state from
// another worker (go test -race reports that as a data race). Every
// card's counters, the requester's peak of outstanding GETs included,
// are the same at 1, 2 and 4 shards.
func TestLostGetRequestAcrossShards(t *testing.T) {
	const gets = 8
	run := func(shards int) []core.CardStats {
		eng, cl := deadLinkRing(t, shards)
		defer eng.Shutdown()
		reqCard, rspCard := cl.Nodes[2].Card, cl.Nodes[5].Card
		reqEP, rspEP := rdma.NewEndpoint(reqCard), rdma.NewEndpoint(rspCard)
		var local, remote *rdma.Buffer
		rspCard.Eng.Go("remote-setup", func(p *sim.Proc) {
			var err error
			if remote, err = rspEP.NewHostBuffer(p, 64*units.KB); err != nil {
				t.Error(err)
			}
		})
		eng.Run()
		reqCard.Eng.Go("get", func(p *sim.Proc) {
			var err error
			if local, err = reqEP.NewHostBuffer(p, 64*units.KB); err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < gets; i++ {
				if _, err := reqEP.GetBuffer(p, 5, remote, local, 4*units.KB, rdma.GetFlags{}); err != nil {
					t.Error(err)
					return
				}
			}
			for i := 0; i < gets; i++ {
				if c := reqEP.WaitGet(p); c.Err == "" {
					t.Errorf("%d shards: GET %d completed without error: %+v", shards, c.JobID, c)
				}
			}
		})
		eng.Run()
		stats := make([]core.CardStats, len(cl.Nodes))
		for i := range stats {
			stats[i] = cl.Nodes[i].Card.Stats()
		}
		return stats
	}
	one := run(1)
	if st := one[2]; st.GetRequests != gets || st.GetErrors != gets || st.UnroutablePackets != gets {
		t.Fatalf("one shard: requester %+v, want %d requests, all lost and failed", st, gets)
	}
	for _, shards := range []int{2, 4} {
		if got := run(shards); !reflect.DeepEqual(got, one) {
			t.Fatalf("%d shards differ from one:\n%+v\n%+v", shards, got, one)
		}
	}
}

// The dimension-ordered router is fault-blind: traffic aimed across a
// dead link is dropped and accounted, never silently carried.
func TestDimensionOrderDropsOnDeadLink(t *testing.T) {
	eng, cl, eps, bufs := routedRing(t, route.Config{}, nil)
	defer eng.Shutdown()
	cl.Net.SetLinkState(core.LinkID{Coord: torus.Coord{X: 0}, Dir: torus.XPlus}, false)

	eng.Go("send", func(p *sim.Proc) {
		// Submit succeeds (dimension order claims reachability)...
		if _, err := eps[0].PutBuffer(p, 1, bufs[1], bufs[0], 4*units.KB, rdma.PutFlags{}); err != nil {
			t.Error(err)
		}
		// ...and the send completion still fires so the TX path drains.
		eps[0].WaitSend(p)
	})
	eng.Run()

	st := cl.Net.Card(0).Stats()
	if st.UnroutablePackets != 1 {
		t.Fatalf("UnroutablePackets = %d, want 1", st.UnroutablePackets)
	}
	if got := cl.Net.Card(1).Stats().RXPackets; got != 0 {
		t.Fatalf("dead link delivered %d packets", got)
	}
}
