package core_test

import (
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

// getPair builds a two-node rig with one registered 1 MB host buffer per
// endpoint. mut, when non-nil, adjusts the card configuration first.
func getPair(t *testing.T, mut func(*core.Config)) (*sim.Engine, *cluster.Cluster, []*rdma.Endpoint, []*rdma.Buffer) {
	t.Helper()
	eng := sim.New()
	cfg := core.DefaultConfig()
	if mut != nil {
		mut(&cfg)
	}
	cl, err := cluster.TwoNodes(eng, nil, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	eps := make([]*rdma.Endpoint, 2)
	bufs := make([]*rdma.Buffer, 2)
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

// A GET pulls the remote buffer's bytes across two crossings and
// completes on the GetCQ — with no stray SendDone/RecvDone on either
// card, and the responder's firmware occupancy visible as a "GET" task.
func TestGetHostToHost(t *testing.T) {
	eng, cl, eps, bufs := getPair(t, nil)
	defer eng.Shutdown()
	const n = 256 * units.KB

	var comp core.Completion
	eng.Go("get", func(p *sim.Proc) {
		job, err := eps[0].GetBuffer(p, 1, bufs[1], bufs[0], n, rdma.GetFlags{Payload: "halo"})
		if err != nil {
			t.Error(err)
			return
		}
		comp = eps[0].WaitGet(p)
		if comp.JobID != job.ID {
			t.Errorf("completion JobID %d != request ID %d", comp.JobID, job.ID)
		}
	})
	eng.Run()

	if comp.Kind != core.GetDone || comp.Err != "" || comp.Bytes != n || comp.SrcRank != 1 || comp.Payload != "halo" {
		t.Fatalf("bad completion: %+v", comp)
	}
	req := cl.Nodes[0].Card
	rsp := cl.Nodes[1].Card
	if st := req.Stats(); st.GetRequests != 1 || st.GetBytes != int64(n) || st.GetErrors != 0 || st.OutstandingGetsPeak != 1 {
		t.Fatalf("requester GET stats: %+v", st)
	}
	if req.OutstandingGets() != 0 {
		t.Fatalf("outstanding table not drained: %d", req.OutstandingGets())
	}
	if rsp.Nios.BusyTime("GET") <= 0 {
		t.Fatal("responder firmware GET task never ran")
	}
	if rsp.TranslationStats().Lookups < 1 {
		t.Fatal("responder read-side translation not counted")
	}
	// No PUT-style completions leak from the GET exchange.
	if req.SendCQ.Len()+req.RecvCQ.Len()+rsp.SendCQ.Len()+rsp.RecvCQ.Len() != 0 {
		t.Fatalf("stray PUT completions: send %d/%d recv %d/%d",
			req.SendCQ.Len(), rsp.SendCQ.Len(), req.RecvCQ.Len(), rsp.RecvCQ.Len())
	}
}

// A GET whose responder buffer lives in GPU memory must run the reply
// through the GPU peer-to-peer read engine.
func TestGetPullsGPUMemory(t *testing.T) {
	eng := sim.New()
	cfg := core.DefaultConfig()
	cl, err := cluster.TwoNodes(eng, nil, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Shutdown()
	epA := rdma.NewEndpoint(cl.Nodes[0].Card)
	epB := rdma.NewEndpoint(cl.Nodes[1].Card)
	const n = 64 * units.KB

	var comp core.Completion
	eng.Go("get", func(p *sim.Proc) {
		dst, err := epA.NewHostBuffer(p, n)
		if err != nil {
			t.Error(err)
			return
		}
		src, err := epB.NewGPUBuffer(p, cl.Nodes[1].GPU(0), n)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := epA.GetBuffer(p, 1, src, dst, n, rdma.GetFlags{}); err != nil {
			t.Error(err)
			return
		}
		comp = epA.WaitGet(p)
	})
	eng.Run()

	if comp.Err != "" || comp.Bytes != n {
		t.Fatalf("bad completion: %+v", comp)
	}
	if got := cl.Nodes[1].GPU(0).Statistics().P2PReadBytes; got < int64(n) {
		t.Fatalf("responder GPU served %d P2P read bytes, want >= %d", got, n)
	}
}

// The outstanding-request table must block the requester at the window
// and recycle slots as replies complete: issuing twice the window's worth
// of GETs keeps the table at its cap, never beyond.
func TestGetWindowFullBlocks(t *testing.T) {
	eng, cl, eps, bufs := getPair(t, func(c *core.Config) { c.MaxOutstandingGets = 2 })
	defer eng.Shutdown()
	const gets = 6

	eng.Go("get", func(p *sim.Proc) {
		for i := 0; i < gets; i++ {
			if _, err := eps[0].GetBuffer(p, 1, bufs[1], bufs[0], 64*units.KB, rdma.GetFlags{Payload: i}); err != nil {
				t.Error(err)
				return
			}
		}
		eps[0].DrainGets(p, gets)
	})
	eng.Run()

	st := cl.Nodes[0].Card.Stats()
	if st.OutstandingGetsPeak != 2 {
		t.Fatalf("OutstandingGetsPeak = %d, want the window cap 2", st.OutstandingGetsPeak)
	}
	if st.GetRequests != gets || st.GetBytes != gets*64*1024 || st.GetErrors != 0 {
		t.Fatalf("GET stats after windowed run: %+v", st)
	}
}

// Replies from different responders complete out of order; reqID matching
// must pair each GetDone with the request that minted it.
func TestGetOutOfOrderReplies(t *testing.T) {
	eng, cl, eps, bufs := routedRing(t, route.Config{}, nil)
	defer eng.Shutdown()

	var comps []core.Completion
	eng.Go("get", func(p *sim.Proc) {
		// Far responder first with a large read, then a near responder
		// with a tiny one: the near reply overtakes the far one.
		far, err := eps[0].GetBuffer(p, 2, bufs[2], bufs[0], 512*units.KB, rdma.GetFlags{Payload: "far"})
		if err != nil {
			t.Error(err)
			return
		}
		near, err := eps[0].Get(p, 1, bufs[1].Addr, bufs[0], 512*1024, 4*units.KB, rdma.GetFlags{Payload: "near"})
		if err != nil {
			t.Error(err)
			return
		}
		if far.ID == near.ID {
			t.Error("duplicate reqIDs")
		}
		comps = append(comps, eps[0].WaitGet(p), eps[0].WaitGet(p))
	})
	eng.Run()

	if len(comps) != 2 {
		t.Fatalf("got %d completions", len(comps))
	}
	if comps[0].Payload != "near" || comps[1].Payload != "far" {
		t.Fatalf("completion order/matching: first %v, second %v", comps[0].Payload, comps[1].Payload)
	}
	if comps[0].SrcRank != 1 || comps[0].Bytes != 4*units.KB || comps[0].DstAddr != bufs[0].Addr+512*1024 {
		t.Fatalf("near completion mismatched: %+v", comps[0])
	}
	if comps[1].SrcRank != 2 || comps[1].Bytes != 512*units.KB || comps[1].DstAddr != bufs[0].Addr {
		t.Fatalf("far completion mismatched: %+v", comps[1])
	}
	if cl.Net.Card(0).OutstandingGets() != 0 {
		t.Fatal("outstanding table not drained")
	}
}

// A GET against an unregistered remote range must come back as an error
// reply that frees the window slot and counts in GetErrors.
func TestGetErrorReplyDelivery(t *testing.T) {
	eng, cl, eps, bufs := getPair(t, func(c *core.Config) { c.MaxOutstandingGets = 1 })
	defer eng.Shutdown()

	var bad, good core.Completion
	eng.Go("get", func(p *sim.Proc) {
		if _, err := eps[0].Get(p, 1, 0xdead0000, bufs[0], 0, 4*units.KB, rdma.GetFlags{}); err != nil {
			t.Error(err)
			return
		}
		bad = eps[0].WaitGet(p)
		// The error released the only window slot; a well-formed GET
		// must get through immediately after.
		if _, err := eps[0].GetBuffer(p, 1, bufs[1], bufs[0], 4*units.KB, rdma.GetFlags{}); err != nil {
			t.Error(err)
			return
		}
		good = eps[0].WaitGet(p)
	})
	eng.Run()

	if bad.Err == "" || !strings.Contains(bad.Err, "not registered") || bad.Bytes != 0 {
		t.Fatalf("error completion: %+v", bad)
	}
	if good.Err != "" || good.Bytes != 4*units.KB {
		t.Fatalf("follow-up completion: %+v", good)
	}
	st := cl.Nodes[0].Card.Stats()
	if st.GetErrors != 1 || st.GetRequests != 2 || st.GetBytes != 4*1024 {
		t.Fatalf("requester stats: %+v", st)
	}
	// The out-of-range read never programmed a reply DMA: the responder
	// streamed no data back beyond the two control messages.
	if rx := cl.Nodes[0].Card.Stats().RXBytes; rx >= 8*1024 {
		t.Fatalf("requester received %d bytes, error reply should carry none", rx)
	}
}

// A GET toward a node the router cannot reach must be refused
// synchronously at submit, like a PUT's ENETUNREACH.
func TestGetUnreachableSynchronous(t *testing.T) {
	eng, cl, eps, bufs := routedRing(t, route.Config{Mode: route.ModeFaultAware}, nil)
	defer eng.Shutdown()
	cl.Net.IsolateNode(torus.Coord{X: 2})

	var getErr error
	eng.Go("get", func(p *sim.Proc) {
		_, getErr = eps[0].GetBuffer(p, 2, bufs[2], bufs[0], 4*units.KB, rdma.GetFlags{})
	})
	eng.Run()

	if getErr == nil || !strings.Contains(getErr.Error(), "unreachable") {
		t.Fatalf("GET toward isolated node: err = %v, want synchronous unreachable", getErr)
	}
	st := cl.Net.Card(0).Stats()
	if st.GetErrors != 1 || st.GetRequests != 1 {
		t.Fatalf("refusal not counted: %+v", st)
	}
	if cl.Net.Card(0).OutstandingGets() != 0 {
		t.Fatal("refused GET left a table entry")
	}
}

// With a cut cable under fault-aware routing, the request detour is
// counted on the requester and the reply detour on the responder — the
// two crossings are separately attributable.
func TestGetDetoursCountedPerCrossing(t *testing.T) {
	eng, cl, eps, bufs := routedRing(t, route.Config{Mode: route.ModeFaultAware}, nil)
	defer eng.Shutdown()
	// Kill the 0<->1 cable: the request 0->1 detours 0->3->2->1 and the
	// reply 1->0 detours 1->2->3->0.
	cl.Net.CutCable(torus.Coord{X: 0}, torus.XPlus)

	var comp core.Completion
	eng.Go("get", func(p *sim.Proc) {
		if _, err := eps[0].GetBuffer(p, 1, bufs[1], bufs[0], 64*units.KB, rdma.GetFlags{}); err != nil {
			t.Error(err)
			return
		}
		comp = eps[0].WaitGet(p)
	})
	eng.Run()

	if comp.Err != "" || comp.Bytes != 64*units.KB {
		t.Fatalf("degraded GET completion: %+v", comp)
	}
	if st := cl.Net.Card(0).Stats(); st.RoutedAroundJobs != 1 {
		t.Fatalf("request crossing detours = %d, want 1", st.RoutedAroundJobs)
	}
	if st := cl.Net.Card(1).Stats(); st.RoutedAroundJobs != 1 {
		t.Fatalf("reply crossing detours = %d, want 1", st.RoutedAroundJobs)
	}
}

// Two cards GETting from each other at full window pressure must drain
// without deadlock: the responder path never blocks the RX engine on TX
// backpressure.
func TestGetCrossTrafficNoDeadlock(t *testing.T) {
	eng, cl, eps, bufs := getPair(t, func(c *core.Config) { c.MaxOutstandingGets = 8 })
	defer eng.Shutdown()
	const gets = 32

	done := 0
	for r := 0; r < 2; r++ {
		r := r
		eng.Go("get", func(p *sim.Proc) {
			for i := 0; i < gets; i++ {
				if _, err := eps[r].GetBuffer(p, 1-r, bufs[1-r], bufs[r], 128*units.KB, rdma.GetFlags{}); err != nil {
					t.Error(err)
					return
				}
			}
			eps[r].DrainGets(p, gets)
			done++
		})
	}
	eng.Run()

	if done != 2 {
		t.Fatalf("cross-GET storm finished on %d of 2 ranks (deadlock?)", done)
	}
	for r := 0; r < 2; r++ {
		if st := cl.Nodes[r].Card.Stats(); st.GetBytes != gets*128*1024 {
			t.Fatalf("rank %d pulled %d bytes, want %d", r, st.GetBytes, gets*128*1024)
		}
	}
}

// A card owns no proc: its engines are event-driven state machines, so
// once a host PUT and a GET exchange between two cards have drained, no
// proc is left blocked — neither card engines waiting on their queues
// nor the rank procs, which ran to completion.
func TestCardsLeaveNoBlockedProcs(t *testing.T) {
	eng, _, eps, bufs := getPair(t, nil)
	defer eng.Shutdown()
	const n = 64 * units.KB
	eng.Go("put", func(p *sim.Proc) {
		if _, err := eps[0].PutBuffer(p, 1, bufs[1], bufs[0], n, rdma.PutFlags{}); err != nil {
			t.Error(err)
			return
		}
		eps[0].WaitSend(p)
	})
	eng.Go("recv", func(p *sim.Proc) { eps[1].WaitRecv(p) })
	eng.Go("get", func(p *sim.Proc) {
		if _, err := eps[1].GetBuffer(p, 0, bufs[0], bufs[1], n, rdma.GetFlags{}); err != nil {
			t.Error(err)
			return
		}
		if comp := eps[1].WaitGet(p); comp.Err != "" || comp.Bytes != n {
			t.Errorf("GET completion %+v", comp)
		}
	})
	eng.Run()
	if blocked := eng.Blocked(); len(blocked) != 0 {
		t.Fatalf("blocked procs after the exchange: %q", blocked)
	}
	if eng.Steps() == 0 {
		t.Fatal("nothing ran")
	}
}
