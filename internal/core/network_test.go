package core_test

import (
	"reflect"
	"testing"

	"apenetsim/internal/cluster"
	"apenetsim/internal/core"
	"apenetsim/internal/rdma"
	"apenetsim/internal/sim"
	"apenetsim/internal/torus"
	"apenetsim/internal/units"
)

// ringRig builds a 4x1x1 torus (4 cards on an X ring) with endpoints and
// one registered 1 MB host buffer per rank.
func ringRig(t *testing.T) (*sim.Engine, *cluster.Cluster, []*rdma.Endpoint, []*rdma.Buffer) {
	t.Helper()
	eng := sim.New()
	cfg := core.DefaultConfig()
	cl, err := cluster.New(eng, nil, torus.Dims{X: 4, Y: 1, Z: 1}, 4, func(i int) cluster.NodeConfig {
		return cluster.NodeConfig{Card: &cfg}
	})
	if err != nil {
		t.Fatal(err)
	}
	eps := make([]*rdma.Endpoint, 4)
	bufs := make([]*rdma.Buffer, 4)
	done := 0
	for i := range eps {
		i := i
		eps[i] = rdma.NewEndpoint(cl.Nodes[i].Card)
		eng.Go("setup", func(p *sim.Proc) {
			var err error
			bufs[i], err = eps[i].NewHostBuffer(p, 1*units.MB)
			if err != nil {
				t.Error(err)
			}
			done++
		})
	}
	eng.Run() // registration only; main traffic runs in the caller
	if done != 4 {
		t.Fatal("buffer setup incomplete")
	}
	return eng, cl, eps, bufs
}

func linkByName(stats []core.LinkStat, name string) (core.LinkStat, bool) {
	for _, s := range stats {
		if s.Name() == name {
			return s, true
		}
	}
	return core.LinkStat{}, false
}

// HotLinks must rank by carried wire bytes and break exact ties by
// (rank, dir) so reports stay deterministic.
func TestHotLinksOrderingAndTieBreaks(t *testing.T) {
	eng, cl, eps, bufs := ringRig(t)
	defer eng.Shutdown()
	const msg = 64 * units.KB

	send := func(src, dst, count int) {
		eng.Go("send", func(p *sim.Proc) {
			for i := 0; i < count; i++ {
				if _, err := eps[src].PutBuffer(p, dst, bufs[dst], bufs[src], msg, rdma.PutFlags{}); err != nil {
					t.Error(err)
				}
			}
		})
		eng.Go("recv", func(p *sim.Proc) {
			eps[dst].DrainRecvs(p, count)
		})
	}
	// One-hop flows only: 1->2 carries twice the bytes of 0->1 and 2->3,
	// which tie exactly.
	send(0, 1, 2)
	send(2, 3, 2)
	send(1, 2, 4)
	eng.Run()

	net := cl.Net
	stats := net.LinkStats()
	if len(stats) != 3 {
		t.Fatalf("active links = %d (%v), want 3", len(stats), stats)
	}
	// LinkStats order is (rank, dir) ascending.
	for i := 1; i < len(stats); i++ {
		if stats[i-1].Rank > stats[i].Rank {
			t.Fatalf("LinkStats not rank-ordered: %v", stats)
		}
	}
	l0, ok0 := linkByName(stats, "(0,0,0)X+")
	l2, ok2 := linkByName(stats, "(2,0,0)X+")
	if !ok0 || !ok2 || l0.WireBytes != l2.WireBytes {
		t.Fatalf("tie flows differ: %+v vs %+v", l0, l2)
	}

	hot := net.HotLinks(3)
	want := []string{"(1,0,0)X+", "(0,0,0)X+", "(2,0,0)X+"}
	for i, name := range want {
		if hot[i].Name() != name {
			t.Fatalf("HotLinks order %d = %s, want %s (all: %v)", i, hot[i].Name(), name, hot)
		}
	}
	if hot[0].WireBytes != 2*l0.WireBytes {
		t.Fatalf("hot link bytes %d, want double the tied links' %d", hot[0].WireBytes, l0.WireBytes)
	}
	for _, tc := range []struct {
		k     int
		names []string
	}{
		{-1, nil},
		{0, nil},
		{1, want[:1]},
		{3, want},
		{10, want}, // more than there are active links
	} {
		got := net.HotLinks(tc.k)
		var names []string
		for _, l := range got {
			names = append(names, l.Name())
		}
		if !reflect.DeepEqual(names, tc.names) {
			t.Errorf("HotLinks(%d) = %v, want %v", tc.k, names, tc.names)
		}
	}
	if total := net.TotalLinkWireBytes(); total != hot[0].WireBytes+l0.WireBytes+l2.WireBytes {
		t.Fatalf("conservation: total %d != sum of per-link bytes", total)
	}
}

// Two senders converging on one link must register queueing in the
// link's stats; an uncontended single-sender link must not.
func TestLinkPeakBacklogUnderContention(t *testing.T) {
	eng, cl, eps, bufs := ringRig(t)
	defer eng.Shutdown()
	const msg = 256 * units.KB

	// Rank 0 sends to 2 (hops X+ at 0, X+ at 1); rank 1 sends to 2
	// (X+ at 1). Both flows share link (1,0,0)X+.
	eng.Go("send0", func(p *sim.Proc) {
		if _, err := eps[0].PutBuffer(p, 2, bufs[2], bufs[0], msg, rdma.PutFlags{}); err != nil {
			t.Error(err)
		}
	})
	eng.Go("send1", func(p *sim.Proc) {
		if _, err := eps[1].PutBuffer(p, 2, bufs[2], bufs[1], msg, rdma.PutFlags{}); err != nil {
			t.Error(err)
		}
	})
	eng.Go("recv", func(p *sim.Proc) {
		eps[2].DrainRecvs(p, 2)
	})
	eng.Run()

	net := cl.Net
	stats := net.LinkStats()
	shared, ok := linkByName(stats, "(1,0,0)X+")
	if !ok {
		t.Fatalf("shared link has no stats: %v", stats)
	}
	if shared.PeakBacklog <= 0 {
		t.Fatalf("shared link saw no queueing: %+v", shared)
	}
	wantQueue := units.ByteSize(float64(net.LinkBandwidth()) * shared.PeakBacklog.Seconds())
	if shared.PeakQueueBytes != wantQueue {
		t.Fatalf("PeakQueueBytes = %v, want %v (= linkBW x PeakBacklog)", shared.PeakQueueBytes, wantQueue)
	}
	if shared.PeakQueueBytes <= 0 {
		t.Fatalf("peak queue depth should be positive: %+v", shared)
	}
	// The injector serializes rank 0's own first hop, so its private link
	// never queues.
	private, ok := linkByName(stats, "(0,0,0)X+")
	if !ok {
		t.Fatalf("private link has no stats: %v", stats)
	}
	if private.PeakBacklog != 0 || private.PeakQueueBytes != 0 {
		t.Fatalf("uncontended link shows backlog: %+v", private)
	}
	if shared.Busy <= private.Busy {
		t.Fatalf("shared link busy (%v) should exceed private (%v)", shared.Busy, private.Busy)
	}
}
