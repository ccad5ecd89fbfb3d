package mpigpu

import (
	"fmt"
	"testing"

	"apenetsim/internal/cluster"
	"apenetsim/internal/sim"
	"apenetsim/internal/units"
)

func apeWorld(t *testing.T, n int, mode P2PMode) (*sim.Engine, []*APEnetComm, func()) {
	t.Helper()
	eng := sim.New()
	cl, err := cluster.ClusterI(eng, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var comms []*APEnetComm
	done := make(chan struct{})
	eng.Go("boot", func(p *sim.Proc) {
		comms, err = NewAPEnetWorld(p, cl, n, mode)
		close(done)
	})
	// Run boot events now.
	eng.Run()
	<-done
	if err != nil {
		t.Fatal(err)
	}
	return eng, comms, eng.Shutdown
}

func TestSendRecvOrderingUnderLoad(t *testing.T) {
	for _, mode := range []P2PMode{P2POn, P2PRX, P2POff} {
		eng, comms, shutdown := apeWorld(t, 2, mode)
		var got []int
		eng.Go("rx", func(p *sim.Proc) {
			for i := 0; i < 40; i++ {
				m := comms[1].Recv(p, 0)
				m.Unpack(p)
				got = append(got, m.Payload.(int))
			}
		})
		eng.Go("tx", func(p *sim.Proc) {
			for i := 0; i < 40; i++ {
				// Mix sizes and memory spaces to stress completion paths.
				gpuSrc := i%3 != 0
				n := units.ByteSize(64 << (i % 8))
				comms[0].Isend(p, 1, n, gpuSrc, i)
			}
		})
		eng.Run()
		shutdown()
		if len(got) != 40 {
			t.Fatalf("%v: received %d of 40", mode, len(got))
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("%v: out of order at %d: %v", mode, i, got[:i+1])
			}
		}
	}
}

func TestBidirectionalExchange(t *testing.T) {
	eng, comms, shutdown := apeWorld(t, 4, P2POn)
	defer shutdown()
	// All-to-all: every rank sends one GPU message to every other rank.
	for r := 0; r < 4; r++ {
		r := r
		eng.Go(fmt.Sprintf("rank%d", r), func(p *sim.Proc) {
			for d := 0; d < 4; d++ {
				if d != r {
					comms[r].Isend(p, d, 32*units.KB, true, r*10+d)
				}
			}
			for s := 0; s < 4; s++ {
				if s == r {
					continue
				}
				m := comms[r].Recv(p, s)
				if m.Payload.(int) != s*10+r {
					t.Errorf("rank %d from %d: payload %v", r, s, m.Payload)
				}
			}
		})
	}
	eng.Run()
}

func TestAllReduceAndBarrier(t *testing.T) {
	eng, comms, shutdown := apeWorld(t, 4, P2POn)
	defer shutdown()
	sums := make([]int64, 4)
	for r := 0; r < 4; r++ {
		r := r
		eng.Go(fmt.Sprintf("rank%d", r), func(p *sim.Proc) {
			sums[r] = AllReduceSum(p, comms[r], int64(r+1))
			Barrier(p, comms[r])
		})
	}
	eng.Run()
	for r, s := range sums {
		if s != 10 {
			t.Fatalf("rank %d allreduce = %d, want 10", r, s)
		}
	}
}

func TestReqWaitSemantics(t *testing.T) {
	eng, comms, shutdown := apeWorld(t, 2, P2POn)
	defer shutdown()
	eng.Go("rx", func(p *sim.Proc) {
		comms[1].Recv(p, 0)
	})
	eng.Go("tx", func(p *sim.Proc) {
		req := comms[0].Isend(p, 1, 128*units.KB, true, nil)
		if req.Done() {
			t.Error("request done immediately")
		}
		req.Wait(p)
		if !req.Done() {
			t.Error("request not done after Wait")
		}
		req.Wait(p) // second wait returns immediately
	})
	eng.Run()
}

func TestStagedModesPayStagingCosts(t *testing.T) {
	// A GPU Isend under P2P=OFF must take visibly longer at the sender
	// (sync D2H) than under P2P=ON.
	elapsed := map[P2PMode]sim.Duration{}
	for _, mode := range []P2PMode{P2POn, P2POff} {
		eng, comms, shutdown := apeWorld(t, 2, mode)
		eng.Go("rx", func(p *sim.Proc) {
			m := comms[1].Recv(p, 0)
			m.Unpack(p)
		})
		eng.Go("tx", func(p *sim.Proc) {
			t0 := p.Now()
			comms[0].Isend(p, 1, 128*units.KB, true, nil)
			elapsed[mode] = p.Now().Sub(t0)
		})
		eng.Run()
		shutdown()
	}
	if elapsed[P2POff] < elapsed[P2POn]+10*sim.Microsecond {
		t.Fatalf("staged Isend (%v) should pay the sync D2H vs P2P (%v)",
			elapsed[P2POff], elapsed[P2POn])
	}
}

func TestConfigsDiffer(t *testing.T) {
	mv, om := MVAPICH2(), OpenMPI()
	if mv == om {
		t.Fatal("MPI flavor configs identical")
	}
	if mv.PipelineChunk <= 0 || om.PipelineThreshold <= 0 {
		t.Fatal("bad defaults")
	}
}
