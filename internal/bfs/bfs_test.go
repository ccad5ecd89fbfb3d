package bfs

import (
	"math/rand"
	"reflect"
	"testing"

	"apenetsim/internal/graph"
)

func testGraph(scale int) *graph.CSR {
	return graph.BuildCSR(graph.Kronecker(scale, 16, 1))
}

func TestSerialReachesGiantComponent(t *testing.T) {
	g := testGraph(10)
	parent := Serial(g, g.MaxDegreeVertex())
	reached := CountReached(parent)
	if reached < int64(g.N)/2 {
		t.Fatalf("reached only %d of %d", reached, g.N)
	}
	if err := graph.ValidateBFSTree(g, g.MaxDegreeVertex(), parent, reached); err != nil {
		t.Fatal(err)
	}
}

// The distributed algorithm must reach exactly the same vertex set as the
// serial one and produce a valid BFS tree, for every rank count.
func TestDistributedMatchesSerial(t *testing.T) {
	g := testGraph(10)
	root := g.MaxDegreeVertex()
	want := CountReached(Serial(g, root))
	for _, np := range []int{2, 3, 4, 8} {
		parent := RunInProcess(g, np, root)
		if got := CountReached(parent); got != want {
			t.Fatalf("np=%d reached %d, want %d", np, got, want)
		}
		if err := graph.ValidateBFSTree(g, root, parent, want); err != nil {
			t.Fatalf("np=%d: %v", np, err)
		}
	}
}

// The simulated cluster run must produce a valid traversal too — the
// timing layer may not corrupt the algorithm.
func TestSimulatedRunValidTree(t *testing.T) {
	g := testGraph(12)
	root := g.MaxDegreeVertex()
	want := CountReached(Serial(g, root))
	for _, fabric := range []Fabric{FabricAPEnet, FabricIB} {
		res, err := Run(Config{Scale: 12, NP: 4, Fabric: fabric, Graph: g, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Reached != want {
			t.Fatalf("%v reached %d, want %d", fabric, res.Reached, want)
		}
		if err := graph.ValidateBFSTree(g, root, res.Parent, want); err != nil {
			t.Fatalf("%v: %v", fabric, err)
		}
		if res.TEPS <= 0 || res.Levels < 2 {
			t.Fatalf("%v: degenerate result %+v", fabric, res)
		}
	}
}

// Table IV shape at reduced scale: APEnet+ ahead at NP=4, IB catches up
// at NP=8; both scale with NP.
func TestTableIVShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	g := testGraph(16)
	teps := map[Fabric]map[int]float64{FabricAPEnet: {}, FabricIB: {}}
	for _, fabric := range []Fabric{FabricAPEnet, FabricIB} {
		for _, np := range []int{1, 4, 8} {
			res, err := Run(Config{Scale: 16, NP: np, Fabric: fabric, Graph: g, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			teps[fabric][np] = res.TEPS
			t.Logf("%v NP=%d: %.2e TEPS", fabric, np, res.TEPS)
		}
	}
	if teps[FabricAPEnet][4] <= teps[FabricIB][4] {
		t.Errorf("APEnet should beat IB at NP=4: %.2e vs %.2e", teps[FabricAPEnet][4], teps[FabricIB][4])
	}
	if teps[FabricAPEnet][8] <= teps[FabricAPEnet][4] {
		t.Errorf("APEnet should still scale 4->8")
	}
	ratio := teps[FabricIB][8] / teps[FabricAPEnet][8]
	if ratio < 0.9 {
		t.Errorf("IB should catch up at NP=8 (ratio %.2f)", ratio)
	}
}

// Fig 12 shape: at NP=4, communication time is substantially lower on
// APEnet+ than on IB, while compute matches.
func TestFig12CommBreakdown(t *testing.T) {
	g := testGraph(14)
	ra, err := Run(Config{Scale: 14, NP: 4, Fabric: FabricAPEnet, Graph: g, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ri, err := Run(Config{Scale: 14, NP: 4, Fabric: FabricIB, Graph: g, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var commA, commI, compA, compI float64
	for r := 0; r < 4; r++ {
		commA += ra.Breakdown[r].Comm.Seconds()
		commI += ri.Breakdown[r].Comm.Seconds()
		compA += ra.Breakdown[r].Compute.Seconds()
		compI += ri.Breakdown[r].Compute.Seconds()
	}
	t.Logf("comm APEnet %.2fms vs IB %.2fms; compute %.2f vs %.2f ms",
		commA*1e3, commI*1e3, compA*1e3, compI*1e3)
	if commA >= commI {
		t.Errorf("APEnet comm (%f) should be below IB comm (%f)", commA, commI)
	}
	if d := compA/compI - 1; d > 0.05 || d < -0.05 {
		t.Errorf("compute should match across fabrics: %f vs %f", compA, compI)
	}
}

// mapExpand is Expand as it was with a fresh map per dedup tile and a
// full owner computation per edge, kept verbatim as the reference for
// its update lists.
func mapExpand(st *RankState, np int) (out [][]Update, scanned int64) {
	out = make([][]Update, np)
	for tile := 0; tile < len(st.front); tile += DedupTile {
		hi := tile + DedupTile
		if hi > len(st.front) {
			hi = len(st.front)
		}
		seen := map[int32]bool{}
		for _, u := range st.front[tile:hi] {
			for _, v := range st.G.Neighbors(u) {
				scanned++
				owner := graph.Owner(st.G.N, np, v)
				if owner == st.Part.Rank {
					li := v - st.Part.Lo
					if !st.visited[li] {
						st.visited[li] = true
						st.Parent[li] = u
						st.next = append(st.next, v)
					}
					continue
				}
				if !seen[v] {
					seen[v] = true
					out[owner] = append(out[owner], Update{V: v, Parent: u})
				}
			}
		}
	}
	return out, scanned
}

// Two copies of every rank traverse side by side, one expanding with
// Expand and one with mapExpand: every level's update lists must match
// in order, and so must the scanned counts, frontiers and parents. The
// vertex counts split unevenly over most rank counts, and the middle
// levels' frontiers span many dedup tiles.
func TestExpandMatchesMapDedup(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	odd := &graph.EdgeList{NumVertices: 20011}
	for e := 0; e < 8*20011; e++ {
		odd.Src = append(odd.Src, rng.Int31n(20011))
		odd.Dst = append(odd.Dst, rng.Int31n(20011))
	}
	for _, g := range []*graph.CSR{testGraph(14), graph.BuildCSR(odd)} {
		root := g.MaxDegreeVertex()
		for np := 1; np <= 8; np++ {
			parts := graph.Partition1D(g.N, np)
			got, want := make([]*RankState, np), make([]*RankState, np)
			for r := range parts {
				got[r], want[r] = NewRankState(g, parts[r], root), NewRankState(g, parts[r], root)
			}
			maxFront := 0
			for level := 0; ; level++ {
				gotIn, wantIn := make([][]Update, np), make([][]Update, np)
				for r := 0; r < np; r++ {
					if f := want[r].FrontierLen(); f > maxFront {
						maxFront = f
					}
					gotOut, gotScanned := got[r].Expand(np)
					wantOut, wantScanned := mapExpand(want[r], np)
					if gotScanned != wantScanned {
						t.Fatalf("N %d np %d level %d rank %d: scanned %d, want %d", g.N, np, level, r, gotScanned, wantScanned)
					}
					for d := 0; d < np; d++ {
						if !reflect.DeepEqual(gotOut[d], wantOut[d]) {
							t.Fatalf("N %d np %d level %d: updates %d->%d differ (%d vs %d)",
								g.N, np, level, r, d, len(gotOut[d]), len(wantOut[d]))
						}
						gotIn[d] = append(gotIn[d], gotOut[d]...)
						wantIn[d] = append(wantIn[d], wantOut[d]...)
					}
				}
				total := 0
				for r := 0; r < np; r++ {
					gotN, wantN := got[r].Apply(gotIn[r]), want[r].Apply(wantIn[r])
					if gotN != wantN || !reflect.DeepEqual(got[r].front, want[r].front) ||
						!reflect.DeepEqual(got[r].Parent, want[r].Parent) {
						t.Fatalf("N %d np %d level %d rank %d: frontier %d, want %d, or parents differ",
							g.N, np, level, r, gotN, wantN)
					}
					total += gotN
				}
				if total == 0 {
					break
				}
			}
			if maxFront <= 2*DedupTile {
				t.Fatalf("N %d np %d: largest frontier %d spans too few dedup tiles", g.N, np, maxFront)
			}
		}
	}
}

var benchOut [][]Update

// BenchmarkExpand times Expand over a whole traversal of the scale-16
// graph of the -quick BFS exhibits at 4 ranks (Fig 12's point); set-up
// and the merge of each level's updates run off the clock.
func BenchmarkExpand(b *testing.B) {
	const np = 4
	g := testGraph(16)
	root := g.MaxDegreeVertex()
	parts := graph.Partition1D(g.N, np)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ranks := make([]*RankState, np)
		for r := range parts {
			ranks[r] = NewRankState(g, parts[r], root)
		}
		for {
			in := make([][]Update, np)
			b.StartTimer()
			for r := 0; r < np; r++ {
				benchOut, _ = ranks[r].Expand(np)
				for d := range benchOut {
					in[d] = append(in[d], benchOut[d]...)
				}
			}
			b.StopTimer()
			total := 0
			for r := 0; r < np; r++ {
				total += ranks[r].Apply(in[r])
			}
			if total == 0 {
				break
			}
		}
	}
}
