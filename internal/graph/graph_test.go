package graph

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestAddEdgeAccumulates(t *testing.T) {
	g := FromPairs(3, []Pair{{0, 1, 10}, {1, 0, 5}})
	if g.Weight(0, 1) != 15 || g.Weight(1, 0) != 15 {
		t.Fatalf("weights %d/%d, want 15", g.Weight(0, 1), g.Weight(1, 0))
	}
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
}

func TestSelfLoopIgnored(t *testing.T) {
	g := FromPairs(2, []Pair{{1, 1, 100}})
	if g.NumEdges() != 0 || g.Degree(1) != 0 {
		t.Fatal("self loop stored")
	}
}

func TestDegreeAndNeighbors(t *testing.T) {
	g := FromPairs(4, []Pair{{0, 1, 1}, {0, 2, 2}, {0, 3, 3}})
	if g.Degree(0) != 3 || g.Degree(1) != 1 {
		t.Fatalf("degrees %d/%d", g.Degree(0), g.Degree(1))
	}
	ns, ws := g.Neighbors(0)
	if len(ns) != 3 || ns[0] != 1 || ns[2] != 3 {
		t.Fatalf("neighbors %v", ns)
	}
	var total uint64
	for _, w := range ws {
		total += w
	}
	if total != 6 {
		t.Fatalf("neighbor weight sum %d", total)
	}
}

func TestTotalWeight(t *testing.T) {
	g := FromPairs(3, []Pair{{0, 1, 10}, {1, 2, 20}})
	if g.TotalWeight() != 30 {
		t.Fatalf("total weight %d", g.TotalWeight())
	}
}

func TestPrune(t *testing.T) {
	g := FromPairs(4, []Pair{{0, 1, 99}, {1, 2, 100}, {2, 3, 101}})
	p := g.Filter(100, nil)
	if p.NumEdges() != 2 {
		t.Fatalf("pruned edges = %d", p.NumEdges())
	}
	if p.HasEdge(0, 1) {
		t.Fatal("sub-threshold edge survived")
	}
	if !p.HasEdge(1, 2) || !p.HasEdge(2, 3) {
		t.Fatal("at/above-threshold edges lost")
	}
	// Original unchanged.
	if g.NumEdges() != 3 {
		t.Fatal("prune mutated the original")
	}
}

func TestComponents(t *testing.T) {
	g := FromPairs(6, []Pair{{0, 1, 1}, {1, 2, 1}, {3, 4, 1}})
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("components = %d, want 3 (two clusters + isolated 5)", len(comps))
	}
	if len(comps[0]) != 3 || comps[0][0] != 0 {
		t.Fatalf("first component %v", comps[0])
	}
	if len(comps[2]) != 1 || comps[2][0] != 5 {
		t.Fatalf("isolated component %v", comps[2])
	}
}

func TestFilterLeavesSourceIntact(t *testing.T) {
	g := FromPairs(3, []Pair{{0, 1, 5}, {0, 2, 7}})
	f := g.Filter(0, func(u, v int32) bool { return v != 1 })
	if !g.HasEdge(0, 1) || !g.HasEdge(0, 2) {
		t.Fatal("filter changed its source")
	}
	if f.HasEdge(0, 1) || !f.HasEdge(0, 2) {
		t.Fatalf("filtered graph %v", f)
	}
}

func TestFilterDropsBothHalves(t *testing.T) {
	g := FromPairs(3, []Pair{{0, 1, 5}})
	var seen [][2]int32
	f := g.Filter(0, func(u, v int32) bool {
		seen = append(seen, [2]int32{u, v})
		return false
	})
	if f.HasEdge(0, 1) || f.HasEdge(1, 0) || f.Degree(0) != 0 || f.Degree(1) != 0 {
		t.Fatal("edge not removed from both rows")
	}
	// keep sees the edge once per endpoint row, always as (low, high).
	if len(seen) != 2 || seen[0] != [2]int32{0, 1} || seen[1] != [2]int32{0, 1} {
		t.Fatalf("keep called with %v", seen)
	}
	if g.Filter(5, nil) != g {
		t.Fatal("filter keeping every edge should return its source")
	}
}

func TestFromPairsRowsSortedAndExact(t *testing.T) {
	g := FromPairs(5, []Pair{{4, 0, 1}, {0, 3, 2}, {1, 0, 3}, {0, 4, 4}, {2, 0, 5}, {3, 0, 6}})
	ns, ws := g.Neighbors(0)
	if !slices.Equal(ns, []int32{1, 2, 3, 4}) || !slices.Equal(ws, []uint64{3, 5, 8, 5}) {
		t.Fatalf("row 0 = %v %v", ns, ws)
	}
	if cap(g.off) != len(g.off) || cap(g.nbr) != len(g.nbr) || cap(g.wt) != len(g.wt) {
		t.Fatal("backing arrays not exactly sized")
	}
}

func TestFromPairsDropsWrappedZeroSum(t *testing.T) {
	g := FromPairs(3, []Pair{{0, 1, 1 << 63}, {1, 0, 1 << 63}, {1, 2, 4}})
	if g.HasEdge(0, 1) || g.Degree(0) != 0 || g.NumEdges() != 1 {
		t.Fatalf("zero-sum pair stored: %v", g)
	}
}

func TestWeightOutOfRange(t *testing.T) {
	g := FromPairs(2, nil)
	if g.Weight(0, 1) != 0 {
		t.Fatal("empty weight nonzero")
	}
}

func TestStringSummary(t *testing.T) {
	g := FromPairs(2, []Pair{{0, 1, 3}})
	if s := g.String(); s != "graph{nodes=2 edges=1 weight=3}" {
		t.Fatalf("String() = %q", s)
	}
}

// randomGraph builds an Erdos-Renyi style weighted graph.
func randomGraph(r *rng.Xoshiro256, n int, p float64, maxW int) *Graph {
	var pairs []Pair
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Float64() < p {
				pairs = append(pairs, Pair{int32(u), int32(v), uint64(r.Intn(maxW) + 1)})
			}
		}
	}
	return FromPairs(n, pairs)
}

func TestComponentsPartitionProperty(t *testing.T) {
	r := rng.New(5)
	f := func(seed uint16) bool {
		n := int(seed%40) + 1
		g := randomGraph(r, n, 0.1, 10)
		comps := g.Components()
		seen := make([]bool, n)
		total := 0
		for _, c := range comps {
			for _, u := range c {
				if seen[u] {
					return false
				}
				seen[u] = true
				total++
			}
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPruneMonotoneProperty(t *testing.T) {
	r := rng.New(11)
	g := randomGraph(r, 30, 0.3, 100)
	prev := g.NumEdges()
	for _, th := range []uint64{1, 10, 50, 90, 101} {
		p := g.Filter(th, nil)
		if p.NumEdges() > prev {
			t.Fatalf("prune(%d) grew the graph", th)
		}
		prev = p.NumEdges()
	}
	if g.Filter(101, nil).NumEdges() != 0 {
		t.Fatal("prune above max weight left edges")
	}
}
