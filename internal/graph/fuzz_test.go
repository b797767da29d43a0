package graph

import (
	"encoding/binary"
	"fmt"
	"testing"
)

// decodePairs turns an arbitrary byte string into a node count and a
// weighted pair list. The decoder is intentionally permissive — every
// input decodes to something — so the fuzzers explore graph shapes
// rather than parser rejections. Pairs may be out of range or
// self-loops; FromPairs is specified to discard those.
func decodePairs(data []byte) (n int, pairs []Pair) {
	if len(data) == 0 {
		return 1, nil
	}
	n = 1 + int(data[0])%64
	data = data[1:]
	for len(data) >= 5 {
		u := int32(data[0]) - 2 // small negatives probe range checks
		v := int32(data[1]) - 2
		w := uint64(binary.LittleEndian.Uint16(data[2:4]))
		if data[4]&1 == 1 {
			w *= 257 // occasionally large weights
		}
		pairs = append(pairs, Pair{U: u, V: v, W: w})
		data = data[5:]
	}
	return n, pairs
}

// FuzzFromPairs checks graph construction on arbitrary pair lists
// against an independent reference map: every row is strictly
// ascending, in range, free of self-loops and zero weights, and
// symmetric; every edge carries the summed weight of its duplicates in
// either orientation; and exactly the pairs whose sum is nonzero are
// present.
func FuzzFromPairs(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 0, 1, 10, 0, 0, 1, 0, 5, 0, 1})
	f.Add([]byte{8, 2, 2, 1, 0, 0, 1, 9, 255, 255, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		n, pairs := decodePairs(data)
		g := FromPairs(n, pairs)
		if g.N() != n {
			t.Fatalf("N() = %d, want %d", g.N(), n)
		}
		ref := map[[2]int32]uint64{}
		for _, p := range pairs {
			if p.U < 0 || p.V < 0 || int(p.U) >= n || int(p.V) >= n || p.U == p.V {
				continue
			}
			u, v := min(p.U, p.V), max(p.U, p.V)
			ref[[2]int32{u, v}] += p.W
		}
		want := 0
		for _, w := range ref {
			if w != 0 {
				want++
			}
		}
		var total uint64
		halves := 0
		for u := int32(0); int(u) < n; u++ {
			nbrs, wts := g.Neighbors(u)
			if len(nbrs) != len(wts) || len(nbrs) != g.Degree(u) {
				t.Fatalf("row %d: %d neighbors, %d weights, degree %d", u, len(nbrs), len(wts), g.Degree(u))
			}
			halves += len(nbrs)
			for i, v := range nbrs {
				w := wts[i]
				switch {
				case v == u:
					t.Fatalf("self-loop on %d", u)
				case v < 0 || int(v) >= n:
					t.Fatalf("out-of-range neighbor %d in row %d", v, u)
				case i > 0 && nbrs[i-1] >= v:
					t.Fatalf("row %d not strictly ascending: %v", u, nbrs)
				case w == 0:
					t.Fatalf("zero-weight edge %d-%d", u, v)
				case g.Weight(v, u) != w || g.Weight(u, v) != w:
					t.Fatalf("edge %d-%d: row weight %d, Weight %d/%d", u, v, w, g.Weight(u, v), g.Weight(v, u))
				case w != ref[[2]int32{min(u, v), max(u, v)}]:
					t.Fatalf("weight(%d,%d) = %d, want %d", u, v, w, ref[[2]int32{min(u, v), max(u, v)}])
				}
				if u < v {
					total += w
				}
			}
		}
		if halves != 2*want || g.NumEdges() != want {
			t.Fatalf("%d row entries, NumEdges %d; reference has %d edges", halves, g.NumEdges(), want)
		}
		if total != g.TotalWeight() {
			t.Fatalf("TotalWeight() = %d, recount %d", g.TotalWeight(), total)
		}
	})
}

// FuzzMaximalCliques differentially fuzzes the clique enumerators: on
// every decoded graph the parallel enumeration (several worker counts)
// must return exactly the serial result, and each reported set must be
// a maximal clique.
func FuzzMaximalCliques(f *testing.F) {
	f.Add([]byte{5, 0, 1, 1, 0, 0, 1, 2, 1, 0, 0, 0, 2, 1, 0, 0})
	f.Add([]byte{12, 3, 4, 200, 0, 1, 4, 5, 1, 1, 0, 5, 3, 7, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		n, pairs := decodePairs(data)
		if n > 24 {
			n = 24 // keep worst-case enumeration bounded per input
		}
		g := FromPairs(n, pairs)
		serial := g.MaximalCliques(0, true)
		for _, c := range serial.Cliques {
			for i := 0; i < len(c); i++ {
				for j := i + 1; j < len(c); j++ {
					if !g.HasEdge(c[i], c[j]) {
						t.Fatalf("set %v is not a clique", c)
					}
				}
			}
			for v := int32(0); int(v) < g.N() && len(c) > 1; v++ {
				extends := true
				for _, u := range c {
					if u == v || !g.HasEdge(u, v) {
						extends = false
						break
					}
				}
				if extends {
					t.Fatalf("set %v is not maximal (extends with %d)", c, v)
				}
			}
		}
		for _, workers := range []int{2, 5} {
			par := g.MaximalCliquesParallel(0, true, workers)
			if fmt.Sprint(par) != fmt.Sprint(serial) {
				t.Fatalf("workers=%d result differs from serial", workers)
			}
		}
	})
}

// FuzzColoring checks the coloring contract on arbitrary graphs: every
// node is colored inside [0, K), and when K exceeds the maximum degree
// the coloring is conflict-free.
func FuzzColoring(f *testing.F) {
	f.Add(uint8(3), []byte{6, 0, 1, 50, 0, 0, 1, 2, 99, 0, 0})
	f.Add(uint8(1), []byte{9, 4, 5, 1, 1, 1, 5, 6, 1, 0, 0})
	f.Fuzz(func(t *testing.T, kRaw uint8, data []byte) {
		n, pairs := decodePairs(data)
		g := FromPairs(n, pairs)
		k := 1 + int(kRaw)%32
		col, err := g.Color(ColoringSpec{K: k})
		if err != nil {
			t.Fatal(err)
		}
		if err := ValidateColors(g, col.Colors, k); err != nil {
			t.Fatal(err)
		}
		maxDeg := 0
		for u := int32(0); int(u) < n; u++ {
			if col.Colors[u] < 0 {
				t.Fatalf("node %d left uncolored", u)
			}
			if d := g.Degree(u); d > maxDeg {
				maxDeg = d
			}
		}
		if k > maxDeg {
			if cost := g.ConflictCost(col.Colors); cost != 0 {
				t.Fatalf("conflict cost %d despite K=%d > max degree %d", cost, k, maxDeg)
			}
		}
	})
}
