package graph

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/rng"
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

// FuzzMaximalCliques fuzzes the clique enumerator: on every decoded
// graph each reported set must be a maximal clique, and a starved
// budget must truncate deterministically to a subset of the full
// result — truncated counts are lower bounds.
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
		full := make(map[string]bool, len(serial.Cliques))
		for _, c := range serial.Cliques {
			full[fmt.Sprint(c)] = true
		}
		budget := 1 + len(data)%8
		cut := g.MaximalCliques(budget, true)
		if again := g.MaximalCliques(budget, true); fmt.Sprint(again) != fmt.Sprint(cut) {
			t.Fatalf("budget %d: two enumerations differ", budget)
		}
		for _, c := range cut.Cliques {
			if !full[fmt.Sprint(c)] {
				t.Fatalf("budget %d: truncated result reports %v, not a maximal clique", budget, c)
			}
		}
	})
}

// FuzzColoring checks Color against its oracle and its contract on
// arbitrary graphs: K ranges over 1..200 (across the 64- and 128-color
// word boundaries), FirstFree over [0, K), and pins (node, color byte
// pairs) land on both sides of FirstFree. Color must agree with
// oracleColor node for node, color every node inside [0, K), keep every
// pin, keep unpinned nodes at or above FirstFree, and — when the free
// range is wider than the maximum degree — give no unpinned node a
// neighbor's color.
func FuzzColoring(f *testing.F) {
	f.Add(uint8(3), uint8(0), []byte{}, []byte{6, 0, 1, 50, 0, 0, 1, 2, 99, 0, 0})
	f.Add(uint8(1), uint8(0), []byte{}, []byte{9, 4, 5, 1, 1, 1, 5, 6, 1, 0, 0})
	f.Fuzz(func(t *testing.T, kRaw, ffRaw uint8, pins, data []byte) {
		n, pairs := decodePairs(data)
		g := FromPairs(n, pairs)
		k := 1 + int(kRaw)%200
		spec := ColoringSpec{K: k, FirstFree: int(ffRaw) % k}
		for ; len(pins) >= 2; pins = pins[2:] {
			if spec.Pinned == nil {
				spec.Pinned = map[int32]int{}
			}
			spec.Pinned[int32(int(pins[0])%n)] = int(pins[1]) % k
		}
		col, err := checkOracle(t, "fuzz", g, spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := ValidateColors(g, col.Colors, k); err != nil {
			t.Fatal(err)
		}
		maxDeg := 0
		for u := int32(0); int(u) < n; u++ {
			c, isPinned := spec.Pinned[u]
			switch {
			case col.Colors[u] < 0:
				t.Fatalf("node %d left uncolored", u)
			case isPinned && col.Colors[u] != c:
				t.Fatalf("pinned node %d colored %d, want %d", u, col.Colors[u], c)
			case !isPinned && col.Colors[u] < spec.FirstFree:
				t.Fatalf("node %d colored %d below FirstFree %d", u, col.Colors[u], spec.FirstFree)
			}
			maxDeg = max(maxDeg, g.Degree(u))
		}
		if k-spec.FirstFree <= maxDeg {
			return
		}
		for u := int32(0); int(u) < n; u++ {
			if _, isPinned := spec.Pinned[u]; isPinned {
				continue
			}
			nbrs, _ := g.Neighbors(u)
			for _, v := range nbrs {
				if col.Colors[u] == col.Colors[v] {
					t.Fatalf("K-FirstFree=%d > max degree %d, yet %d and %d share color %d",
						k-spec.FirstFree, maxDeg, u, v, col.Colors[u])
				}
			}
		}
	})
}

// decodeRows turns an arbitrary byte string into a node count and a set
// of directed count rows for FromRows. The first byte picks n; each row
// then takes a length byte (up to n+2, so rows run short of n, exactly
// to it, and past it) and one byte per cell. Most cell bytes decode to
// small counts, zero included; a set high bit scales the cell toward
// the top of the uint32 range. There may be one row more than n.
func decodeRows(data []byte) (n int, rows [][]uint32) {
	if len(data) == 0 {
		return 1, nil
	}
	n = 1 + int(data[0])%40
	data = data[1:]
	for len(data) > 0 && len(rows) <= n {
		k := min(int(data[0])%(n+3), len(data)-1)
		row := make([]uint32, k)
		for i, b := range data[1 : 1+k] {
			row[i] = uint32(b & 0x7f % 5)
			if b&0x80 != 0 {
				row[i] = math.MaxUint32 - uint32(b&0x7f)
			}
		}
		rows = append(rows, row)
		data = data[1+k:]
	}
	return n, rows
}

// rowPairs lists the halves held by directed count rows as a pair list,
// one pair {u, v, rows[u][v]} per cell: the input FromPairs is given to
// serve as FromRows's oracle. Zero, diagonal and out-of-range cells go
// in as they are; FromPairs is specified to drop them.
func rowPairs(rows [][]uint32) []Pair {
	var pairs []Pair
	for u, row := range rows {
		for v, c := range row {
			pairs = append(pairs, Pair{U: int32(u), V: int32(v), W: uint64(c)})
		}
	}
	return pairs
}

// checkFromRows fails unless FromRows(n, rows) is exactly FromPairs over
// the same halves: the same off, nbr and wt arrays, each sized exactly.
func checkFromRows(t *testing.T, n int, rows [][]uint32) {
	t.Helper()
	got, want := FromRows(n, rows), FromPairs(n, rowPairs(rows))
	if !slices.Equal(got.off, want.off) || !slices.Equal(got.nbr, want.nbr) || !slices.Equal(got.wt, want.wt) {
		t.Fatalf("n=%d: FromRows gives %v, FromPairs %v\noff %v / %v\nnbr %v / %v\nwt %v / %v",
			n, got, want, got.off, want.off, got.nbr, want.nbr, got.wt, want.wt)
	}
	if cap(got.off) != len(got.off) || cap(got.nbr) != len(got.nbr) || cap(got.wt) != len(got.wt) {
		t.Fatalf("n=%d: backing arrays not exactly sized", n)
	}
}

// FuzzFromRows differentially fuzzes the dense-row CSR builder against
// FromPairs, its specification: every decoded set of rows — short rows,
// rows past n, diagonal and zero cells, near-overflow halves — must
// build exactly the graph FromPairs builds from the same halves.
func FuzzFromRows(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 3, 0, 1, 2, 2, 4, 0, 0, 1})
	f.Add([]byte{5, 7, 1, 1, 1, 1, 1, 1, 1, 0, 3, 0x81, 0, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		n, rows := decodeRows(data)
		checkFromRows(t, n, rows)
	})
}

// TestFromRowsMatchesFromPairs runs the FromRows oracle over seeded
// random rows of every shape the profiler produces and more: nil and
// short rows, rows longer than n, a row per node or fewer, diagonal
// cells, and densities from sparse to full.
func TestFromRowsMatchesFromPairs(t *testing.T) {
	r := rng.New(505)
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(60)
		rows := make([][]uint32, r.Intn(n+2))
		density := r.Intn(101)
		for u := range rows {
			if r.Intn(8) == 0 {
				continue // nil row
			}
			rows[u] = make([]uint32, r.Intn(n+3))
			for v := range rows[u] {
				if r.Intn(100) < density {
					rows[u][v] = uint32(1 + r.Intn(1000))
				}
			}
		}
		checkFromRows(t, n, rows)
	}
	checkFromRows(t, 3, [][]uint32{{0, math.MaxUint32, 1}, {math.MaxUint32, 0}, {7}})
}
