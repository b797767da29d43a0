package graph

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/rng"
)

// oracleColor is the node×K coloring that Color replaced, kept verbatim
// as the specification Color must match color for color: it clears the
// neighbor marks over all K colors for every node, scans the whole
// table cyclically for the least-loaded free color, and finds each
// high-pressure eviction by a full scan of the remaining nodes.
func oracleColor(g *Graph, spec ColoringSpec) (Coloring, error) {
	if spec.K < 1 {
		return Coloring{}, fmt.Errorf("graph: coloring needs K >= 1, got %d", spec.K)
	}
	if spec.FirstFree < 0 || spec.FirstFree >= spec.K {
		return Coloring{}, fmt.Errorf("graph: FirstFree %d outside [0,%d)", spec.FirstFree, spec.K)
	}
	for u, c := range spec.Pinned {
		if c < 0 || c >= spec.K {
			return Coloring{}, fmt.Errorf("graph: pinned color %d for node %d outside [0,%d)", c, u, spec.K)
		}
		if int(u) < 0 || int(u) >= g.N() {
			return Coloring{}, fmt.Errorf("graph: pinned node %d outside graph", u)
		}
	}
	n := g.N()
	colors := make([]int, n)
	for i := range colors {
		colors[i] = -1
	}
	removed := make([]bool, n)
	inStack := make([]int32, 0, n)

	// Pinned nodes never enter the simplify worklist; pinned pressure
	// is applied at select time via occupied colors.
	pinned := make([]bool, n)
	for u := range spec.Pinned {
		pinned[u] = true
	}

	// The simplify and select loops read the rows in place, in
	// ascending neighbor order, so identical inputs give identical
	// allocations.
	deg := make([]int, n)
	weight := make([]uint64, n)
	active := 0
	maxDeg := 0
	for u := 0; u < n; u++ {
		if pinned[u] {
			removed[u] = true
			continue
		}
		active++
		nbrs, wts := g.Neighbors(int32(u))
		for i, v := range nbrs {
			if !pinned[v] {
				deg[u]++
			}
			weight[u] += wts[i]
		}
		if deg[u] > maxDeg {
			maxDeg = deg[u]
		}
	}

	// Simplify with a degree-bucket queue: O(nodes + edges) overall,
	// which matters because the required-size search colors gcc-scale
	// graphs dozens of times.
	buckets := make([][]int32, maxDeg+1)
	for u := 0; u < n; u++ {
		if !removed[u] {
			buckets[deg[u]] = append(buckets[deg[u]], int32(u))
		}
	}
	pop := func() int32 {
		// Lowest-degree node below K first (guaranteed conflict-free);
		// stale bucket entries (degree since decreased or node already
		// removed) are skipped lazily.
		for d := 0; d < spec.K && d <= maxDeg; d++ {
			for len(buckets[d]) > 0 {
				u := buckets[d][len(buckets[d])-1]
				buckets[d] = buckets[d][:len(buckets[d])-1]
				if !removed[u] && deg[u] == d {
					return u
				}
			}
		}
		// High-pressure case: evict the node with the smallest total
		// conflict weight (cheapest to share an entry).
		pick := int32(-1)
		var bestW uint64
		for u := 0; u < n; u++ {
			if removed[u] {
				continue
			}
			if pick == -1 || weight[u] < bestW {
				pick = int32(u)
				bestW = weight[u]
			}
		}
		return pick
	}
	for ; active > 0; active-- {
		u := pop()
		removed[u] = true
		inStack = append(inStack, u)
		nbrs, _ := g.Neighbors(u)
		for _, v := range nbrs {
			if !removed[v] {
				deg[v]--
				buckets[deg[v]] = append(buckets[deg[v]], v)
			}
		}
	}

	// Apply pins before selection so reinserted nodes see them.
	for u, c := range spec.Pinned {
		colors[u] = c
	}

	// Select phase: reverse removal order. Among the colors free of
	// graph conflicts, take the least-loaded entry: the pruned graph
	// only records interleavings above threshold, and spreading
	// assignments across the whole table keeps the incidental
	// (sub-threshold) aliasing of a packed table from re-creating the
	// interference the allocation exists to remove. Entry load uses a
	// deterministic round-robin tie-break.
	used := make([]bool, spec.K)
	conflictW := make([]uint64, spec.K)
	load := make([]int, spec.K)
	for _, c := range spec.Pinned {
		load[c]++
	}
	nextProbe := spec.FirstFree
	for i := len(inStack) - 1; i >= 0; i-- {
		u := inStack[i]
		for c := range used {
			used[c] = false
			conflictW[c] = 0
		}
		nbrs, wts := g.Neighbors(u)
		for i, v := range nbrs {
			if c := colors[v]; c >= 0 {
				used[c] = true
				conflictW[c] += wts[i]
			}
		}
		chosen := -1
		// Start the scan at a rotating probe point so equal-load
		// choices distribute around the table instead of clustering at
		// FirstFree.
		bestLoad := -1
		for off := 0; off < spec.K-spec.FirstFree; off++ {
			c := spec.FirstFree + (nextProbe-spec.FirstFree+off)%(spec.K-spec.FirstFree)
			if used[c] {
				continue
			}
			if bestLoad == -1 || load[c] < bestLoad {
				chosen = c
				bestLoad = load[c]
				if bestLoad == 0 {
					break
				}
			}
		}
		if chosen == -1 {
			// Every allowed color conflicts; take the cheapest (the
			// paper's "branches with the fewest conflicts ... map to
			// the same location").
			var bestW uint64
			for c := spec.FirstFree; c < spec.K; c++ {
				if chosen == -1 || conflictW[c] < bestW {
					chosen = c
					bestW = conflictW[c]
				}
			}
		}
		colors[u] = chosen
		load[chosen]++
		nextProbe = chosen + 1
		if nextProbe >= spec.K {
			nextProbe = spec.FirstFree
		}
	}

	return Coloring{K: spec.K, Colors: colors}, nil
}

// checkOracle fails unless Color and oracleColor agree on spec: the same
// error, or the same color for every node. It returns Color's result.
func checkOracle(t *testing.T, what string, g *Graph, spec ColoringSpec) (Coloring, error) {
	t.Helper()
	got, gotErr := g.Color(spec)
	want, wantErr := oracleColor(g, spec)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: Color error %v, oracle %v", what, gotErr, wantErr)
	}
	if !slices.Equal(got.Colors, want.Colors) || got.K != want.K {
		for u := range want.Colors {
			if got.Colors[u] != want.Colors[u] {
				t.Fatalf("%s: K=%d FirstFree=%d pins=%d: node %d colored %d, oracle %d",
					what, spec.K, spec.FirstFree, len(spec.Pinned), u, got.Colors[u], want.Colors[u])
			}
		}
		t.Fatalf("%s: colorings differ: %v vs oracle %v", what, got, want)
	}
	return got, gotErr
}

// TestColorMatchesOracle runs Color against the oracle on random graphs
// from empty to dense, with K from 1 to 300 (across the 64- and
// 128-color word boundaries), random FirstFree and random pins on both
// sides of it. Small weights force ties in the eviction order and the
// conflict-weight fallback.
func TestColorMatchesOracle(t *testing.T) {
	r := rng.New(1717)
	for trial := 0; trial < 600; trial++ {
		n := 1 + r.Intn(160)
		k := 1 + r.Intn(300)
		if trial%2 == 1 {
			// More nodes than colors: the probe wraps, and colors
			// skipped for conflicts leave free holes behind it, in
			// another word than the probe's.
			k = 65 + r.Intn(136)
			n = k + r.Intn(2*k)
		}
		g := randomGraph(r, n, r.Float64()*r.Float64()*r.Float64(), 1+r.Intn(20))
		spec := ColoringSpec{K: k}
		if r.Intn(3) > 0 {
			spec.FirstFree = r.Intn(k)
		}
		if r.Intn(2) == 0 {
			spec.Pinned = map[int32]int{}
			for u := 0; u < n; u++ {
				if r.Intn(5) == 0 {
					spec.Pinned[int32(u)] = r.Intn(k)
				}
			}
		}
		checkOracle(t, fmt.Sprintf("trial %d (n=%d, %d edges)", trial, n, g.NumEdges()), g, spec)
	}
}
