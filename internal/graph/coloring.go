package graph

import (
	"cmp"
	"fmt"
	"slices"
)

// Coloring assigns each node one of K colors. In branch allocation a
// color is a BHT entry index (paper Section 5.1): the goal is not a
// proper coloring but a minimum-conflict one — when a working set has
// more members than the table has entries, branches with the fewest
// conflicts share an entry.
type Coloring struct {
	// K is the number of colors (BHT entries available to the
	// allocator).
	K int
	// Colors[u] is node u's color in [0, K).
	Colors []int
}

// ColoringSpec configures Color.
type ColoringSpec struct {
	// K is the number of available colors; must be >= 1.
	K int
	// Pinned maps node ids to fixed colors in [0, K). The classifier
	// pins highly biased branches to reserved entries (Section 5.2).
	Pinned map[int32]int
	// FirstFree is the lowest color unpinned nodes may take. Setting it
	// to 2 with biased branches pinned to colors 0 and 1 keeps the
	// reserved entries "separated from others", as Section 5.2
	// specifies. Zero means all colors are available.
	FirstFree int
}

// Color computes a minimum-conflict coloring of g following the
// register-allocation recipe the paper adapts (Section 5.1):
//
//  1. Simplify: repeatedly remove a node with fewer than K uncolored,
//     unpinned neighbors (such a node can always be colored
//     conflict-free later). Removal order: lowest current degree first.
//  2. When no node has degree < K, remove the node with the smallest
//     total incident conflict weight, ties to the lowest id (the
//     "optimistic spill" candidate — in branch allocation it is not
//     spilled, it just risks sharing).
//  3. Select: reinsert nodes in reverse order; give each the
//     least-loaded color in [FirstFree, K) unused by its neighbors,
//     ties going to the first such color in cyclic order from just
//     past the previous node's color; or, if every color there is used
//     by a neighbor, the color minimizing summed interleave weight to
//     same-colored neighbors.
//
// Cost, for n nodes and m edges: simplify is O(n log n + m) — a
// degree-bucket queue read from a cursor, plus one (weight, id) sort of
// the unpinned nodes the first time no node has degree < K. Select is
// O(m) for the neighbor marks, plus a word-level scan of K/64 words per
// load level visited; a node visits at most degree+1 non-empty levels,
// and only a node with at least K-FirstFree neighbors can reach the
// O(K) all-colors-used fallback.
//
// The returned Coloring assigns every node a color.
func (g *Graph) Color(spec ColoringSpec) (Coloring, error) {
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

	// Simplify with a degree-bucket queue. Every remaining node has
	// degree >= lo, so buckets below lo hold only stale entries and the
	// scan starts there; lo rises with the scan and falls by one per
	// degree decrement, which bounds the bucket work at O(n + m).
	buckets := make([][]int32, maxDeg+1)
	for u := 0; u < n; u++ {
		if !removed[u] {
			buckets[deg[u]] = append(buckets[deg[u]], int32(u))
		}
	}
	lo := 0
	// byWeight is the high-pressure eviction order, (weight, id)
	// ascending; weights never change, so it is sorted once, on first
	// use, and read from a cursor past removed nodes.
	var byWeight []int32
	next := 0
	pop := func() int32 {
		// Lowest-degree node below K first (guaranteed conflict-free);
		// stale bucket entries (degree since decreased or node already
		// removed) are skipped lazily.
		for d := lo; d < spec.K && d <= maxDeg; d++ {
			for len(buckets[d]) > 0 {
				u := buckets[d][len(buckets[d])-1]
				buckets[d] = buckets[d][:len(buckets[d])-1]
				if !removed[u] && deg[u] == d {
					lo = d
					return u
				}
			}
		}
		lo = min(spec.K, maxDeg+1)
		// High-pressure case: evict the node with the smallest total
		// conflict weight (cheapest to share an entry).
		if byWeight == nil {
			byWeight = make([]int32, 0, active)
			for u := 0; u < n; u++ {
				if !pinned[u] {
					byWeight = append(byWeight, int32(u))
				}
			}
			slices.SortFunc(byWeight, func(a, b int32) int {
				return cmp.Or(cmp.Compare(weight[a], weight[b]), cmp.Compare(a, b))
			})
		}
		for removed[byWeight[next]] {
			next++
		}
		return byWeight[next]
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
				lo = min(lo, deg[v])
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
	//
	// Only colors in [FirstFree, K) can be chosen, so the select state
	// indexes them by offset from FirstFree. Level l of levels holds
	// the colors whose load is l; minLevel is the lowest non-empty one.
	// Loads only grow, so the least-loaded free color is the first free
	// bit of the lowest level that has one.
	ff, r := spec.FirstFree, spec.K-spec.FirstFree
	words := (r + 63) / 64
	load := make([]int, r)
	for _, c := range spec.Pinned {
		if c >= ff {
			load[c-ff]++
		}
	}
	var levelBits []uint64
	var levelN []int
	level := func(l int) bitset { return bitset(levelBits[l*words : (l+1)*words]) }
	enter := func(c, l int) {
		for len(levelN) <= l {
			levelBits = append(levelBits, make([]uint64, words)...)
			levelN = append(levelN, 0)
		}
		level(l).set(int32(c))
		levelN[l]++
	}
	for c := 0; c < r; c++ {
		enter(c, load[c])
	}
	minLevel := 0
	for levelN[minLevel] == 0 {
		minLevel++
	}
	// used marks the neighbors' colors; touched lists them, so only
	// those marks and conflict weights are reset after each node.
	used := newBitset(r)
	conflictW := make([]uint64, r)
	var touched []int32
	probe := 0 // offset of the cyclic scan's start from FirstFree
	for i := len(inStack) - 1; i >= 0; i-- {
		u := inStack[i]
		nbrs, wts := g.Neighbors(u)
		for j, v := range nbrs {
			c := colors[v] - ff
			if c < 0 {
				continue // uncolored, or pinned below FirstFree
			}
			if !used.has(int32(c)) {
				used.set(int32(c))
				touched = append(touched, int32(c))
			}
			conflictW[c] += wts[j]
		}
		chosen := -1
		if len(touched) < r {
			// Some color is free; scanning levels from the cyclic probe
			// point keeps equal-load choices distributed around the
			// table instead of clustering at FirstFree.
			for l := minLevel; chosen < 0; l++ {
				if levelN[l] > 0 {
					chosen = level(l).firstAndNotFrom(used, probe)
				}
			}
		} else {
			// Every allowed color conflicts; take the cheapest (the
			// paper's "branches with the fewest conflicts ... map to
			// the same location").
			var bestW uint64
			for c := 0; c < r; c++ {
				if chosen == -1 || conflictW[c] < bestW {
					chosen = c
					bestW = conflictW[c]
				}
			}
		}
		for _, c := range touched {
			used.clear(c)
			conflictW[c] = 0
		}
		touched = touched[:0]

		colors[u] = ff + chosen
		l := load[chosen]
		level(l).clear(int32(chosen))
		levelN[l]--
		load[chosen]++
		enter(chosen, l+1)
		for levelN[minLevel] == 0 {
			minLevel++
		}
		probe = chosen + 1
		if probe == r {
			probe = 0
		}
	}

	return Coloring{K: spec.K, Colors: colors}, nil
}

// ConflictCost returns the summed weight of edges whose endpoints share
// a color under colors (color -1 = uncolored, never conflicting). This
// is the table-contention metric used to size the BHT (Table 3/4).
func (g *Graph) ConflictCost(colors []int) uint64 {
	var total uint64
	for u := 0; u < g.N(); u++ {
		cu := colors[u]
		if cu < 0 {
			continue
		}
		nbrs, wts := g.Neighbors(int32(u))
		for i, v := range nbrs {
			if int32(u) < v && colors[v] == cu {
				total += wts[i]
			}
		}
	}
	return total
}

// ValidateColors checks that colors has one entry per node and values in
// [-1, K).
func ValidateColors(g *Graph, colors []int, k int) error {
	if len(colors) != g.N() {
		return fmt.Errorf("graph: colors length %d != node count %d", len(colors), g.N())
	}
	for u, c := range colors {
		if c < -1 || c >= k {
			return fmt.Errorf("graph: node %d color %d outside [-1,%d)", u, c, k)
		}
	}
	return nil
}
