// Package graph implements the weighted undirected graph machinery
// behind the branch conflict graph (paper Section 4.1, Figure 2).
//
// Nodes are dense integer ids assigned by the caller (package core maps
// static branch PCs to ids). Edge weights are interleave counts. The
// package provides the operations the paper's analysis needs: threshold
// pruning, working-set extraction (maximal cliques and a greedy clique
// partition), and Chaitin-style graph coloring with conflict
// minimization instead of spilling (Section 5.1).
package graph

import (
	"fmt"
	"slices"
)

// Graph is an immutable weighted undirected graph over nodes 0..N()-1,
// stored in compressed sparse row (CSR) form: node u's neighbors are
// nbr[off[u]:off[u+1]], strictly ascending, and wt holds the matching
// edge weights. Every edge appears in both endpoint rows with the same
// weight, no row holds its own node, and every stored weight is
// nonzero. The backing arrays are sized exactly.
//
// FromPairs builds a graph from raw weighted pairs and FromRows from
// directed count rows; Filter derives a subgraph. Nothing mutates a graph after construction, so graphs and
// the row slices Neighbors returns may be shared freely.
type Graph struct {
	off []int
	nbr []int32
	wt  []uint64
}

// Pair is one weighted undirected edge input to FromPairs.
type Pair struct {
	U, V int32
	W    uint64
}

// newGraph allocates a graph whose row u has room for exactly deg[u]
// entries. It is the package's only Graph constructor; FromPairs,
// FromRows and Filter fill the rows it returns.
func newGraph(deg []int) *Graph {
	off := make([]int, len(deg)+1)
	for u, d := range deg {
		off[u+1] = off[u] + d
	}
	m := off[len(deg)]
	return &Graph{off: off, nbr: make([]int32, m), wt: make([]uint64, m)}
}

// FromPairs builds a graph over n nodes from a weighted pair list in any
// order. Self-loops (a branch does not conflict with itself), zero
// weights and pairs with an endpoint outside [0, n) are dropped — the
// pair list is arbitrary untrusted input, fuzzers feed it directly — and
// duplicate pairs, in either orientation, have their weights summed. A
// pair whose summed weight wraps to zero is dropped too: HasEdge means
// Weight > 0, and a zero-weight row entry would be invisible to it yet
// still steer components, cliques and coloring.
//
// The rows come out sorted without a comparison sort: half-edges are
// first bucketed by neighbor id, then distributed to their rows in
// ascending neighbor order, so each row receives its entries in order
// and a pair's duplicates arrive back to back. The cost is linear in
// pairs plus nodes, and the result does not depend on the input order.
func FromPairs(n int, pairs []Pair) *Graph {
	valid := func(p Pair) bool {
		return p.U != p.V && p.W != 0 && p.U >= 0 && p.V >= 0 && int(p.U) < n && int(p.V) < n
	}
	// Bucket both halves of every valid pair by neighbor id: column c
	// lists the rows adjacent to c, with the pair weights.
	col := make([]int, n+1)
	for _, p := range pairs {
		if valid(p) {
			col[p.U+1]++
			col[p.V+1]++
		}
	}
	for c := 0; c < n; c++ {
		col[c+1] += col[c]
	}
	rows := make([]int32, col[n])
	ws := make([]uint64, col[n])
	next := slices.Clone(col[:n])
	for _, p := range pairs {
		if valid(p) {
			rows[next[p.V]], ws[next[p.V]] = p.U, p.W
			next[p.V]++
			rows[next[p.U]], ws[next[p.U]] = p.V, p.W
			next[p.U]++
		}
	}

	// Size each row by its distinct neighbors: walking the columns in
	// ascending order visits a row's duplicates consecutively.
	deg := make([]int, n)
	last := next // reused: last[r] is the latest column counted for row r
	for r := range last {
		last[r] = -1
	}
	for c := 0; c < n; c++ {
		for _, r := range rows[col[c]:col[c+1]] {
			if last[r] != c {
				last[r] = c
				deg[r]++
			}
		}
	}

	g := newGraph(deg)
	fill := deg // reused: fill[r] is row r's next free slot
	copy(fill, g.off[:n])
	for c := 0; c < n; c++ {
		for i := col[c]; i < col[c+1]; i++ {
			r := rows[i]
			if k := fill[r]; k > g.off[r] && g.nbr[k-1] == int32(c) {
				g.wt[k-1] += ws[i]
			} else {
				g.nbr[k], g.wt[k] = int32(c), ws[i]
				fill[r]++
			}
		}
	}
	if slices.Contains(g.wt, 0) {
		return g.Filter(1, nil)
	}
	return g
}

// FromRows builds a graph over n nodes from directed count rows:
// rows[u][v] is u's half of the weight of edge {u, v}, and the edge
// weighs rows[u][v] + rows[v][u]. A row may be nil or shorter than n;
// cells at v >= n, rows at u >= n, diagonal cells and zero cells are
// ignored. The result equals FromPairs over the same halves, one pair
// {u, v, rows[u][v]} per nonzero cell, without building that pair list.
//
// Every step is a linear pass that keeps its output sorted. Each row is
// compacted in one pass, ascending by construction; the compacted rows
// are transposed by counting sort, which leaves the transpose's rows
// ascending too; and each row is merged with its transpose into the
// exactly sized result. Only the compaction scans the dense rows (the
// sizing step reads single cells), so the cost is one pass over the
// cells plus linear work in the nonzero ones. Two uint32 halves cannot sum to zero in uint64, so every stored
// weight is nonzero.
func FromRows(n int, rows [][]uint32) *Graph {
	rows = rows[:min(len(rows), n)]

	// Compact: own[u] holds row u's nonzero off-diagonal cells,
	// ascending. A row is compacted into scratch (the diagonal skipped
	// by compacting the cells on either side of it) and copied out at
	// its exact size.
	own := make([][]half, n)
	scratch := make([]half, n)
	col := make([]int, n+1)
	for u, r := range rows {
		r = r[:min(len(r), n)]
		k := compactRow(scratch, r[:min(u, len(r))], 0)
		if u < len(r) {
			k += compactRow(scratch[k:], r[u+1:], u+1)
		}
		own[u] = slices.Clone(scratch[:k])
		for _, h := range own[u] {
			col[h.v+1]++
		}
	}

	// Transpose by counting sort: walking rows in ascending u appends u
	// to each column's bucket in ascending order.
	for c := 0; c < n; c++ {
		col[c+1] += col[c]
	}
	trans := make([]half, col[n])
	next := slices.Clone(col[:n])
	for u, hs := range own {
		for _, h := range hs {
			trans[next[h.v]] = half{v: int32(u), w: h.w}
			next[h.v]++
		}
	}

	// Size: row u's partners are its own and its transpose's, less the
	// mutual ones counted in both — those v in the transpose whose cell
	// in u's dense row is nonzero too.
	deg := next // reused: deg[u] is row u's merged length
	for u := 0; u < n; u++ {
		b := trans[col[u]:col[u+1]]
		mutual := 0
		if u < len(rows) {
			r := rows[u]
			for _, h := range b {
				if int(h.v) >= len(r) {
					break
				}
				mutual += nonzero(r[h.v])
			}
		}
		deg[u] = len(own[u]) + len(b) - mutual
	}

	// Merge each row with its transpose, summing the halves of a mutual
	// pair. The merge step is branch-free: it emits the smaller head and
	// advances whichever side (or both) holds it.
	g := newGraph(deg)
	for u := 0; u < n; u++ {
		a, b := own[u], trans[col[u]:col[u+1]]
		nbr, wt := g.nbr[g.off[u]:g.off[u+1]], g.wt[g.off[u]:g.off[u+1]]
		i, j, k := 0, 0, 0
		for i < len(a) && j < len(b) {
			x, y := a[i], b[j]
			ta, tb := b2i(x.v <= y.v), b2i(y.v <= x.v)
			nbr[k] = min(x.v, y.v)
			wt[k] = uint64(x.w)*uint64(ta) + uint64(y.w)*uint64(tb)
			i, j, k = i+ta, j+tb, k+1
		}
		for _, h := range a[i:] {
			nbr[k], wt[k] = h.v, uint64(h.w)
			k++
		}
		for _, h := range b[j:] {
			nbr[k], wt[k] = h.v, uint64(h.w)
			k++
		}
	}
	return g
}

// half is one directed half of an edge during FromRows: partner v and
// the count the row holds for it.
type half struct {
	v int32
	w uint32
}

// compactRow writes the nonzero cells of r, whose first cell is column
// base, to out in ascending column order and returns how many it wrote;
// out must have room for len(r) entries. Every cell is written and only
// a nonzero one advances the output, so the loop body has no
// data-dependent branch; groups of eight zero cells are skipped whole.
func compactRow(out []half, r []uint32, base int) int {
	out = out[:len(r)]
	k := 0
	i := 0
	for ; i+8 <= len(r); i += 8 {
		c := r[i : i+8 : i+8]
		if c[0]|c[1]|c[2]|c[3]|c[4]|c[5]|c[6]|c[7] == 0 {
			continue
		}
		for j, x := range c {
			out[k] = half{v: int32(base + i + j), w: x}
			k += nonzero(x)
		}
	}
	for ; i < len(r); i++ {
		out[k] = half{v: int32(base + i), w: r[i]}
		k += nonzero(r[i])
	}
	return k
}

// nonzero is 1 if x != 0 and 0 otherwise, without a branch: x or -x
// has its top bit set exactly when x is nonzero.
func nonzero(x uint32) int { return int((x | -x) >> 31) }

// b2i converts a bool to 0 or 1; the compiler emits a flag set, not a
// branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Filter returns the subgraph of g holding the edges of weight at least
// minWeight for which keep, when non-nil, reports true — the paper's
// threshold pruning (Section 4.2) and any further edge refinement in
// one linear copy of the sorted rows. keep sees each edge as (u, v)
// with u < v, once per endpoint row, so any deterministic keep yields a
// symmetric result. When every edge is kept, g itself is returned.
func (g *Graph) Filter(minWeight uint64, keep func(u, v int32) bool) *Graph {
	n := g.N()
	deg := make([]int, n)
	var kept []int
	for u := 0; u < n; u++ {
		lo := g.off[u]
		for j, w := range g.wt[lo:g.off[u+1]] {
			if w < minWeight {
				continue
			}
			if v := g.nbr[lo+j]; keep != nil && !keep(min(int32(u), v), max(int32(u), v)) {
				continue
			}
			kept = append(kept, lo+j)
			deg[u]++
		}
	}
	if len(kept) == len(g.nbr) {
		return g
	}
	out := newGraph(deg)
	for k, i := range kept {
		out.nbr[k], out.wt[k] = g.nbr[i], g.wt[i]
	}
	return out
}

// N returns the node count.
func (g *Graph) N() int { return len(g.off) - 1 }

// Neighbors returns u's row: its neighbors in strictly ascending order
// and the matching edge weights. The slices alias the graph and must
// not be modified.
func (g *Graph) Neighbors(u int32) ([]int32, []uint64) {
	lo, hi := g.off[u], g.off[u+1]
	return g.nbr[lo:hi:hi], g.wt[lo:hi:hi]
}

// Weight returns the weight of edge {u, v}, or 0 if absent.
func (g *Graph) Weight(u, v int32) uint64 {
	if u < 0 || int(u) >= g.N() {
		return 0
	}
	lo := g.off[u]
	if i, ok := slices.BinarySearch(g.nbr[lo:g.off[u+1]], v); ok {
		return g.wt[lo+i]
	}
	return 0
}

// HasEdge reports whether {u, v} is present.
func (g *Graph) HasEdge(u, v int32) bool { return g.Weight(u, v) > 0 }

// Degree returns the number of neighbors of u.
func (g *Graph) Degree(u int32) int { return g.off[u+1] - g.off[u] }

// NumEdges returns the number of distinct undirected edges.
func (g *Graph) NumEdges() int { return len(g.nbr) / 2 }

// Len returns the number of distinct undirected edges, like NumEdges.
// It exists because the benchmark reads a profile's pair count as
// Pairs.Len() and a pruned graph's size as NumEdges(), and calls both.
func (g *Graph) Len() int { return g.NumEdges() }

// TotalWeight returns the sum of all edge weights.
func (g *Graph) TotalWeight() uint64 {
	var total uint64
	for u := 0; u < g.N(); u++ {
		for i := g.off[u]; i < g.off[u+1]; i++ {
			if int32(u) < g.nbr[i] {
				total += g.wt[i]
			}
		}
	}
	return total
}

// Components returns the connected components as sorted node slices,
// ordered by their smallest member. Isolated nodes form singleton
// components.
func (g *Graph) Components() [][]int32 {
	n := g.N()
	seen := make([]bool, n)
	var comps [][]int32
	stack := make([]int32, 0, 64)
	for start := 0; start < n; start++ {
		if seen[start] {
			continue
		}
		seen[start] = true
		stack = append(stack[:0], int32(start))
		comp := []int32{}
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, u)
			for _, v := range g.nbr[g.off[u]:g.off[u+1]] {
				if !seen[v] {
					seen[v] = true
					stack = append(stack, v)
				}
			}
		}
		slices.Sort(comp)
		comps = append(comps, comp)
	}
	return comps
}

// String summarizes the graph for debugging.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{nodes=%d edges=%d weight=%d}", g.N(), g.NumEdges(), g.TotalWeight())
}
