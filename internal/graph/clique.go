package graph

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// CliqueResult holds the outcome of working-set extraction.
type CliqueResult struct {
	// Cliques are the extracted node sets, each sorted ascending, and
	// the whole list in lexicographic order — a canonical order shared
	// by the serial and parallel enumerators, so downstream output never
	// depends on traversal or scheduling.
	Cliques [][]int32
	// Truncated is true if the enumeration budget was exhausted before
	// all maximal cliques were produced. Callers must surface this —
	// a silently truncated Table 2 would overstate nothing but explain
	// nothing either.
	Truncated bool
}

// DefaultCliqueBudget bounds maximal-clique enumeration work. The
// branch conflict graphs in this study are unions of moderately dense
// clusters, far from the worst case, but the bound keeps adversarial
// graphs from hanging an experiment run.
const DefaultCliqueBudget = 5_000_000

// MaximalCliques enumerates the maximal complete subgraphs of g using
// Bron-Kerbosch with pivoting. These are the paper's branch working
// sets: "a set of conditional branch instructions which form a
// completely interconnected subgraph in the branch conflict graph"
// (Section 4.1). Isolated nodes (degree 0) are reported as singleton
// working sets only when includeSingletons is true; a branch that never
// interleaves with another above threshold still forms a (trivial)
// working set of its own.
//
// budget caps the total number of recursion steps; <= 0 selects
// DefaultCliqueBudget.
func (g *Graph) MaximalCliques(budget int, includeSingletons bool) CliqueResult {
	return g.MaximalCliquesParallel(budget, includeSingletons, 1)
}

// MaximalCliquesParallel is MaximalCliques with the enumeration split
// across up to workers goroutines. The split happens at the root of the
// Bron-Kerbosch recursion: the top-level pivot's candidate branches are
// materialized as independent subtasks (each with its own candidate and
// exclusion snapshot) and farmed out to a worker pool sharing one atomic
// step budget. Subtask results are merged through the same canonical
// sort the serial path uses, so the output is byte-identical for any
// worker count whenever the budget is not exhausted. Under exhaustion
// both modes report Truncated, but the enumerated subset may differ —
// truncated counts are lower bounds either way.
//
// workers <= 1 runs the exact serial enumeration.
func (g *Graph) MaximalCliquesParallel(budget int, includeSingletons bool, workers int) CliqueResult {
	return g.MaximalCliquesObs(budget, includeSingletons, workers, nil)
}

// MaximalCliquesObs is MaximalCliquesParallel with enumeration-effort
// metrics: subtasks spawned, budget steps consumed, cliques reported,
// and truncation events are recorded into m (nil disables recording —
// the enumeration itself is identical either way).
func (g *Graph) MaximalCliquesObs(budget int, includeSingletons bool, workers int, m *obs.CliqueMetrics) CliqueResult {
	if budget <= 0 {
		budget = DefaultCliqueBudget
	}
	comps := g.Components()
	var res CliqueResult
	var subtasks int
	var steps int64
	if workers <= 1 {
		e := &cliqueEnum{budget: budget}
		for _, comp := range comps {
			if len(comp) == 1 {
				if includeSingletons {
					e.out = append(e.out, []int32{comp[0]})
				}
				continue
			}
			e.runComponent(g, comp)
			if e.exhausted {
				break
			}
		}
		res = CliqueResult{Cliques: e.out, Truncated: e.exhausted}
		steps = int64(budget - e.budget)
	} else {
		res, subtasks, steps = g.parallelCliques(budget, includeSingletons, workers, comps)
	}
	sortCliques(res.Cliques)
	m.Record(subtasks, steps, len(res.Cliques), res.Truncated)
	return res
}

// sortCliques orders cliques lexicographically by members. Distinct
// sorted sets never compare equal, so this is a strict total order: any
// enumeration order sorts to the same sequence.
func sortCliques(cs [][]int32) {
	sort.Slice(cs, func(i, j int) bool { return lessInt32s(cs[i], cs[j]) })
}

func lessInt32s(a, b []int32) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

type cliqueEnum struct {
	budget    int
	shared    *atomic.Int64 // non-nil in parallel mode: pooled step budget
	exhausted bool
	out       [][]int32

	// Component-local state.
	global []int32  // local id -> global id
	adj    []bitset // local adjacency rows
}

// take consumes one enumeration step from the budget, reporting whether
// the caller may proceed.
func (e *cliqueEnum) take() bool {
	if e.shared != nil {
		if e.shared.Add(-1) < 0 {
			e.exhausted = true
			return false
		}
		return true
	}
	if e.budget <= 0 {
		e.exhausted = true
		return false
	}
	e.budget--
	return true
}

// componentCtx builds the dense local id space and bitset adjacency
// matrix for one connected component, making the Bron-Kerbosch set
// operations word-parallel. The rows are read-only during enumeration,
// so parallel subtasks share them safely.
func componentCtx(g *Graph, comp []int32) (adj []bitset) {
	m := len(comp)
	adj = make([]bitset, m)
	for i, u := range comp {
		row := newBitset(m)
		nbrs, _ := g.Neighbors(u)
		for _, v := range nbrs {
			// comp is sorted and closed under adjacency, so v's local
			// id is its position in comp.
			local, _ := slices.BinarySearch(comp, v)
			row.set(int32(local))
		}
		adj[i] = row
	}
	return adj
}

func (e *cliqueEnum) runComponent(g *Graph, comp []int32) {
	m := len(comp)
	e.global = comp
	e.adj = componentCtx(g, comp)
	p := newBitset(m)
	for i := 0; i < m; i++ {
		p.set(int32(i))
	}
	e.expand(nil, p, newBitset(m))
}

// expand is Bron-Kerbosch with pivoting over bitsets: r is the growing
// clique (local ids), p the candidates, x the excluded set.
func (e *cliqueEnum) expand(r []int32, p, x bitset) {
	if !e.take() {
		return
	}
	if p.empty() && x.empty() {
		clique := make([]int32, len(r))
		for i, v := range r {
			clique[i] = e.global[v]
		}
		sort.Slice(clique, func(i, j int) bool { return clique[i] < clique[j] })
		e.out = append(e.out, clique)
		return
	}
	// Pivot: the vertex of p ∪ x with the most neighbors in p; only
	// candidates outside the pivot's neighborhood are expanded.
	pivot, _ := pivotOf(p, x, e.adj)

	cands := newBitset(len(p) * 64)
	cands.andNot(p, e.adj[pivot])
	scratch := newBitset(len(p) * 64)
	cands.forEach(func(v int32) bool {
		if e.exhausted {
			return false
		}
		scratch.intersect(p, e.adj[v])
		newP := scratch.clone()
		scratch.intersect(x, e.adj[v])
		newX := scratch.clone()
		e.expand(append(r, v), newP, newX)
		p.clear(v)
		x.set(v)
		return true
	})
}

// pivotOf returns the vertex of p ∪ x with the most neighbors in p.
func pivotOf(p, x bitset, adj []bitset) (pivot int32, count int) {
	pivot, count = -1, -1
	consider := func(u int32) bool {
		if c := intersectionCount(p, adj[u]); c > count {
			count = c
			pivot = u
		}
		return true
	}
	p.forEach(consider)
	x.forEach(consider)
	return pivot, count
}

// cliqueTask is one root-level Bron-Kerbosch subtree: a candidate branch
// of the top-level pivot with its candidate/exclusion snapshots. Tasks
// are independent — their bitsets are private copies and the shared adj
// rows are read-only.
type cliqueTask struct {
	global []int32
	adj    []bitset
	r      []int32
	p, x   bitset
}

// parallelCliques splits enumeration at the top-level pivot branches of
// every component and runs the subtrees on a worker pool. The subtask
// snapshots are derived sequentially in the same candidate order the
// serial code iterates, so together they cover exactly the serial
// recursion's root branches. Besides the result it reports the number
// of subtasks spawned and the budget steps consumed, for metrics.
func (g *Graph) parallelCliques(budget int, includeSingletons bool, workers int, comps [][]int32) (CliqueResult, int, int64) {
	shared := new(atomic.Int64)
	shared.Store(int64(budget))

	var out [][]int32
	var tasks []cliqueTask
	for _, comp := range comps {
		if len(comp) == 1 {
			if includeSingletons {
				out = append(out, []int32{comp[0]})
			}
			continue
		}
		m := len(comp)
		adj := componentCtx(g, comp)
		p := newBitset(m)
		for i := 0; i < m; i++ {
			p.set(int32(i))
		}
		x := newBitset(m)
		// One budget step per component root, mirroring the serial root
		// expand call.
		shared.Add(-1)
		pivot, _ := pivotOf(p, x, adj)
		cands := newBitset(m)
		cands.andNot(p, adj[pivot])
		scratch := newBitset(m)
		cands.forEach(func(v int32) bool {
			scratch.intersect(p, adj[v])
			newP := scratch.clone()
			scratch.intersect(x, adj[v])
			newX := scratch.clone()
			tasks = append(tasks, cliqueTask{comp, adj, []int32{v}, newP, newX})
			p.clear(v)
			x.set(v)
			return true
		})
	}

	outs := make([][][]int32, len(tasks))
	var exhausted atomic.Bool
	if workers > len(tasks) {
		workers = len(tasks)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				t := tasks[i]
				e := &cliqueEnum{shared: shared, global: t.global, adj: t.adj}
				e.expand(t.r, t.p, t.x)
				outs[i] = e.out
				if e.exhausted {
					exhausted.Store(true)
				}
			}
		}()
	}
	for i := range tasks {
		idx <- i
	}
	close(idx)
	wg.Wait()

	for _, o := range outs {
		out = append(out, o...)
	}
	// Remaining budget clamps at zero: exhaustion can drive the shared
	// counter negative by up to one step per worker.
	remaining := shared.Load()
	if remaining < 0 {
		remaining = 0
	}
	return CliqueResult{Cliques: out, Truncated: exhausted.Load()}, len(tasks), int64(budget) - remaining
}

// GreedyCliquePartition partitions the nodes of g into disjoint cliques:
// repeatedly seed a clique with the highest-degree unassigned node and
// greedily add mutually adjacent unassigned neighbors in descending
// edge-weight order. This is the non-overlapping working-set definition;
// the allocator's reporting uses it because a partition gives each
// branch exactly one home set. Only nodes with at least one edge join
// non-trivial cliques when includeSingletons is false.
func (g *Graph) GreedyCliquePartition(includeSingletons bool) [][]int32 {
	n := g.N()
	assigned := make([]bool, n)

	// Seed order: descending degree, ties by id, for determinism.
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool {
		di, dj := g.Degree(order[i]), g.Degree(order[j])
		if di != dj {
			return di > dj
		}
		return order[i] < order[j]
	})

	var out [][]int32
	for _, seed := range order {
		if assigned[seed] {
			continue
		}
		if g.Degree(seed) == 0 {
			assigned[seed] = true
			if includeSingletons {
				out = append(out, []int32{seed})
			}
			continue
		}
		clique := []int32{seed}
		assigned[seed] = true

		// Candidates: unassigned neighbors of the seed, heaviest first.
		type cand struct {
			v int32
			w uint64
		}
		cands := make([]cand, 0, g.Degree(seed))
		nbrs, wts := g.Neighbors(seed)
		for i, v := range nbrs {
			if !assigned[v] {
				cands = append(cands, cand{v, wts[i]})
			}
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].w != cands[j].w {
				return cands[i].w > cands[j].w
			}
			return cands[i].v < cands[j].v
		})
		for _, c := range cands {
			if assigned[c.v] {
				continue
			}
			ok := true
			for _, u := range clique {
				if !g.HasEdge(c.v, u) {
					ok = false
					break
				}
			}
			if ok {
				clique = append(clique, c.v)
				assigned[c.v] = true
			}
		}
		sort.Slice(clique, func(i, j int) bool { return clique[i] < clique[j] })
		out = append(out, clique)
	}
	return out
}
