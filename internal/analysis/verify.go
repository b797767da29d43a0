// Package analysis provides runtime verifiers for the pipeline's three
// structural artifacts — the pruned branch conflict graph, the extracted
// working sets, and the branch allocation. Each verifier machine-checks
// the invariants the paper's definitions impose, so a structural bug
// (asymmetric edge accumulation, a non-clique "working set", an
// allocation that gratuitously shares a BHT entry) fails loudly instead
// of quietly skewing Table 2 or the Section 5 miss rates.
//
// The verifiers are pure checks: they never mutate their inputs. They
// run from the harness and the CLIs behind a -check flag, and from
// tests. The Corrupt* helpers seed one representative violation per
// artifact for negative testing (and the CLIs' -corrupt flags).
package analysis

import (
	"fmt"

	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/profile"
)

// VerifyGraph checks the structural invariants of a pruned conflict
// graph (paper Section 4.1-4.2):
//
//   - rows: every node's neighbors are strictly ascending, which the
//     graph's binary-searched lookups rely on;
//   - symmetry: the graph is undirected, so Weight(u,v) == Weight(v,u);
//   - no self-loops: a branch does not conflict with itself;
//   - pruning: every surviving edge weight is >= threshold.
func VerifyGraph(g *graph.Graph, threshold uint64) error {
	if g == nil {
		return fmt.Errorf("analysis: nil graph")
	}
	for u := 0; u < g.N(); u++ {
		nbrs, wts := g.Neighbors(int32(u))
		for i, v := range nbrs {
			w := wts[i]
			if i > 0 && nbrs[i-1] >= v {
				return fmt.Errorf("analysis: node %d neighbors not strictly ascending at %d", u, v)
			}
			if v == int32(u) {
				return fmt.Errorf("analysis: graph has self-loop at node %d (weight %d)", u, w)
			}
			if int(v) < 0 || int(v) >= g.N() {
				return fmt.Errorf("analysis: edge {%d,%d} endpoint outside graph of %d nodes", u, v, g.N())
			}
			if back := g.Weight(v, int32(u)); back != w {
				return fmt.Errorf("analysis: asymmetric edge {%d,%d}: weight %d forward, %d backward", u, v, w, back)
			}
			if w < threshold {
				return fmt.Errorf("analysis: edge {%d,%d} weight %d below pruning threshold %d", u, v, w, threshold)
			}
		}
	}
	return nil
}

// VerifyWorkingSets checks that an analysis result's working sets match
// the paper's definition against the result's own pruned graph
// (Section 4.1: a working set is a completely interconnected subgraph):
//
//   - membership: ids are in range, strictly ascending (sorted, no
//     duplicates);
//   - cliqueness: every pair of members shares a graph edge;
//   - exec weights: each set's ExecWeight equals the sum of its
//     members' dynamic execution counts;
//   - maximality (MaximalCliques definition, enumeration not
//     truncated): no outside branch conflicts with every member;
//   - disjointness (GreedyPartition definition): no branch appears in
//     two sets.
func VerifyWorkingSets(res *core.AnalysisResult) error {
	if res == nil {
		return fmt.Errorf("analysis: nil analysis result")
	}
	g := res.Graph
	seen := make(map[int32]int, len(res.Sets))
	for i, ws := range res.Sets {
		if len(ws.Branches) == 0 {
			return fmt.Errorf("analysis: working set %d is empty", i)
		}
		var wantWeight uint64
		for j, id := range ws.Branches {
			if int(id) < 0 || int(id) >= g.N() {
				return fmt.Errorf("analysis: working set %d member %d outside graph of %d nodes", i, id, g.N())
			}
			if j > 0 && ws.Branches[j-1] >= id {
				return fmt.Errorf("analysis: working set %d members not strictly ascending at %d", i, id)
			}
			wantWeight += res.Profile.Exec[id]
			if res.Config.Definition == core.GreedyPartition {
				if prev, dup := seen[id]; dup {
					return fmt.Errorf("analysis: partition sets %d and %d both contain branch %d", prev, i, id)
				}
				seen[id] = i
			}
		}
		if ws.ExecWeight != wantWeight {
			return fmt.Errorf("analysis: working set %d exec weight %d, members sum to %d", i, ws.ExecWeight, wantWeight)
		}
		for a := 0; a < len(ws.Branches); a++ {
			for b := a + 1; b < len(ws.Branches); b++ {
				if !g.HasEdge(ws.Branches[a], ws.Branches[b]) {
					return fmt.Errorf("analysis: working set %d is not a clique: no edge {%d,%d}",
						i, ws.Branches[a], ws.Branches[b])
				}
			}
		}
		if res.Config.Definition == core.MaximalCliques && !res.Truncated && len(ws.Branches) > 1 {
			if v, ok := extendsClique(g, ws.Branches); ok {
				return fmt.Errorf("analysis: working set %d is not maximal: branch %d conflicts with every member", i, v)
			}
		}
	}
	return nil
}

// extendsClique reports a node outside members adjacent to all of them.
func extendsClique(g *graph.Graph, members []int32) (int32, bool) {
	inSet := make(map[int32]bool, len(members))
	for _, id := range members {
		inSet[id] = true
	}
	nbrs, _ := g.Neighbors(members[0])
	for _, v := range nbrs {
		if inSet[v] {
			continue
		}
		all := true
		for _, id := range members[1:] {
			if !g.HasEdge(v, id) {
				all = false
				break
			}
		}
		if all {
			return v, true
		}
	}
	return 0, false
}

// VerifyAllocation checks a branch allocation against the Section 5
// invariants:
//
//   - completeness: every profiled branch has an entry, and every
//     entry index is in [0, TableSize);
//   - reserved entries (classification runs): biased-taken branches
//     map to the reserved taken entry, biased-not-taken branches to the
//     reserved not-taken entry, and mixed branches to neither;
//   - conflict minimization: two conflicting branches share an entry
//     only under the overflow rule — at least one endpoint's neighbors
//     occupy every entry it was allowed to take, so a conflict-free
//     entry did not exist for it.
//
// The conflict check runs against a.Graph, the graph the allocator
// colored (after classification's same-class edge removal).
func VerifyAllocation(p *profile.Profile, a *core.Allocation) error {
	if p == nil || a == nil || a.Map == nil {
		return fmt.Errorf("analysis: nil profile or allocation")
	}
	m := a.Map
	if m.TableSize < 1 {
		return fmt.Errorf("analysis: allocation table size %d", m.TableSize)
	}

	colors := make([]int, p.NumBranches())
	for id, pc := range p.PCs {
		entry, ok := m.Index[pc]
		if !ok {
			return fmt.Errorf("analysis: profiled branch %d (pc %#x) has no allocation entry", id, pc)
		}
		if entry < 0 || entry >= m.TableSize {
			return fmt.Errorf("analysis: branch %d (pc %#x) entry %d outside table of %d", id, pc, entry, m.TableSize)
		}
		colors[id] = entry
	}

	firstFree := 0
	if a.Classification != nil {
		if m.ReservedTaken < 0 || m.ReservedNotTaken < 0 || m.ReservedTaken == m.ReservedNotTaken {
			return fmt.Errorf("analysis: classification used but reserved entries are %d/%d",
				m.ReservedTaken, m.ReservedNotTaken)
		}
		firstFree = 2
		for id, cl := range a.Classification.Classes {
			switch cl {
			case classify.BiasedTaken:
				if colors[id] != m.ReservedTaken {
					return fmt.Errorf("analysis: biased-taken branch %d in entry %d, not reserved entry %d",
						id, colors[id], m.ReservedTaken)
				}
			case classify.BiasedNotTaken:
				if colors[id] != m.ReservedNotTaken {
					return fmt.Errorf("analysis: biased-not-taken branch %d in entry %d, not reserved entry %d",
						id, colors[id], m.ReservedNotTaken)
				}
			default:
				if colors[id] == m.ReservedTaken || colors[id] == m.ReservedNotTaken {
					return fmt.Errorf("analysis: mixed branch %d mapped to reserved entry %d", id, colors[id])
				}
			}
		}
	}

	g := a.Graph
	for u := 0; u < g.N() && u < len(colors); u++ {
		nbrs, _ := g.Neighbors(int32(u))
		for _, v := range nbrs {
			if int32(u) >= v || colors[u] != colors[v] {
				continue
			}
			if a.Classification != nil && a.Classification.Classes[u] != classify.Mixed {
				// Reserved-entry sharing between same-class biased
				// branches is the design, not an overflow; cross-class
				// conflicts were caught above.
				continue
			}
			if !entrySaturated(g, colors, int32(u), firstFree, m.TableSize) &&
				!entrySaturated(g, colors, v, firstFree, m.TableSize) {
				return fmt.Errorf(
					"analysis: conflicting branches %d and %d share entry %d though a conflict-free entry existed for both",
					u, v, colors[u])
			}
		}
	}
	return nil
}

// entrySaturated reports whether u's neighbors occupy every entry u was
// allowed to take — the overflow condition under which the allocator is
// permitted to share (Section 5.1: "branches with the fewest conflicts
// ... map to the same location").
func entrySaturated(g *graph.Graph, colors []int, u int32, firstFree, tableSize int) bool {
	used := make(map[int]bool)
	nbrs, _ := g.Neighbors(u)
	for _, v := range nbrs {
		used[colors[v]] = true
	}
	for c := firstFree; c < tableSize; c++ {
		if !used[c] {
			return false
		}
	}
	return true
}
