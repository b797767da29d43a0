package analysis

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
)

// The Corrupt* helpers each seed one representative invariant violation
// into an artifact, returning a description of what they broke. They
// exist for negative testing: the verifier unit tests and the CLIs'
// -corrupt flags use them to prove the -check path actually fails when
// an artifact is bad. They are never called from the pipeline itself.

// CorruptGraph returns a copy of g with a sub-threshold edge added
// between the first two nodes with no existing edge, violating the
// pruning invariant. Graphs are immutable, so callers swap the copy in
// where the original was.
func CorruptGraph(g *graph.Graph, threshold uint64) (*graph.Graph, string, error) {
	if threshold <= 1 {
		// Zero-weight pairs are discarded, so there is no representable
		// sub-threshold edge below threshold 1.
		return nil, "", fmt.Errorf("analysis: cannot corrupt below threshold %d", threshold)
	}
	for u := 0; u < g.N(); u++ {
		for v := u + 1; v < g.N(); v++ {
			if !g.HasEdge(int32(u), int32(v)) {
				pairs := []graph.Pair{{U: int32(u), V: int32(v), W: threshold - 1}}
				for a := int32(0); int(a) < g.N(); a++ {
					nbrs, wts := g.Neighbors(a)
					for i, b := range nbrs {
						if a < b {
							pairs = append(pairs, graph.Pair{U: a, V: b, W: wts[i]})
						}
					}
				}
				return graph.FromPairs(g.N(), pairs), fmt.Sprintf("added edge {%d,%d} with weight %d below threshold %d",
					u, v, threshold-1, threshold), nil
			}
		}
	}
	return nil, "", fmt.Errorf("analysis: graph too dense to corrupt (every pair connected)")
}

// CorruptWorkingSets duplicates the first member of the first non-empty
// working set, violating the strictly-ascending membership invariant.
func CorruptWorkingSets(res *core.AnalysisResult) (string, error) {
	for i := range res.Sets {
		ws := &res.Sets[i]
		if len(ws.Branches) == 0 {
			continue
		}
		id := ws.Branches[0]
		ws.Branches = append([]int32{id}, ws.Branches...)
		ws.ExecWeight += res.Profile.Exec[id]
		return fmt.Sprintf("duplicated branch %d in working set %d", id, i), nil
	}
	return "", fmt.Errorf("analysis: no working set to corrupt")
}

// CorruptAllocation moves the first allocated branch to an entry one
// past the end of the table, violating the index-range invariant.
func CorruptAllocation(a *core.Allocation) (string, error) {
	for _, pc := range a.Map.SortedPCs() {
		a.Map.Index[pc] = a.Map.TableSize
		return fmt.Sprintf("moved pc %#x to out-of-range entry %d", pc, a.Map.TableSize), nil
	}
	return "", fmt.Errorf("analysis: no allocated branch to corrupt")
}
