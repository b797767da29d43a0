// Package profile implements the first two steps of the paper's branch
// working set analysis (Section 4.1): identifying execution interleaving
// between conditional branches from time-stamped profile runs, and
// summarizing it as pairwise interleave counts — the edge weights of the
// branch conflict graph.
//
// The paper's formulation time-stamps every branch with the instruction
// count and, on each dynamic instance of branch A, scans for branches
// whose time stamp exceeds A's previous one. That scan is equivalent to
// reading the branches above A in a recency (move-to-front) stack:
// exactly the distinct branches executed since A last executed. The
// Profiler uses the stack form, whose cost per dynamic branch is the
// reuse distance instead of the static branch count; the package tests
// keep the literal time-stamp scan as a reference to cross-validate it.
package profile

import (
	"fmt"

	"repro/internal/graph"
)

// PairKey packs an unordered id pair into a map key. The smaller id
// occupies the high word so keys sort by first member.
func PairKey(a, b int32) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

// UnpackPair returns the ids packed by PairKey, smaller first.
func UnpackPair(k uint64) (int32, int32) {
	return int32(uint32(k >> 32)), int32(uint32(k))
}

// Profile is the summarized result of one or more profiling runs: the
// per-branch execution statistics and the pairwise interleave counts
// from which the conflict graph is built.
type Profile struct {
	// Benchmark and InputSets record provenance; InputSets has one
	// entry per merged run.
	Benchmark string
	InputSets []string
	// Instructions is the total instruction count across runs.
	Instructions uint64
	// PCs maps dense branch ids to static branch byte addresses.
	PCs []uint64
	// Exec[id] and Taken[id] count dynamic executions and taken
	// outcomes per static branch.
	Exec  []uint64
	Taken []uint64
	// Pairs is the unpruned conflict graph over dense ids: the weight
	// of edge {a, b} is the interleave count of branches a and b.
	Pairs *graph.Graph
}

// NumBranches returns the number of distinct static branches profiled.
func (p *Profile) NumBranches() int { return len(p.PCs) }

// DynamicBranches returns the total dynamic branch count.
func (p *Profile) DynamicBranches() uint64 {
	var total uint64
	for _, e := range p.Exec {
		total += e
	}
	return total
}

// TakenRate returns branch id's taken fraction.
func (p *Profile) TakenRate(id int32) float64 {
	if p.Exec[id] == 0 {
		return 0
	}
	return float64(p.Taken[id]) / float64(p.Exec[id])
}

// BuildGraph returns the branch conflict graph over dense ids, keeping
// only pairs whose interleave count is at least threshold (the paper's
// pruning step; threshold 100 in Section 4.2).
func (p *Profile) BuildGraph(threshold uint64) *graph.Graph {
	return p.Pairs.Filter(threshold, nil)
}

// Merge combines profiles of the same benchmark gathered from different
// input sets into one cumulative profile — the paper's remedy for
// profile/input mismatch (Section 5.2): "the branch conflict graphs of
// several profiles from different input data can be merged until the
// resulting graph indicates that most part of the program has been
// exercised."
func Merge(profiles ...*Profile) (*Profile, error) {
	if len(profiles) == 0 {
		return nil, fmt.Errorf("profile: merge of zero profiles")
	}
	out := &Profile{Benchmark: profiles[0].Benchmark}
	total := 0
	for _, p := range profiles {
		total += p.Pairs.NumEdges()
	}
	pairs := make([]graph.Pair, 0, total)
	// Dense ids differ across runs; remap through PCs.
	idOf := make(map[uint64]int32)
	intern := func(pc uint64) int32 {
		if id, ok := idOf[pc]; ok {
			return id
		}
		id := int32(len(out.PCs))
		idOf[pc] = id
		out.PCs = append(out.PCs, pc)
		out.Exec = append(out.Exec, 0)
		out.Taken = append(out.Taken, 0)
		return id
	}
	for _, p := range profiles {
		if p.Benchmark != out.Benchmark {
			return nil, fmt.Errorf("profile: merging different benchmarks %q and %q", out.Benchmark, p.Benchmark)
		}
		out.InputSets = append(out.InputSets, p.InputSets...)
		out.Instructions += p.Instructions
		remap := make([]int32, len(p.PCs))
		for id, pc := range p.PCs {
			remap[id] = intern(pc)
		}
		for id := range p.PCs {
			out.Exec[remap[id]] += p.Exec[id]
			out.Taken[remap[id]] += p.Taken[id]
		}
		for a := range p.PCs {
			nbrs, wts := p.Pairs.Neighbors(int32(a))
			for i, b := range nbrs {
				if int32(a) < b {
					pairs = append(pairs, graph.Pair{U: remap[a], V: remap[b], W: wts[i]})
				}
			}
		}
	}
	out.Pairs = graph.FromPairs(len(out.PCs), pairs)
	return out, nil
}
