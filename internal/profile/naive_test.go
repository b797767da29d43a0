package profile

import (
	"sort"

	"repro/internal/graph"
)

// NaiveProfiler is the literal time-stamp formulation from the paper's
// Figure 1: every branch keeps its last time stamp; on each dynamic
// instance of branch A, every branch whose stamp exceeds A's previous
// stamp is an interleaving partner. It is O(static branches) per event
// and is the reference the tests cross-validate Profiler against.
//
// A positive window keeps only the window partners with the latest
// stamps — the most recently executed distinct branches, which is what
// WithWindow clips the recency scan to. Streams fed with a strictly
// increasing icount give every branch a distinct stamp, so the clip is
// unambiguous.
type NaiveProfiler struct {
	benchmark string
	inputSet  string
	window    int

	idOf  map[uint64]int32 // ids in first-touch order, as Profiler assigns them
	pcs   []uint64
	exec  []uint64
	taken []uint64

	stamp []uint64 // last time stamp per id
	seen  []bool   // id has executed at least once

	pairs        map[uint64]uint64 // PairKey -> interleave count
	instructions uint64
}

// NewNaiveProfiler returns the reference profiler.
func NewNaiveProfiler(benchmark, inputSet string) *NaiveProfiler {
	return &NaiveProfiler{
		benchmark: benchmark,
		inputSet:  inputSet,
		idOf:      make(map[uint64]int32),
		pairs:     make(map[uint64]uint64),
	}
}

// Branch consumes one dynamic branch event.
func (p *NaiveProfiler) Branch(pc uint64, taken bool, icount uint64) {
	id, ok := p.idOf[pc]
	if !ok {
		id = int32(len(p.pcs))
		p.idOf[pc] = id
		p.pcs = append(p.pcs, pc)
		p.exec = append(p.exec, 0)
		p.taken = append(p.taken, 0)
		p.stamp = append(p.stamp, 0)
		p.seen = append(p.seen, false)
	}
	p.exec[id]++
	if taken {
		p.taken[id]++
	}
	if icount >= p.instructions {
		p.instructions = icount + 1
	}

	if p.seen[id] {
		prev := p.stamp[id]
		var partners []int32
		for other := range p.stamp {
			o := int32(other)
			if o != id && p.seen[o] && p.stamp[o] > prev {
				partners = append(partners, o)
			}
		}
		if p.window > 0 && len(partners) > p.window {
			sort.Slice(partners, func(i, j int) bool { return p.stamp[partners[i]] > p.stamp[partners[j]] })
			partners = partners[:p.window]
		}
		for _, o := range partners {
			p.pairs[PairKey(id, o)]++
		}
	}
	p.stamp[id] = icount
	p.seen[id] = true
}

// Profile extracts the accumulated profile.
func (p *NaiveProfiler) Profile() *Profile {
	pairs := make([]graph.Pair, 0, len(p.pairs))
	for k, w := range p.pairs {
		a, b := UnpackPair(k)
		pairs = append(pairs, graph.Pair{U: a, V: b, W: w})
	}
	return &Profile{
		Benchmark:    p.benchmark,
		InputSets:    []string{p.inputSet},
		Instructions: p.instructions,
		PCs:          append([]uint64(nil), p.pcs...),
		Exec:         append([]uint64(nil), p.exec...),
		Taken:        append([]uint64(nil), p.taken...),
		Pairs:        graph.FromPairs(len(p.pcs), pairs),
	}
}
