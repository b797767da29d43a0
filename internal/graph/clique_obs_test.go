package graph

import (
	"slices"
	"testing"

	"repro/internal/obs"
)

// obsGraph builds two planted cliques plus a singleton — 2 maximal
// cliques, deterministic enumeration effort.
func obsGraph() *Graph {
	g := FromPairs(8, slices.Concat(clique(5, 0, 1, 2, 3), clique(5, 4, 5, 6)))
	return g
}

// TestCliqueMetricsRecorded checks the enumeration-effort counters for
// a known graph: clique and truncation counts are exact, steps
// positive, and the enumerated result itself is unaffected by
// recording.
func TestCliqueMetricsRecorded(t *testing.T) {
	reg := obs.NewRegistry()
	m := obs.New(reg).Clique()
	res := obsGraph().MaximalCliquesObs(0, false, m)
	if res.Truncated {
		t.Fatal("tiny graph truncated")
	}
	if len(res.Cliques) != 2 {
		t.Fatalf("got %d cliques, want 2", len(res.Cliques))
	}
	if got := reg.Counter("wsd_clique_cliques_total").Value(); got != 2 {
		t.Errorf("cliques counter = %d, want 2", got)
	}
	if got := reg.Counter("wsd_clique_steps_total").Value(); got == 0 {
		t.Error("no enumeration steps recorded")
	}
	if got := reg.Counter("wsd_clique_truncations_total").Value(); got != 0 {
		t.Errorf("spurious truncation recorded (%d)", got)
	}

	// Recording must not change the result: compare against the
	// unobserved enumeration.
	if plain := obsGraph().MaximalCliques(0, false); !slices.EqualFunc(plain.Cliques, res.Cliques, slices.Equal) {
		t.Error("observed enumeration differs from plain")
	}
}

// TestCliqueMetricsTruncation starves the budget and checks the
// truncation counter fires and the steps stay within the budget.
func TestCliqueMetricsTruncation(t *testing.T) {
	reg := obs.NewRegistry()
	m := obs.New(reg).Clique()
	res := obsGraph().MaximalCliquesObs(1, false, m)
	if !res.Truncated {
		t.Fatal("budget 1 did not truncate")
	}
	if got := reg.Counter("wsd_clique_truncations_total").Value(); got != 1 {
		t.Errorf("truncations = %d, want 1", got)
	}
	// The recorded step count can never exceed the budget handed in.
	if got := reg.Counter("wsd_clique_steps_total").Value(); got > 1 {
		t.Errorf("steps = %d exceed budget 1", got)
	}
}

// TestCliqueTruncationDeterministic pins what serial enumeration buys:
// a starved budget stops at the same step every time, so two calls
// return identical Cliques and Truncated, and what they return is a
// non-empty subset of the full enumeration.
func TestCliqueTruncationDeterministic(t *testing.T) {
	g := FromPairs(12, slices.Concat(clique(5, 0, 1, 2, 3), clique(5, 3, 4, 5), clique(5, 6, 7, 8), clique(5, 9, 10, 11)))
	full := g.MaximalCliques(0, false)
	first := g.MaximalCliques(6, false)
	second := g.MaximalCliques(6, false)
	if !first.Truncated || !second.Truncated {
		t.Fatalf("budget 6 did not truncate (full run finds %d cliques)", len(full.Cliques))
	}
	if !slices.EqualFunc(first.Cliques, second.Cliques, slices.Equal) {
		t.Fatalf("truncated enumerations differ: %v vs %v", first.Cliques, second.Cliques)
	}
	if len(first.Cliques) == 0 || len(first.Cliques) >= len(full.Cliques) {
		t.Fatalf("truncated run found %d of %d cliques, want a proper non-empty subset", len(first.Cliques), len(full.Cliques))
	}
	for _, c := range first.Cliques {
		if !slices.ContainsFunc(full.Cliques, func(f []int32) bool { return slices.Equal(f, c) }) {
			t.Errorf("truncated clique %v is not in the full enumeration", c)
		}
	}
}
