package graph_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/workload"
)

// TestColorMatchesOracleOnPreparedGraphs checks Color against the
// oracle on the graphs the allocator really colors: li's and gcc's
// pruned conflict graphs, plain and classified (with the biased
// branches pinned and FirstFree 2), at table sizes on both sides of
// the 64- and 128-color word boundaries up to the paper's baseline.
func TestColorMatchesOracleOnPreparedGraphs(t *testing.T) {
	s := harness.NewSuite(harness.Config{Scale: 0.1, Workers: 1})
	for _, name := range []string{"li", "gcc"} {
		a, err := s.Artifacts(name, workload.InputRef)
		if err != nil {
			t.Fatal(err)
		}
		for _, classified := range []bool{false, true} {
			pr, err := core.Prepare(a.Profile, core.AllocationConfig{UseClassification: classified})
			if err != nil {
				t.Fatal(err)
			}
			if pr.Graph.NumEdges() == 0 {
				t.Fatalf("%s: prepared graph has no edges", name)
			}
			for _, k := range []int{3, 16, 64, 65, 128, 513, 1024} {
				spec := pr.Spec(k)
				got, err := pr.Graph.Color(spec)
				if err != nil {
					t.Fatal(err)
				}
				want, err := graph.OracleColor(pr.Graph, spec)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got.Colors, want.Colors) {
					t.Errorf("%s classified=%v K=%d: Color and oracle disagree (%s)",
						name, classified, k, firstDiff(got.Colors, want.Colors))
				}
			}
		}
	}
}

func firstDiff(got, want []int) string {
	for u := range want {
		if got[u] != want[u] {
			return fmt.Sprintf("node %d: %d vs oracle %d", u, got[u], want[u])
		}
	}
	return "lengths differ"
}
