package core

import (
	"testing"

	"repro/internal/classify"
)

func TestAnalyzeGroupedCollapsesBiased(t *testing.T) {
	// 6 branches: 0,1,2 biased-taken, 3 biased-not-taken, 4,5 mixed;
	// everything conflicts with everything.
	branches := [][2]uint64{
		{1000, 1000}, {1000, 999}, {1000, 998},
		{1000, 0},
		{1000, 500}, {1000, 500},
	}
	p := buildProfile(branches, cliquePairs(500, 0, 1, 2, 3, 4, 5))
	res, err := AnalyzeGrouped(p, AnalysisConfig{}, classify.Default())
	if err != nil {
		t.Fatal(err)
	}
	// Groups: taken supernode, not-taken supernode, 2 mixed = 4 nodes.
	if res.NumGroups() != 4 {
		t.Fatalf("groups = %d, want 4", res.NumGroups())
	}
	if res.TakenGroup == -1 || res.NotTakenGroup == -1 {
		t.Fatal("biased groups missing")
	}
	if len(res.Members[res.TakenGroup]) != 3 {
		t.Fatalf("taken group members = %d, want 3", len(res.Members[res.TakenGroup]))
	}
	if len(res.Members[res.NotTakenGroup]) != 1 {
		t.Fatalf("not-taken group members = %d, want 1", len(res.Members[res.NotTakenGroup]))
	}
	// The grouped graph is a clique of the 4 group nodes: one working
	// set of size 4 < the individual analysis's 6.
	if res.Analysis.NumSets() != 1 || res.Analysis.MaxSetSize() != 4 {
		t.Fatalf("grouped sets %d max %d, want 1 set of 4",
			res.Analysis.NumSets(), res.Analysis.MaxSetSize())
	}
	ind, err := Analyze(p, AnalysisConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if ind.MaxSetSize() != 6 {
		t.Fatalf("individual max set %d, want 6", ind.MaxSetSize())
	}
}

func TestAnalyzeGroupedDropsIntraGroupEdges(t *testing.T) {
	// Two biased-taken branches conflicting only with each other: the
	// group has no external edges, so no working set survives.
	branches := [][2]uint64{{1000, 1000}, {1000, 999}}
	p := buildProfile(branches, cliquePairs(500, 0, 1))
	res, err := AnalyzeGrouped(p, AnalysisConfig{}, classify.Default())
	if err != nil {
		t.Fatal(err)
	}
	if res.Analysis.Graph.NumEdges() != 0 {
		t.Fatalf("intra-group edges survived: %d", res.Analysis.Graph.NumEdges())
	}
	if res.Analysis.NumSets() != 0 {
		t.Fatalf("sets = %d, want 0", res.Analysis.NumSets())
	}
}

func TestAnalyzeGroupedEdgeWeightsAccumulate(t *testing.T) {
	// Two biased-taken branches each conflicting with one mixed branch:
	// the group-to-mixed edge accumulates both weights.
	branches := [][2]uint64{
		{1000, 1000}, {1000, 999}, {1000, 500},
	}
	pairs := [][3]uint64{{0, 2, 300}, {1, 2, 400}}
	p := buildProfile(branches, pairs)
	res, err := AnalyzeGrouped(p, AnalysisConfig{}, classify.Default())
	if err != nil {
		t.Fatal(err)
	}
	mixedGroup := int32(-1)
	for g, m := range res.Members {
		if len(m) == 1 && m[0] == 2 {
			mixedGroup = int32(g)
		}
	}
	if mixedGroup == -1 {
		t.Fatal("mixed group not found")
	}
	if w := res.Analysis.Graph.Weight(res.TakenGroup, mixedGroup); w != 700 {
		t.Fatalf("accumulated weight %d, want 700", w)
	}
}

func TestAnalyzeGroupedAllMixedEqualsIndividual(t *testing.T) {
	// With no biased branches, grouping is the identity analysis.
	p := buildProfile(mixed(5, 1000), cliquePairs(500, 0, 1, 2, 3, 4))
	grp, err := AnalyzeGrouped(p, AnalysisConfig{}, classify.Default())
	if err != nil {
		t.Fatal(err)
	}
	ind, err := Analyze(p, AnalysisConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if grp.Analysis.NumSets() != ind.NumSets() || grp.Analysis.MaxSetSize() != ind.MaxSetSize() {
		t.Fatalf("grouped (%d sets, max %d) != individual (%d sets, max %d)",
			grp.Analysis.NumSets(), grp.Analysis.MaxSetSize(), ind.NumSets(), ind.MaxSetSize())
	}
	if grp.TakenGroup != -1 || grp.NotTakenGroup != -1 {
		t.Fatal("phantom biased groups created")
	}
}

func TestAnalyzeGroupedNilProfile(t *testing.T) {
	if _, err := AnalyzeGrouped(nil, AnalysisConfig{}, classify.Default()); err == nil {
		t.Fatal("nil profile accepted")
	}
}

func TestAnalyzeGroupedMemberPartition(t *testing.T) {
	branches := [][2]uint64{
		{1000, 1000}, {1000, 0}, {1000, 500}, {1000, 999}, {1000, 400},
	}
	p := buildProfile(branches, cliquePairs(200, 0, 1, 2, 3, 4))
	res, err := AnalyzeGrouped(p, AnalysisConfig{}, classify.Default())
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int32]bool)
	total := 0
	for _, m := range res.Members {
		for _, id := range m {
			if seen[id] {
				t.Fatal("branch in two groups")
			}
			seen[id] = true
			total++
		}
	}
	if total != p.NumBranches() {
		t.Fatalf("members cover %d of %d", total, p.NumBranches())
	}
}

func TestAnalyzeGroupedDefinitions(t *testing.T) {
	// Two mixed cliques {0,1,2} and {2,3,4} sharing branch 2: the greedy
	// partition gives each branch one home set, so it cannot return both.
	branches := mixed(5, 1000)
	p := buildProfile(branches, append(cliquePairs(500, 0, 1, 2), cliquePairs(500, 2, 3, 4)...))
	greedy, err := AnalyzeGrouped(p, AnalysisConfig{Definition: GreedyPartition}, classify.Thresholds{})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int32]bool{}
	for _, ws := range greedy.Analysis.Sets {
		for _, g := range ws.Branches {
			if seen[g] {
				t.Fatalf("greedy partition repeats group %d: %v", g, greedy.Analysis.Sets)
			}
			seen[g] = true
		}
	}
	if _, err := AnalyzeGrouped(p, AnalysisConfig{Definition: SetDefinition(99)}, classify.Thresholds{}); err == nil {
		t.Fatal("unknown set definition accepted")
	}
}
