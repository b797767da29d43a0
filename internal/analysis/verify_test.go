package analysis

import (
	"strings"
	"testing"

	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/profile"
)

// syntheticProfile builds a small hand-constructed profile: branches
// 0-2 form a triangle of heavy conflicts (a 3-clique working set),
// branch 3 conflicts with branch 0 only, branch 4 is isolated. Branch 1
// is biased taken, branch 2 biased not-taken, the rest mixed.
func syntheticProfile() *profile.Profile {
	p := &profile.Profile{
		Benchmark: "synthetic",
		InputSets: []string{"test"},
		PCs:       []uint64{0x100, 0x104, 0x108, 0x10c, 0x110},
		Exec:      []uint64{1000, 900, 800, 700, 50},
		Taken:     []uint64{500, 899, 2, 350, 25},
		Pairs: graph.FromPairs(5, []graph.Pair{
			{U: 0, V: 1, W: 500},
			{U: 0, V: 2, W: 400},
			{U: 1, V: 2, W: 300},
			{U: 0, V: 3, W: 200},
			{U: 2, V: 4, W: 5}, // below threshold, pruned away
		}),
	}
	return p
}

const testThreshold = 100

func analyze(t *testing.T, def core.SetDefinition) *core.AnalysisResult {
	t.Helper()
	res, err := core.Analyze(syntheticProfile(), core.AnalysisConfig{
		Threshold:  testThreshold,
		Definition: def,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestVerifyGraphAccepts(t *testing.T) {
	res := analyze(t, core.MaximalCliques)
	if err := VerifyGraph(res.Graph, testThreshold); err != nil {
		t.Fatalf("valid graph rejected: %v", err)
	}
}

func TestVerifyGraphRejectsCorruption(t *testing.T) {
	res := analyze(t, core.MaximalCliques)
	bad, desc, err := CorruptGraph(res.Graph, testThreshold)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyGraph(res.Graph, testThreshold); err != nil {
		t.Fatalf("corruption changed the original graph: %v", err)
	}
	if err := VerifyGraph(bad, testThreshold); err == nil {
		t.Fatalf("corrupted graph (%s) accepted", desc)
	} else if !strings.Contains(err.Error(), "below pruning threshold") {
		t.Fatalf("wrong rejection: %v", err)
	}
}

func TestVerifyGraphRejectsSelfLoopAndRange(t *testing.T) {
	g := graph.FromPairs(2, []graph.Pair{{U: 0, V: 1, W: 2 * testThreshold}})
	if err := VerifyGraph(g, testThreshold); err != nil {
		t.Fatalf("valid graph rejected: %v", err)
	}
	if err := VerifyGraph(g, 3*testThreshold); err == nil {
		t.Fatal("under-threshold edge accepted at higher threshold")
	}
}

func TestVerifyWorkingSetsAccepts(t *testing.T) {
	for _, def := range []core.SetDefinition{core.MaximalCliques, core.GreedyPartition} {
		res := analyze(t, def)
		if res.NumSets() == 0 {
			t.Fatalf("%v: no working sets extracted", def)
		}
		if err := VerifyWorkingSets(res); err != nil {
			t.Fatalf("%v: valid working sets rejected: %v", def, err)
		}
	}
}

func TestVerifyWorkingSetsRejectsCorruption(t *testing.T) {
	res := analyze(t, core.MaximalCliques)
	desc, err := CorruptWorkingSets(res)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyWorkingSets(res); err == nil {
		t.Fatalf("corrupted working sets (%s) accepted", desc)
	}
}

func TestVerifyWorkingSetsRejectsNonClique(t *testing.T) {
	res := analyze(t, core.MaximalCliques)
	// Branch 4 is isolated: gluing it onto any set breaks cliqueness.
	res.Sets[0].Branches = append(res.Sets[0].Branches, 4)
	res.Sets[0].ExecWeight += res.Profile.Exec[4]
	if err := VerifyWorkingSets(res); err == nil {
		t.Fatal("non-clique working set accepted")
	} else if !strings.Contains(err.Error(), "not a clique") {
		t.Fatalf("wrong rejection: %v", err)
	}
}

func TestVerifyWorkingSetsRejectsNonMaximal(t *testing.T) {
	res := analyze(t, core.MaximalCliques)
	// Dropping one member of the triangle {0,1,2} leaves a 2-clique the
	// dropped branch still extends.
	var triangle *core.WorkingSet
	for i := range res.Sets {
		if len(res.Sets[i].Branches) == 3 {
			triangle = &res.Sets[i]
		}
	}
	if triangle == nil {
		t.Fatal("expected a 3-branch working set")
	}
	dropped := triangle.Branches[2]
	triangle.Branches = triangle.Branches[:2]
	triangle.ExecWeight -= res.Profile.Exec[dropped]
	if err := VerifyWorkingSets(res); err == nil {
		t.Fatal("non-maximal working set accepted")
	} else if !strings.Contains(err.Error(), "not maximal") {
		t.Fatalf("wrong rejection: %v", err)
	}
}

func TestVerifyWorkingSetsRejectsWrongWeight(t *testing.T) {
	res := analyze(t, core.MaximalCliques)
	res.Sets[0].ExecWeight++
	if err := VerifyWorkingSets(res); err == nil {
		t.Fatal("wrong exec weight accepted")
	}
}

func allocate(t *testing.T, useClass bool, size int) (*profile.Profile, *core.Allocation) {
	t.Helper()
	p := syntheticProfile()
	a, err := core.Allocate(p, core.AllocationConfig{
		TableSize:         size,
		Threshold:         testThreshold,
		UseClassification: useClass,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p, a
}

func TestVerifyAllocationAccepts(t *testing.T) {
	for _, useClass := range []bool{false, true} {
		// Size 4 forces sharing on the classified run (2 reserved + 2
		// free for 3 mixed branches); size 8 is conflict-free.
		for _, size := range []int{4, 8} {
			p, a := allocate(t, useClass, size)
			if err := VerifyAllocation(p, a); err != nil {
				t.Fatalf("classify=%v size=%d: valid allocation rejected: %v", useClass, size, err)
			}
		}
	}
}

func TestVerifyAllocationRejectsCorruption(t *testing.T) {
	p, a := allocate(t, false, 8)
	desc, err := CorruptAllocation(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyAllocation(p, a); err == nil {
		t.Fatalf("corrupted allocation (%s) accepted", desc)
	} else if !strings.Contains(err.Error(), "outside table") {
		t.Fatalf("wrong rejection: %v", err)
	}
}

func TestVerifyAllocationRejectsGratuitousSharing(t *testing.T) {
	p, a := allocate(t, false, 8)
	// Branches 0 and 1 conflict; with 8 entries for 5 branches neither
	// endpoint is saturated, so forcing them together must be rejected.
	a.Map.Index[p.PCs[1]] = a.Map.Index[p.PCs[0]]
	if err := VerifyAllocation(p, a); err == nil {
		t.Fatal("gratuitous conflict sharing accepted")
	} else if !strings.Contains(err.Error(), "share entry") {
		t.Fatalf("wrong rejection: %v", err)
	}
}

func TestVerifyAllocationRejectsBrokenPinning(t *testing.T) {
	p, a := allocate(t, true, 8)
	// Branch 1 is biased taken: it must sit in the reserved entry.
	if got := a.Map.Index[p.PCs[1]]; got != a.Map.ReservedTaken {
		t.Fatalf("precondition: biased-taken branch in entry %d", got)
	}
	a.Map.Index[p.PCs[1]] = a.Map.TableSize - 1
	if err := VerifyAllocation(p, a); err == nil {
		t.Fatal("mis-pinned biased branch accepted")
	}

	// A mixed branch moved onto a reserved entry is also rejected.
	p2, a2 := allocate(t, true, 8)
	a2.Map.Index[p2.PCs[0]] = a2.Map.ReservedNotTaken
	if err := VerifyAllocation(p2, a2); err == nil {
		t.Fatal("mixed branch on reserved entry accepted")
	}
}

func TestVerifyAllocationRejectsMissingBranch(t *testing.T) {
	p, a := allocate(t, false, 8)
	delete(a.Map.Index, p.PCs[3])
	if err := VerifyAllocation(p, a); err == nil {
		t.Fatal("allocation missing a profiled branch accepted")
	}
}

func TestClassifiedSyntheticClasses(t *testing.T) {
	// Guard the fixture's assumptions so the pinning tests stay honest.
	p := syntheticProfile()
	cls := classify.Classify(p, classify.Default())
	want := []classify.Class{classify.Mixed, classify.BiasedTaken, classify.BiasedNotTaken, classify.Mixed, classify.Mixed}
	for id, w := range want {
		if cls.Classes[id] != w {
			t.Fatalf("branch %d classified %v, want %v", id, cls.Classes[id], w)
		}
	}
}
