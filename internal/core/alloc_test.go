package core

import (
	"errors"
	"maps"
	"sync"
	"testing"

	"repro/internal/classify"
)

func TestConventionalIndex(t *testing.T) {
	if ConventionalIndex(0, 16) != 0 {
		t.Fatal("pc 0")
	}
	if ConventionalIndex(4, 16) != 1 {
		t.Fatal("pc 4 -> word 1")
	}
	if ConventionalIndex(4*16, 16) != 0 {
		t.Fatal("wraparound")
	}
	if ConventionalIndex(4*17, 16) != 1 {
		t.Fatal("wraparound+1")
	}
}

func TestAllocateConflictFreeClique(t *testing.T) {
	// One clique of 4 with table size 8: conflict-free allocation must
	// exist and be found.
	p := buildProfile(mixed(4, 1000), cliquePairs(500, 0, 1, 2, 3))
	a, err := Allocate(p, AllocationConfig{TableSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if a.ConflictCost != 0 {
		t.Fatalf("conflict cost %d, want 0", a.ConflictCost)
	}
	entries := map[int]bool{}
	for _, pc := range a.Map.SortedPCs() {
		e := a.Map.EntryFor(pc)
		if entries[e] {
			t.Fatal("clique members share an entry despite space")
		}
		entries[e] = true
	}
	if a.Map.Allocated() != 4 {
		t.Fatalf("allocated = %d", a.Map.Allocated())
	}
	if a.Classification != nil {
		t.Fatal("classification attached without request")
	}
}

func TestAllocateUnderPressureSharesCheapest(t *testing.T) {
	// Clique of 3 into 2 entries: the two least-conflicting branches
	// must share.
	pairs := [][3]uint64{
		{0, 1, 1000},
		{0, 2, 900},
		{1, 2, 100},
	}
	p := buildProfile(mixed(3, 1000), pairs)
	a, err := Allocate(p, AllocationConfig{TableSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.ConflictCost != 100 {
		t.Fatalf("conflict cost %d, want 100 (cheapest edge)", a.ConflictCost)
	}
}

func TestAllocateEntryForFallback(t *testing.T) {
	p := buildProfile(mixed(2, 1000), cliquePairs(500, 0, 1))
	a, err := Allocate(p, AllocationConfig{TableSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	// An unprofiled branch (library code) must fall back to PC modulo.
	const unknownPC = 4 * 1000
	if got := a.Map.EntryFor(unknownPC); got != ConventionalIndex(unknownPC, 16) {
		t.Fatalf("fallback entry %d", got)
	}
}

func TestAllocateClassificationReservesEntries(t *testing.T) {
	branches := [][2]uint64{
		{1000, 1000}, // biased taken
		{1000, 999},  // biased taken
		{1000, 0},    // biased not-taken
		{1000, 500},  // mixed
		{1000, 500},  // mixed
	}
	// Everything conflicts with everything.
	pairs := cliquePairs(500, 0, 1, 2, 3, 4)
	p := buildProfile(branches, pairs)
	a, err := Allocate(p, AllocationConfig{TableSize: 8, UseClassification: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.Map.ReservedTaken != 0 || a.Map.ReservedNotTaken != 1 {
		t.Fatalf("reserved entries %d/%d", a.Map.ReservedTaken, a.Map.ReservedNotTaken)
	}
	// Biased-taken branches share entry 0; biased-not-taken entry 1.
	if a.Map.EntryFor(4*1) != 0 || a.Map.EntryFor(4*2) != 0 {
		t.Fatal("biased-taken branches not pinned to entry 0")
	}
	if a.Map.EntryFor(4*3) != 1 {
		t.Fatal("biased-not-taken branch not pinned to entry 1")
	}
	// Mixed branches stay out of reserved entries.
	if a.Map.EntryFor(4*4) < 2 || a.Map.EntryFor(4*5) < 2 {
		t.Fatal("mixed branches leaked into reserved entries")
	}
	if a.Classification == nil {
		t.Fatal("classification missing from result")
	}
	// Same-class conflicts were dropped: the (0,1) edge is gone from
	// the allocator's graph.
	if a.Graph.HasEdge(0, 1) {
		t.Fatal("same-class biased conflict not dropped")
	}
	// Cross-class and mixed conflicts stay.
	if !a.Graph.HasEdge(3, 4) {
		t.Fatal("mixed conflict wrongly dropped")
	}
}

func TestAllocateCustomClassThresholds(t *testing.T) {
	// Branch 0 is taken 95% of the time: mixed under the default 99%
	// cutoff, biased under a 90% one, which pins it to the reserved
	// taken entry.
	p := buildProfile([][2]uint64{{1000, 950}, {1000, 500}}, cliquePairs(500, 0, 1))
	cfg := AllocationConfig{TableSize: 8, UseClassification: true}
	a, err := Allocate(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Map.EntryFor(4) < 2 {
		t.Fatalf("default thresholds pinned a 95%%-taken branch to entry %d", a.Map.EntryFor(4))
	}
	cfg.ClassThresholds = classify.Thresholds{Taken: 0.9, NotTaken: 0.1}
	if a, err = Allocate(p, cfg); err != nil {
		t.Fatal(err)
	}
	if a.Map.EntryFor(4) != a.Map.ReservedTaken {
		t.Fatalf("custom thresholds left the branch in entry %d", a.Map.EntryFor(4))
	}
}

func TestAllocateErrors(t *testing.T) {
	p := buildProfile(mixed(2, 100), nil)
	if _, err := Allocate(nil, AllocationConfig{TableSize: 8}); err == nil {
		t.Error("nil profile accepted")
	}
	if _, err := Allocate(p, AllocationConfig{TableSize: 0}); err == nil {
		t.Error("zero table accepted")
	}
	if _, err := Allocate(p, AllocationConfig{TableSize: 2, UseClassification: true}); err == nil {
		t.Error("classified allocation into 2 entries accepted (needs >= 3)")
	}
}

func TestConventionalCost(t *testing.T) {
	// Two conflicting branches at PCs 4 and 4+4*16 collide mod 16 but
	// not mod 32.
	p := buildProfile(mixed(17, 1000), [][3]uint64{{0, 16, 500}})
	if c := ConventionalCost(p, 16, 0, nil); c != 500 {
		t.Fatalf("mod-16 cost %d, want 500", c)
	}
	if c := ConventionalCost(p, 32, 0, nil); c != 0 {
		t.Fatalf("mod-32 cost %d, want 0", c)
	}
}

func TestConventionalCostWithClassification(t *testing.T) {
	branches := make([][2]uint64, 17)
	for i := range branches {
		branches[i] = [2]uint64{1000, 1000} // all biased taken
	}
	p := buildProfile(branches, [][3]uint64{{0, 16, 500}})
	cls := classify.Classify(p, classify.Default())
	if c := ConventionalCost(p, 16, 0, cls); c != 0 {
		t.Fatalf("same-class conflict counted: %d", c)
	}
	if c := ConventionalCost(p, 16, 0, nil); c != 500 {
		t.Fatalf("unclassified cost %d", c)
	}
}

func TestRequiredBHTSizeFindsCliqueBound(t *testing.T) {
	// 8 branches in one clique, placed to collide in a 1024-entry
	// conventional table: ids 0 and 512 share (pc/4 mod 1024)? pc(i) =
	// (i+1)*4, so words 1..8 — no conventional collisions, baseline 0.
	// Allocation needs >= 8 entries for zero conflicts.
	p := buildProfile(mixed(8, 1000), cliquePairs(500, 0, 1, 2, 3, 4, 5, 6, 7))
	res, err := RequiredBHTSize(p, 1024, AllocationConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.BaselineCost != 0 {
		t.Fatalf("baseline cost %d, want 0", res.BaselineCost)
	}
	if res.RequiredSize != 8 {
		t.Fatalf("required size %d, want 8 (clique size)", res.RequiredSize)
	}
	if res.AllocCost != 0 {
		t.Fatalf("alloc cost %d", res.AllocCost)
	}
	if res.Colorings == 0 {
		t.Fatal("no colorings recorded")
	}
	if res.BaselineSize != 1024 {
		t.Fatalf("baseline size %d", res.BaselineSize)
	}
}

func TestRequiredBHTSizeWithClassificationShrinks(t *testing.T) {
	// A clique of 12 where 8 members are biased-taken: classification
	// drops their mutual edges and pins them, so the mixed core of 4
	// (plus 2 reserved entries) is all that needs coloring.
	branches := make([][2]uint64, 12)
	for i := range branches {
		if i < 8 {
			branches[i] = [2]uint64{1000, 1000}
		} else {
			branches[i] = [2]uint64{1000, 500}
		}
	}
	ids := make([]uint64, 12)
	for i := range ids {
		ids[i] = uint64(i)
	}
	p := buildProfile(branches, cliquePairs(500, ids...))

	plain, err := RequiredBHTSize(p, 1024, AllocationConfig{})
	if err != nil {
		t.Fatal(err)
	}
	classified, err := RequiredBHTSize(p, 1024, AllocationConfig{UseClassification: true})
	if err != nil {
		t.Fatal(err)
	}
	if plain.RequiredSize != 12 {
		t.Fatalf("plain required %d, want 12", plain.RequiredSize)
	}
	if classified.RequiredSize >= plain.RequiredSize {
		t.Fatalf("classification did not shrink: %d vs %d", classified.RequiredSize, plain.RequiredSize)
	}
	// 4 mixed branches + 2 reserved entries: 6, though the biased
	// branches' cross-class edges to mixed ones may require one or two
	// more. It must be at most 12 and at least 6.
	if classified.RequiredSize < 6 {
		t.Fatalf("classified required %d below floor 6", classified.RequiredSize)
	}
}

func TestEntryLoadAndStats(t *testing.T) {
	p := buildProfile(mixed(4, 1000), cliquePairs(500, 0, 1, 2, 3))
	a, err := Allocate(p, AllocationConfig{TableSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	load := a.Map.EntryLoad()
	total := 0
	for _, l := range load {
		total += l
	}
	if total != 4 {
		t.Fatalf("entry load total %d", total)
	}
	occupied, maxLoad := a.Map.LoadStats()
	if occupied != 4 || maxLoad != 1 {
		t.Fatalf("occupied=%d maxLoad=%d", occupied, maxLoad)
	}
}

func TestSortedPCsSorted(t *testing.T) {
	p := buildProfile(mixed(5, 100), nil)
	a, err := Allocate(p, AllocationConfig{TableSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	pcs := a.Map.SortedPCs()
	for i := 1; i < len(pcs); i++ {
		if pcs[i] <= pcs[i-1] {
			t.Fatal("SortedPCs not ascending")
		}
	}
}

// TestPreparedSizeErrors: a table or baseline below the minimum size (1,
// or 3 with classification) is a *SizeError from every entry point,
// never a divide-by-zero in the PC-modulo baseline or a coloring error
// about FirstFree.
func TestPreparedSizeErrors(t *testing.T) {
	p := buildProfile([][2]uint64{{1000, 1000}, {1000, 500}, {1000, 500}}, cliquePairs(500, 0, 1, 2))
	for _, tc := range []struct {
		classified bool
		size       int
		min        int
	}{
		{false, 0, 1},
		{false, -3, 1},
		{true, 2, 3},
		{true, 0, 3},
	} {
		cfg := AllocationConfig{UseClassification: tc.classified}
		pr, err := Prepare(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if pr.MinSize() != tc.min {
			t.Errorf("classified=%v: MinSize %d, want %d", tc.classified, pr.MinSize(), tc.min)
		}
		want := func(what string, err error) {
			t.Helper()
			var se *SizeError
			if !errors.As(err, &se) || *se != (SizeError{What: what, Size: tc.size, Min: tc.min}) {
				t.Errorf("classified=%v size %d: got %v, want a %s SizeError", tc.classified, tc.size, err, what)
			}
		}
		_, err = pr.RequiredSize(tc.size)
		want("baseline size", err)
		_, err = pr.ConventionalCost(tc.size)
		want("baseline size", err)
		_, err = pr.Allocate(tc.size)
		want("table size", err)
		_, err = RequiredBHTSize(p, tc.size, cfg)
		want("baseline size", err)
		cfg.TableSize = tc.size
		_, err = Allocate(p, cfg)
		want("table size", err)
	}
	if c := ConventionalCost(p, 0, 0, nil); c != 0 {
		t.Errorf("ConventionalCost at size 0 = %d, want 0", c)
	}
	if _, err := Prepare(nil, AllocationConfig{}); err == nil {
		t.Error("Prepare accepted a nil profile")
	}
	if _, err := RequiredBHTSize(nil, 1024, AllocationConfig{}); err == nil {
		t.Error("RequiredBHTSize accepted a nil profile")
	}
}

// TestPreparedServesEverySize: one Prepared answers the allocation,
// size search and baseline cost exactly as the per-call entry points
// do, coloring its one graph at every size.
func TestPreparedServesEverySize(t *testing.T) {
	branches := make([][2]uint64, 12)
	for i := range branches {
		branches[i] = [2]uint64{1000, 500}
		if i%3 == 0 {
			branches[i] = [2]uint64{1000, 1000}
		}
	}
	ids := make([]uint64, 12)
	for i := range ids {
		ids[i] = uint64(i)
	}
	p := buildProfile(branches, cliquePairs(500, ids...))
	for _, classified := range []bool{false, true} {
		cfg := AllocationConfig{UseClassification: classified}
		pr, err := Prepare(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pr.RequiredSize(16)
		if err != nil {
			t.Fatal(err)
		}
		want, err := RequiredBHTSize(p, 16, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("classified=%v: RequiredSize %+v, RequiredBHTSize %+v", classified, got, want)
		}
		conv, err := pr.ConventionalCost(8)
		if err != nil {
			t.Fatal(err)
		}
		if c := ConventionalCost(p, 8, 0, pr.Classification); c != conv {
			t.Errorf("classified=%v: ConventionalCost %d, Prepared %d", classified, c, conv)
		}
		for _, size := range []int{3, 5, 12} {
			a, err := pr.Allocate(size)
			if err != nil {
				t.Fatal(err)
			}
			cfg.TableSize = size
			b, err := Allocate(p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if a.Graph != pr.Graph {
				t.Errorf("size %d: allocation colored a graph other than the prepared one", size)
			}
			if a.ConflictCost != b.ConflictCost || a.Config != b.Config || !maps.Equal(a.Map.Index, b.Map.Index) {
				t.Errorf("classified=%v size %d: Prepared.Allocate differs from Allocate", classified, size)
			}
		}
	}
}

// TestPreparedConcurrentUse: a Prepared is shared by every allocation
// over one profile, so goroutines may allocate and search on it at
// once; each must get exactly the serial answer.
func TestPreparedConcurrentUse(t *testing.T) {
	branches := make([][2]uint64, 16)
	ids := make([]uint64, 16)
	for i := range branches {
		branches[i] = [2]uint64{1000, 500}
		if i%4 == 0 {
			branches[i] = [2]uint64{1000, 0}
		}
		ids[i] = uint64(i)
	}
	pr, err := Prepare(buildProfile(branches, cliquePairs(500, ids...)), AllocationConfig{UseClassification: true})
	if err != nil {
		t.Fatal(err)
	}
	wantSize, err := pr.RequiredSize(32)
	if err != nil {
		t.Fatal(err)
	}
	wantAlloc, err := pr.Allocate(7)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			size, err := pr.RequiredSize(32)
			if err != nil || size != wantSize {
				t.Errorf("concurrent RequiredSize = %+v, %v; want %+v", size, err, wantSize)
			}
			a, err := pr.Allocate(7)
			if err != nil || !maps.Equal(a.Map.Index, wantAlloc.Map.Index) {
				t.Errorf("concurrent Allocate differs from the serial one (err %v)", err)
			}
		}()
	}
	wg.Wait()
}
