package harness

import (
	"testing"

	"repro/internal/core"
)

// TestRequiredSizeIsMinimal is the exhaustive-scan oracle for the
// required-size search behind Tables 3 and 4. RequiredBHTSize binary
// searches on the assumption that allocated conflict cost is
// non-increasing in table size, then walks down to confirm. The oracle
// allocates at every size below each reported answer and requires the
// cost to stay above the baseline there, and at or below it at the
// answer itself — for all 28 rows at scale 0.05.
func TestRequiredSizeIsMinimal(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive size scan")
	}
	s := NewSuite(Config{Scale: 0.05})
	for _, classified := range []bool{false, true} {
		rows, err := s.sizeTable(classified)
		if err != nil {
			t.Fatal(err)
		}
		minSize := 1
		if classified {
			minSize = 3
		}
		for i, sb := range SizedBenchmarkRows() {
			row := rows[i]
			a, err := s.Artifacts(sb.Name, sb.Input)
			if err != nil {
				t.Fatal(err)
			}
			costAt := func(size int) uint64 {
				alloc, err := core.Allocate(a.Profile, core.AllocationConfig{
					TableSize:         size,
					Threshold:         s.cfg.Threshold,
					UseClassification: classified,
				})
				if err != nil {
					t.Fatal(err)
				}
				return alloc.ConflictCost
			}
			if cost := costAt(row.RequiredSize); cost > row.BaselineCost || cost != row.AllocCost {
				t.Errorf("%s (classified=%v): cost %d at required size %d, reported %d, baseline %d",
					row.Label, classified, cost, row.RequiredSize, row.AllocCost, row.BaselineCost)
			}
			for size := minSize; size < row.RequiredSize; size++ {
				if cost := costAt(size); cost <= row.BaselineCost {
					t.Errorf("%s (classified=%v): size %d already meets baseline %d (cost %d), reported %d",
						row.Label, classified, size, row.BaselineCost, cost, row.RequiredSize)
					break
				}
			}
		}
	}
}
