package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/workload"
)

// TestTimeRunUsesInjectedClock proves bench timing is fully driven by
// the injected clock: under a FakeClock stepping 7ms per read, any
// successful run measures exactly one step, regardless of real elapsed
// time.
func TestTimeRunUsesInjectedClock(t *testing.T) {
	clock := obs.NewFakeClock(time.Unix(0, 0), 7*time.Millisecond)
	d, err := timeRun(clock, func() error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if d != 7*time.Millisecond {
		t.Errorf("timeRun = %v, want exactly 7ms (one clock step)", d)
	}

	// A frozen clock (step 0) must measure zero.
	d, err = timeRun(obs.NewFakeClock(time.Unix(0, 0), 0), func() error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Errorf("timeRun under frozen clock = %v, want 0", d)
	}
}

// TestTimeRunError checks the error path returns the function's error
// and a zero duration.
func TestTimeRunError(t *testing.T) {
	boom := errors.New("boom")
	clock := obs.NewFakeClock(time.Unix(0, 0), time.Second)
	d, err := timeRun(clock, func() error { return boom })
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want boom", err)
	}
	if d != 0 {
		t.Errorf("duration on error = %v, want 0", d)
	}
}

// writeBaseline marshals a Report into a temp baseline file.
func writeBaseline(t *testing.T, rep Report) string {
	t.Helper()
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCompareRegression covers the baseline comparison logic with a
// synthetic baseline: within-tolerance passes, beyond-tolerance fails
// with the offending experiment named, and experiments new to the run
// (absent from the baseline) are ignored.
func TestCompareRegression(t *testing.T) {
	base := Report{
		Scale: 0.1,
		Experiments: []ExperimentResult{
			{Name: "table1", NsPerOp: 1000},
			{Name: "table2", NsPerOp: 1000},
		},
	}
	path := writeBaseline(t, base)

	ok := &Report{
		Scale: 0.1,
		Experiments: []ExperimentResult{
			{Name: "table1", NsPerOp: 1200}, // +20% within 25% tolerance
			{Name: "table2", NsPerOp: 900},
			{Name: "figure3", NsPerOp: 5000}, // not in baseline: skipped
		},
	}
	if err := compare(path, ok, 0.25); err != nil {
		t.Errorf("within-tolerance run failed comparison: %v", err)
	}

	bad := &Report{
		Scale: 0.1,
		Experiments: []ExperimentResult{
			{Name: "table1", NsPerOp: 1300}, // +30% beyond 25% tolerance
			{Name: "table2", NsPerOp: 1000},
		},
	}
	err := compare(path, bad, 0.25)
	if err == nil {
		t.Fatal("regressed run passed comparison")
	}
	if !strings.Contains(err.Error(), "table1") {
		t.Errorf("regression error does not name the experiment: %v", err)
	}

	if err := compare(filepath.Join(t.TempDir(), "missing.json"), ok, 0.25); err == nil {
		t.Error("missing baseline file did not error")
	}
}

// TestStreamBranchesCountsBuiltProfilesOnly pins the throughput
// denominator to the work a run did: after Table 1 only the count
// stage ran, so each stream contributes its full stream alone; once
// Table 2 builds profiles, those streams add their filtered stream.
func TestStreamBranchesCountsBuiltProfilesOnly(t *testing.T) {
	s := harness.NewSuite(harness.Config{Scale: 0.02})
	rows, err := s.Table1()
	if err != nil {
		t.Fatal(err)
	}
	var full, kept uint64
	for _, r := range rows {
		full += r.TotalDynamic
	}
	if got := streamBranches(s); got != full {
		t.Fatalf("after Table 1: streamBranches = %d, want the full streams' %d", got, full)
	}

	if _, err := s.Table2(); err != nil {
		t.Fatal(err)
	}
	for _, name := range harness.Table2Benchmarks {
		a, ok := s.Cached(name, workload.InputRef)
		if !ok || a.Profile == nil {
			t.Fatalf("%s: no profile after Table 2", name)
		}
		kept += a.Filter.DynamicKept
	}
	if got := streamBranches(s); got != full+kept {
		t.Fatalf("after Table 2: streamBranches = %d, want %d full + %d profiled", got, full, kept)
	}
}
