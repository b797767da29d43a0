package harness

import (
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/profile"
	"repro/internal/workload"
)

func TestMapOrderedPreservesOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 100} {
		got, err := mapOrdered(workers, 17, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestMapOrderedEmpty(t *testing.T) {
	got, err := mapOrdered(4, 0, func(int) (int, error) {
		t.Fatal("f called for n=0")
		return 0, nil
	})
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestMapOrderedSerialAbortsOnError(t *testing.T) {
	boom := errors.New("boom")
	var calls atomic.Int32
	_, err := mapOrdered(1, 10, func(i int) (int, error) {
		calls.Add(1)
		if i == 2 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if calls.Load() != 3 {
		t.Fatalf("serial mode ran %d calls after error at index 2", calls.Load())
	}
}

func TestMapOrderedParallelReturnsLowestIndexError(t *testing.T) {
	_, err := mapOrdered(4, 8, func(i int) (int, error) {
		if i == 2 || i == 5 {
			return 0, fmt.Errorf("fail-%d", i)
		}
		return i, nil
	})
	if err == nil || err.Error() != "fail-2" {
		t.Fatalf("err = %v, want fail-2", err)
	}
}

// recordReplayOracle rebuilds one benchmark's profile-stage artifacts
// the way the paper's trace-driven methodology does: record the full
// trace, filter it by coverage, and replay the kept events into a
// serial profiler with the suite's window.
func recordReplayOracle(t *testing.T, s *Suite, benchmark string, input workload.InputSet) *Artifacts {
	t.Helper()
	spec, err := workload.ByName(benchmark)
	if err != nil {
		t.Fatal(err)
	}
	tr, stats, err := spec.Run(workload.RunConfig{Input: input, Scale: s.Config().Scale})
	if err != nil {
		t.Fatal(err)
	}
	filter := tr.FilterByCoverage(spec.AnalyzeCoverage)
	prof := profile.NewProfiler(spec.Name, input.Name, profile.WithWindow(s.profileWindow(spec)))
	filter.Kept.Replay(prof)
	prof.SetInstructions(stats.Instructions)
	return &Artifacts{Spec: spec, Input: input, VMStats: stats, Filter: filter, Profile: prof.Profile()}
}

// TestArtifactsMatchRecordReplayOracle checks the streamed pipeline —
// a counting execution, then a filtered re-execution into a sharded
// profiler — against record-then-replay: the same VM statistics, filter
// counts and interleave profile.
func TestArtifactsMatchRecordReplayOracle(t *testing.T) {
	s := NewSuite(Config{Scale: 0.05})
	for _, tc := range []struct {
		benchmark string
		input     workload.InputSet
	}{
		{"li", workload.InputRef},
		{"perl", workload.InputA},
	} {
		got, err := s.Artifacts(tc.benchmark, tc.input)
		if err != nil {
			t.Fatal(err)
		}
		want := recordReplayOracle(t, s, tc.benchmark, tc.input)
		name := tc.benchmark + "/" + tc.input.Name

		if got.VMStats != want.VMStats {
			t.Errorf("%s: VM stats %+v, oracle %+v", name, got.VMStats, want.VMStats)
		}
		fg, fw := got.Filter, want.Filter
		if fg.StaticKept != fw.StaticKept || fg.StaticTotal != fw.StaticTotal ||
			fg.DynamicKept != fw.DynamicKept || fg.DynamicTotal != fw.DynamicTotal {
			t.Errorf("%s: filter %+v, oracle %+v", name, fg, fw)
		}
		pg, pw := got.Profile, want.Profile
		if !reflect.DeepEqual(pg.PCs, pw.PCs) || !reflect.DeepEqual(pg.Exec, pw.Exec) ||
			!reflect.DeepEqual(pg.Taken, pw.Taken) {
			t.Errorf("%s: per-branch profile vectors differ from the oracle", name)
		}
		if pg.Instructions != pw.Instructions {
			t.Errorf("%s: instructions %d, oracle %d", name, pg.Instructions, pw.Instructions)
		}
		if !reflect.DeepEqual(pg.Pairs, pw.Pairs) {
			t.Errorf("%s: interleave pair counts differ from the oracle", name)
		}
	}
}

// renderEverything runs the complete cmd/tables composition — all
// tables, both figures, the ablations and the extended experiments —
// and returns the rendered bytes. With table1First the suite first
// renders Table 1 alone, so the full run starts from cached count
// stages only.
func renderEverything(t *testing.T, cfg Config, table1First bool) string {
	t.Helper()
	s := NewSuite(cfg)
	if table1First {
		if err := RunTable(s, io.Discard, 1, false); err != nil {
			t.Fatal(err)
		}
	}
	var b strings.Builder
	if err := RunAll(s, &b, false); err != nil {
		t.Fatal(err)
	}
	if err := RunAblations(s, &b, false); err != nil {
		t.Fatal(err)
	}
	if err := RunExtras(s, &b, false); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestOutputMatchesGolden is the harness's headline determinism
// guarantee: the full rendered output — every table, figure, ablation
// and extended experiment — matches testdata/everything.golden, which
// was rendered by the record-then-replay pipeline. It holds serially,
// in parallel with the artifact verifiers enabled, and for both after
// the suite rendered Table 1 alone first. Run under -race in CI, it also
// shakes out data races in the worker pool.
func TestOutputMatchesGolden(t *testing.T) {
	serialCfg := Config{Scale: 0.05, Workers: 1}
	parallelCfg := Config{Scale: 0.05, Workers: 4, Check: true}
	serial := renderEverything(t, serialCfg, false)
	checkHarnessGolden(t, "everything.golden", serial)
	for _, run := range []struct {
		name        string
		cfg         Config
		table1First bool
	}{
		{"parallel", parallelCfg, false},
		{"serial after Table 1", serialCfg, true},
		{"parallel after Table 1", parallelCfg, true},
	} {
		if got := renderEverything(t, run.cfg, run.table1First); got != serial {
			t.Errorf("%s output differs from the serial render:\n--- serial ---\n%s\n--- %s ---\n%s",
				run.name, serial, run.name, got)
		}
	}
	for _, want := range []string{"Table 1", "Table 4", "Figure 3", "Figure 4", "Ablation", "Extended"} {
		if !strings.Contains(serial, want) {
			t.Fatalf("rendered output missing %q section", want)
		}
	}
}
