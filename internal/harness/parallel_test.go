package harness

import (
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

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

// TestFusedArtifactsMatchRecorded checks the fused streaming pipeline
// produces the same filter statistics and interleave profile as
// record-then-replay, while retaining no trace memory.
func TestFusedArtifactsMatchRecorded(t *testing.T) {
	rec := NewSuite(Config{Scale: 0.05})
	fus := NewSuite(Config{Scale: 0.05, Fused: true})

	ar, err := rec.Artifacts("li", workload.InputRef)
	if err != nil {
		t.Fatal(err)
	}
	af, err := fus.Artifacts("li", workload.InputRef)
	if err != nil {
		t.Fatal(err)
	}

	if af.Trace != nil || af.Filter.Kept != nil {
		t.Fatal("fused artifacts retain a trace")
	}
	if ar.Trace == nil {
		t.Fatal("recorded artifacts lost their trace")
	}
	if rec.RetainedTraceBytes() == 0 {
		t.Fatal("record mode reports no retained trace memory")
	}
	if fus.RetainedTraceBytes() != 0 {
		t.Fatalf("fused mode retains %d trace bytes", fus.RetainedTraceBytes())
	}

	if ar.VMStats != af.VMStats {
		t.Fatalf("VM stats differ: %+v vs %+v", ar.VMStats, af.VMStats)
	}
	fr, ff := ar.Filter, af.Filter
	if fr.StaticKept != ff.StaticKept || fr.StaticTotal != ff.StaticTotal ||
		fr.DynamicKept != ff.DynamicKept || fr.DynamicTotal != ff.DynamicTotal {
		t.Fatalf("filters differ: %+v vs %+v", fr, ff)
	}

	pr, pf := ar.Profile, af.Profile
	if !reflect.DeepEqual(pr.PCs, pf.PCs) || !reflect.DeepEqual(pr.Exec, pf.Exec) ||
		!reflect.DeepEqual(pr.Taken, pf.Taken) {
		t.Fatal("per-branch profile vectors differ between record and fused")
	}
	if pr.Instructions != pf.Instructions {
		t.Fatalf("instructions %d vs %d", pr.Instructions, pf.Instructions)
	}
	if !reflect.DeepEqual(pr.Pairs, pf.Pairs) {
		t.Fatal("interleave pair counts differ between record and fused")
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

// TestParallelFusedOutputByteIdentical is the harness's headline
// determinism guarantee: the full rendered output — every table,
// figure, ablation and extended experiment — is byte-identical between
// the serial record-then-replay pipeline and the parallel fused
// streaming pipeline (with the artifact verifiers enabled), and in both
// modes between a fresh suite and one that rendered Table 1 alone
// first. Run under -race in CI, it also shakes out data races in the
// worker pool.
func TestParallelFusedOutputByteIdentical(t *testing.T) {
	serialCfg := Config{Scale: 0.05, Workers: 1}
	parallelCfg := Config{Scale: 0.05, Workers: 4, Fused: true, Check: true}
	serial := renderEverything(t, serialCfg, false)
	for _, run := range []struct {
		name        string
		cfg         Config
		table1First bool
	}{
		{"parallel fused", parallelCfg, false},
		{"serial record after Table 1", serialCfg, true},
		{"parallel fused after Table 1", parallelCfg, true},
	} {
		if got := renderEverything(t, run.cfg, run.table1First); got != serial {
			t.Fatalf("output differs between serial/record and %s:\n--- serial ---\n%s\n--- %s ---\n%s",
				run.name, serial, run.name, got)
		}
	}
	for _, want := range []string{"Table 1", "Table 4", "Figure 3", "Figure 4", "Ablation", "Extended"} {
		if !strings.Contains(serial, want) {
			t.Fatalf("rendered output missing %q section", want)
		}
	}
}
