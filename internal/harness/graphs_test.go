package harness

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/charact"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from current output")

// graphSuite builds a fresh small-scale suite for the graph tests; the
// graph cache is per suite, so the shared testSuite stays untouched.
func graphSuite(workers int) *Suite {
	return NewSuite(Config{Scale: 0.05, Workers: workers, Metrics: obs.New(obs.NewRegistry())})
}

func TestGraphsShape(t *testing.T) {
	s := graphSuite(0)
	res, err := s.Graphs(predict.KindPAg, predict.KindGshare)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Kinds) != 2 || res.Kinds[0] != predict.KindPAg || res.Kinds[1] != predict.KindGshare {
		t.Fatalf("kinds %v", res.Kinds)
	}
	if len(res.Sizes) != len(s.Config().AllocBHTSizes) {
		t.Fatalf("sizes %v", res.Sizes)
	}
	pairs := workload.GraphPairNames()
	for _, kind := range res.Kinds {
		rows := res.Rows[kind]
		if len(rows) != 2*len(pairs) {
			t.Fatalf("%s: %d rows, want %d", kind, len(rows), 2*len(pairs))
		}
		for i, r := range rows {
			wantPair := pairs[i/2]
			wantVariant := "branchy"
			if i%2 == 1 {
				wantVariant = "avoiding"
			}
			if r.Benchmark != wantPair || r.Variant != wantVariant {
				t.Fatalf("%s row %d is %s/%s, want %s/%s", kind, i, r.Benchmark, r.Variant, wantPair, wantVariant)
			}
			if r.Kind != kind {
				t.Fatalf("row kind %q under %q", r.Kind, kind)
			}
			if r.Branches == 0 || r.Static == 0 {
				t.Fatalf("%s/%s-%s: empty simulation %+v", kind, r.Benchmark, r.Variant, r)
			}
			if len(r.Conv) != len(res.Sizes) || len(r.Alloc) != len(res.Sizes) {
				t.Fatalf("%s/%s: rate vectors sized %d/%d", kind, r.Benchmark, len(r.Conv), len(r.Alloc))
			}
			for j := range r.Conv {
				if r.Conv[j] < 0 || r.Conv[j] > 1 || r.Alloc[j] < 0 || r.Alloc[j] > 1 {
					t.Fatalf("%s/%s: rate out of range: %+v", kind, r.Benchmark, r)
				}
			}
			if r.TakenRate <= 0 || r.TakenRate >= 1 {
				t.Fatalf("%s/%s: degenerate taken rate %v", kind, r.Benchmark, r.TakenRate)
			}
		}
	}
	if _, err := s.Graphs("bogus"); err == nil {
		t.Fatal("Graphs accepted unknown kind")
	}
}

// TestGraphsCheckedArtifacts runs the graph pipeline with Check enabled:
// computeGraph then compares every variant's VM result against the Go
// reference, so a kernel-vs-oracle divergence fails here.
func TestGraphsCheckedArtifacts(t *testing.T) {
	s := NewSuite(Config{Scale: 0.05, Check: true, Metrics: obs.New(obs.NewRegistry())})
	for _, name := range workload.GraphNames() {
		a, err := s.GraphArtifacts(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a.Stats.CondBranches == 0 {
			t.Errorf("%s: no conditional branches executed", name)
		}
		if len(a.Result) == 0 {
			t.Errorf("%s: empty result readback", name)
		}
	}
}

func TestCharactRows(t *testing.T) {
	s := graphSuite(0)
	rows, err := s.Charact()
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]string{}, FigureBenchmarks...), workload.GraphNames()...)
	if len(rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(rows), len(want))
	}
	for i, r := range rows {
		if r.Benchmark != want[i] {
			t.Fatalf("row %d is %q, want %q", i, r.Benchmark, want[i])
		}
		if r.Dynamic == 0 || r.Static == 0 {
			t.Fatalf("%s: empty characterization %+v", r.Benchmark, r)
		}
		if r.Entropy < 0 || r.Entropy > 1 {
			t.Fatalf("%s: entropy %v out of [0,1]", r.Benchmark, r.Entropy)
		}
		// Conditioning on history never increases the mean entropy: the
		// per-branch inequality is exact (marginalization), and the
		// count-weighted mean preserves it.
		if r.LocalCond > r.Entropy+1e-12 || r.GlobalCond > r.Entropy+1e-12 {
			t.Fatalf("%s: conditional entropy above marginal: %+v", r.Benchmark, r)
		}
		if r.HistorySensitivity < -1e-12 {
			t.Fatalf("%s: negative history sensitivity %v", r.Benchmark, r.HistorySensitivity)
		}
		if r.HardFraction < 0 || r.HardFraction > 1 {
			t.Fatalf("%s: hard fraction %v", r.Benchmark, r.HardFraction)
		}
	}
}

// TestGraphsCharactDifferentialAcrossShards extends the suite's
// byte-identity requirement to the two new experiments: the rendered
// graph and characterization reports must not change between the
// strictly serial suite and one running with GOMAXPROCS workers. CI
// runs this under -race, covering the benchmark fan-out around the
// graph cache at the same time.
func TestGraphsCharactDifferentialAcrossShards(t *testing.T) {
	render := func(workers int) string {
		s := graphSuite(workers)
		var b strings.Builder
		if err := RunGraphs(s, &b, false, predict.KindPAg, predict.KindTAGE); err != nil {
			t.Fatal(err)
		}
		if err := RunCharact(s, &b, false); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	serial := render(1)
	if !strings.Contains(serial, "[tage]") || !strings.Contains(serial, "bfs-uniform") {
		t.Fatalf("graph output incomplete:\n%.1000s", serial)
	}
	max := runtime.GOMAXPROCS(0)
	if got := render(max); got != serial {
		t.Errorf("graphs/charact output differs between serial and workers=%d\n--- serial ---\n%.3000s\n--- parallel ---\n%.3000s",
			max, serial, got)
	}
}

// checkHarnessGolden compares got against testdata/name, rewriting the
// file under -update.
func checkHarnessGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("%s mismatch (run with -update to regenerate)\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestGraphsGolden freezes the rendered -graphs output for one
// predictor kind at a fixed small scale. Everything feeding the table is
// seeded and deterministic, so the bytes are stable across platforms,
// worker counts, and runs.
func TestGraphsGolden(t *testing.T) {
	var b strings.Builder
	if err := RunGraphs(graphSuite(1), &b, false, predict.KindPAg); err != nil {
		t.Fatal(err)
	}
	checkHarnessGolden(t, "graphs_pag.golden", b.String())
}

// TestCharactGolden freezes the rendered characterization table at the
// same fixed scale.
func TestCharactGolden(t *testing.T) {
	var b strings.Builder
	if err := RunCharact(graphSuite(1), &b, false); err != nil {
		t.Fatal(err)
	}
	checkHarnessGolden(t, "charact.golden", b.String())
}

// TestGraphsMetricsGolden runs the graph experiment on a frozen-clock,
// zero-memsource registry and freezes the metrics text dump: the
// instrumentation series a graph run emits (VM, profile, predictor) and
// their exact counts. Counter values are event counts of a seeded
// deterministic pipeline, and every timing source is injected, so the
// dump is reproducible byte for byte.
func TestGraphsMetricsGolden(t *testing.T) {
	reg := metricsRegistry()
	s := NewSuite(Config{Scale: 0.05, Workers: 1, Metrics: obs.New(reg)})
	var b strings.Builder
	if err := RunGraphs(s, &b, false, predict.KindPAg); err != nil {
		t.Fatal(err)
	}
	var dump strings.Builder
	if err := obs.WriteText(&dump, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	checkHarnessGolden(t, "graphs_metrics.golden", dump.String())
}

func TestRenderGraphsAndCharact(t *testing.T) {
	s := graphSuite(0)
	res, err := s.Graphs(predict.KindGshare)
	if err != nil {
		t.Fatal(err)
	}
	text := RenderGraphs(res, false)
	for _, want := range []string{"[gshare]", "benchmark", "variant", "branchy", "avoiding", "conv-", "alloc-", "[summary", "alloc delta"} {
		if !strings.Contains(text, want) {
			t.Errorf("graphs render missing %q:\n%s", want, text)
		}
	}
	md := RenderGraphs(res, true)
	if !strings.Contains(md, "| benchmark") {
		t.Error("graphs markdown render malformed")
	}

	rows, err := s.Charact()
	if err != nil {
		t.Fatal(err)
	}
	ct := RenderCharact(rows, false)
	for _, want := range []string{"benchmark", "entropy", fmt.Sprintf("H|local%d", charact.MaxHistory), "hist-sens", "hard"} {
		if !strings.Contains(ct, want) {
			t.Errorf("charact render missing %q:\n%s", want, ct)
		}
	}
	if md := RenderCharact(rows, true); !strings.Contains(md, "| benchmark") {
		t.Error("charact markdown render malformed")
	}

	var run strings.Builder
	if err := RunGraphs(s, &run, false, "bogus"); err == nil {
		t.Fatal("RunGraphs accepted unknown kind")
	}
}
