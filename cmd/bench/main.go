// Command bench measures the experiment harness and emits a
// machine-readable benchmark report (default bench.json, untracked) for
// regression tracking: per-experiment ns/op, allocs/op, bytes/op and
// approximate branch-stream throughput in Mbranches/s, and a suite
// section comparing a serial run (one benchmark worker) against a
// parallel one (wall clock, parallel throughput).
//
// Usage:
//
//	bench [-scale 0.1] [-workers 8] [-o bench.json]
//	      [-baseline BENCH_7.json] [-tolerance 0.25] [-update]
//
// With -baseline it compares each experiment's ns/op against the
// committed baseline and exits nonzero on a regression beyond the
// tolerance. Baselines are machine-specific: regenerate with -update
// when the reference hardware changes, or write the committed baseline
// directly with -o BENCH_7.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/workload"
)

// ExperimentResult is one benchmarked experiment.
type ExperimentResult struct {
	Name          string  `json:"name"`
	NsPerOp       int64   `json:"ns_per_op"`
	AllocsPerOp   int64   `json:"allocs_per_op"`
	BytesPerOp    int64   `json:"bytes_per_op"`
	MBranchesPerS float64 `json:"mbranches_per_s"`
}

// SuiteComparison contrasts a serial and a parallel full run (all
// tables and figures): only the benchmark worker count differs.
type SuiteComparison struct {
	Workers    int     `json:"workers"`
	SerialNs   int64   `json:"serial_ns"`
	ParallelNs int64   `json:"parallel_ns"`
	Speedup    float64 `json:"speedup"`
	// ParallelMBranchesPerS is the parallel run's end-to-end branch
	// throughput.
	ParallelMBranchesPerS float64 `json:"parallel_mbranches_per_s"`
}

// Report is the BENCH_7.json schema.
type Report struct {
	Scale       float64            `json:"scale"`
	GoMaxProcs  int                `json:"gomaxprocs"`
	Experiments []ExperimentResult `json:"experiments"`
	Suite       SuiteComparison    `json:"suite"`
}

func main() {
	var (
		scale      = flag.Float64("scale", 0.1, "workload scale factor for the benchmarks")
		workers    = flag.Int("workers", 8, "worker count for the parallel suite run")
		out        = flag.String("o", "bench.json", "write the benchmark report here (the committed baseline is BENCH_7.json)")
		baseline   = flag.String("baseline", "", "compare against this baseline report")
		tolerance  = flag.Float64("tolerance", 0.25, "allowed fractional ns/op regression vs the baseline")
		update     = flag.Bool("update", false, "overwrite the baseline with this run's report")
		metrics    = flag.Bool("metrics", false, "instrument the comparison runs and dump the metrics registry (text encoding) to stderr")
		predictor  = flag.String("predictor", "", "also benchmark the predictor zoo for these comma-separated kinds (pag, gshare, tage, perceptron; 'all' runs the whole zoo)")
		graphsFlag = flag.Bool("graphs", false, "also benchmark the graph-workload experiment (full zoo over the BFS/CC/triangle family) and the predictability characterization")
	)
	flag.Parse()

	zooKinds, err := parseZooKinds(*predictor)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}

	var reg *obs.Registry
	if *metrics {
		reg = obs.NewRegistry()
	}
	rep, err := measure(obs.SystemClock(), *scale, *workers, zooKinds, *graphsFlag, obs.New(reg))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if reg != nil {
		if err := obs.WriteText(os.Stderr, reg.Snapshot()); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)

	if *baseline != "" && !*update {
		if err := compare(*baseline, rep, *tolerance); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	if *update && *baseline != "" && *baseline != *out {
		if err := os.WriteFile(*baseline, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Printf("updated baseline %s\n", *baseline)
	}
}

// experiment is one benchmarkable harness experiment.
type experiment struct {
	name string
	run  func(*harness.Suite) error
}

func experiments(zooKinds []string, withGraphs bool) []experiment {
	table := func(n int) func(*harness.Suite) error {
		return func(s *harness.Suite) error { return discardTable(s, n) }
	}
	figure := func(n int) func(*harness.Suite) error {
		return func(s *harness.Suite) error { return discardFigure(s, n) }
	}
	exps := []experiment{
		{"table1", table(1)},
		{"table2", table(2)},
		{"table3", table(3)},
		{"table4", table(4)},
		{"figure3", figure(3)},
		{"figure4", figure(4)},
	}
	// The zoo entries are opt-in (-predictor): each measures one zoo
	// member's full allocated-vs-conventional run over the benchmark set,
	// so predictor update-loop throughput is tracked per scheme. compare()
	// skips experiments absent from the baseline, so opt-in entries don't
	// invalidate committed baselines.
	for _, kind := range zooKinds {
		kind := kind
		exps = append(exps, experiment{"zoo-" + kind, func(s *harness.Suite) error {
			return harness.RunZoo(s, io.Discard, false, kind)
		}})
	}
	// The graph entries are opt-in (-graphs) the same way: "graphs"
	// measures the full zoo over the graph family end to end (generate,
	// compile, execute, profile, allocate, simulate), "charact" the
	// characterization pass over the classic and graph benchmarks.
	if withGraphs {
		exps = append(exps,
			experiment{"graphs", func(s *harness.Suite) error {
				return harness.RunGraphs(s, io.Discard, false)
			}},
			experiment{"charact", func(s *harness.Suite) error {
				return harness.RunCharact(s, io.Discard, false)
			}},
		)
	}
	return exps
}

// parseZooKinds parses -predictor: comma-separated zoo kinds, "all" for
// the whole zoo, empty for none. Unknown kinds fail before any run.
func parseZooKinds(s string) ([]string, error) {
	if s == "" {
		return nil, nil
	}
	if s == "all" {
		return predict.ZooKinds(), nil
	}
	var kinds []string
	for _, k := range strings.Split(s, ",") {
		k = strings.TrimSpace(k)
		if k == "" {
			continue
		}
		if !predict.ValidZooKind(k) {
			return nil, fmt.Errorf("unknown predictor %q (have %v)", k, predict.ZooKinds())
		}
		kinds = append(kinds, k)
	}
	return kinds, nil
}

// Rendering goes to io.Discard: formatting is part of the experiment,
// terminal I/O is not.
func discardTable(s *harness.Suite, n int) error {
	return harness.RunTable(s, io.Discard, n, false)
}

func discardFigure(s *harness.Suite, n int) error {
	return harness.RunFigure(s, io.Discard, n, false)
}

// timeRun measures f's wall-clock duration on the injected clock — the
// single timing primitive every comparison below uses, so bench output
// is testable under a FakeClock (no ambient time.Now anywhere here).
func timeRun(clock obs.Clock, f func() error) (time.Duration, error) {
	start := clock.Now()
	if err := f(); err != nil {
		return 0, err
	}
	return clock.Now().Sub(start), nil
}

func measure(clock obs.Clock, scale float64, workers int, zooKinds []string, withGraphs bool, m *obs.Metrics) (*Report, error) {
	rep := &Report{Scale: scale, GoMaxProcs: runtime.GOMAXPROCS(0)}

	for _, e := range experiments(zooKinds, withGraphs) {
		e := e
		var benchErr error
		var branchesPerOp uint64
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// A fresh suite per iteration measures the experiment
				// cold: workload execution, filtering, profiling,
				// analysis, simulation and rendering.
				s := harness.NewSuite(harness.Config{Scale: scale})
				if err := e.run(s); err != nil {
					benchErr = err
					b.FailNow()
				}
				if i == 0 {
					branchesPerOp = streamBranches(s)
				}
			}
		})
		if benchErr != nil {
			return nil, fmt.Errorf("%s: %w", e.name, benchErr)
		}
		res := ExperimentResult{
			Name:        e.name,
			NsPerOp:     r.NsPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		if r.NsPerOp() > 0 {
			res.MBranchesPerS = float64(branchesPerOp) / (float64(r.NsPerOp()) / 1e9) / 1e6
		}
		fmt.Printf("%-8s %12d ns/op %12d B/op %9d allocs/op %8.2f Mbranches/s\n",
			res.Name, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp, res.MBranchesPerS)
		rep.Experiments = append(rep.Experiments, res)
	}

	suite, err := compareSuites(clock, scale, workers, m)
	if err != nil {
		return nil, err
	}
	rep.Suite = *suite
	fmt.Printf("suite    serial %v, parallel(%d) %v: %.2fx, %.2f Mbranches/s\n",
		time.Duration(suite.SerialNs), suite.Workers, time.Duration(suite.ParallelNs),
		suite.Speedup, suite.ParallelMBranchesPerS)
	return rep, nil
}

// streamBranches estimates the branch events that flowed through the
// experiment's artifact pipeline: every cached benchmark contributed
// its full stream (execution), and those whose profile stage ran also
// their filtered stream (profiling). It is a throughput denominator,
// not an exact event count — figure re-executions and replays are not
// included. See README "Performance".
func streamBranches(s *harness.Suite) uint64 {
	var total uint64
	for _, name := range workload.Names() {
		for _, input := range []workload.InputSet{workload.InputRef, workload.InputA, workload.InputB} {
			a, ok := s.Cached(name, input)
			if !ok {
				continue
			}
			total += a.Filter.DynamicTotal
			if a.Profile != nil {
				total += a.Filter.DynamicKept
			}
		}
	}
	for _, name := range workload.GraphNames() {
		if a, ok := s.GraphCached(name); ok {
			total += a.Stats.CondBranches
		}
	}
	return total
}

// compareSuites runs the complete table+figure composition serially
// (one benchmark worker) and with workers, and reports wall clock and
// the parallel run's throughput.
func compareSuites(clock obs.Clock, scale float64, workers int, m *obs.Metrics) (*SuiteComparison, error) {
	run := func(workers int) (time.Duration, uint64, error) {
		s := harness.NewSuite(harness.Config{Scale: scale, Workers: workers, Metrics: m})
		elapsed, err := timeRun(clock, func() error {
			return harness.RunAll(s, io.Discard, false)
		})
		return elapsed, streamBranches(s), err
	}
	serialNs, _, err := run(1)
	if err != nil {
		return nil, err
	}
	parallelNs, branches, err := run(workers)
	if err != nil {
		return nil, err
	}
	c := &SuiteComparison{
		Workers:    workers,
		SerialNs:   serialNs.Nanoseconds(),
		ParallelNs: parallelNs.Nanoseconds(),
	}
	if parallelNs > 0 {
		c.Speedup = float64(serialNs) / float64(parallelNs)
		c.ParallelMBranchesPerS = float64(branches) / (float64(parallelNs.Nanoseconds()) / 1e9) / 1e6
	}
	return c, nil
}

// compare fails on any experiment whose ns/op regressed beyond
// tolerance relative to the baseline report. New experiments (absent
// from the baseline) pass; missing ones are reported.
func compare(baselinePath string, rep *Report, tolerance float64) error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("reading baseline: %w", err)
	}
	var base Report
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parsing baseline: %w", err)
	}
	if base.Scale != rep.Scale {
		fmt.Printf("baseline scale %v differs from run scale %v; comparing anyway\n", base.Scale, rep.Scale)
	}
	baseBy := make(map[string]ExperimentResult, len(base.Experiments))
	for _, e := range base.Experiments {
		baseBy[e.Name] = e
	}
	var failures []string
	for _, e := range rep.Experiments {
		b, ok := baseBy[e.Name]
		if !ok || b.NsPerOp <= 0 {
			continue
		}
		ratio := float64(e.NsPerOp) / float64(b.NsPerOp)
		status := "ok"
		if ratio > 1+tolerance {
			status = "REGRESSION"
			failures = append(failures,
				fmt.Sprintf("%s: %d ns/op vs baseline %d (%.2fx > %.2fx allowed)",
					e.Name, e.NsPerOp, b.NsPerOp, ratio, 1+tolerance))
		}
		fmt.Printf("compare %-8s %.2fx vs baseline (%s)\n", e.Name, ratio, status)
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d benchmark regression(s):\n\t%s", len(failures), joinLines(failures))
	}
	return nil
}

func joinLines(lines []string) string {
	out := ""
	for i, l := range lines {
		if i > 0 {
			out += "\n\t"
		}
		out += l
	}
	return out
}
