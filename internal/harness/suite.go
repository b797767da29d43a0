// Package harness defines and runs the paper's experiments: Tables 1-4
// and Figures 3-4 (see DESIGN.md's per-experiment index). A Suite caches
// the expensive per-benchmark artifacts in three stages — the count
// stage (branch statistics and frequency filter), the profile stage
// built on it (the interleave profile), and the prepare stage built on
// that (the pruned conflict graph and classification that allocation
// colors, once per classification setting) — so that every table and
// figure derived from one benchmark shares a single run, as the
// paper's methodology does, and a table that needs only counts builds
// no profile.
//
// The suite is an embarrassingly parallel pipeline, like the
// trace-driven simulators it reproduces: benchmarks are independent, so
// a worker pool (Config.Workers) computes per-benchmark artifacts and
// per-row experiment results concurrently, while every table and figure
// is assembled in fixed benchmark order — rendered output is
// byte-identical for any worker count. Execution is streamed: the VM's
// branch stream fans out directly to the analysis consumers, and a
// consumer that needs the stream again re-executes the deterministic VM
// instead of replaying a retained trace (see DESIGN.md §10).
package harness

import (
	"fmt"
	"io"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workload"
)

// Config controls a Suite.
type Config struct {
	// Scale multiplies workload schedule lengths; 0 means 1.0.
	Scale float64
	// Threshold is the conflict-edge pruning threshold; 0 means the
	// paper's 100.
	Threshold uint64
	// CliqueBudget bounds working-set enumeration; 0 means the package
	// default.
	CliqueBudget int
	// BaselineBHT is the conventional BHT size compared against
	// (paper: 1024).
	BaselineBHT int
	// PHTEntries is the second-level table size (paper: 4096).
	PHTEntries int
	// AllocBHTSizes are the allocated-BHT sizes of the figures
	// (paper: 16, 128, 1024).
	AllocBHTSizes []int
	// ProfileWindow bounds the interleave scan depth: 0 picks an
	// adaptive default of twice each benchmark's nominal working-set
	// size; -1 disables the bound (the paper's exact formulation).
	// Interleavings deeper than the window are not counted; with the
	// default window those are dominated by long-range scene-to-scene
	// pairs far below the pruning threshold, so the analysis keeps its
	// shape while profiling time and pair memory drop severalfold. The
	// window used is printed with each profile step and recorded in
	// EXPERIMENTS.md.
	ProfileWindow int
	// Check runs the internal/analysis artifact verifiers on every
	// conflict graph, working-set extraction, and allocation the suite
	// produces, failing the experiment on any invariant violation.
	// Enabled by the tables CLI's -check flag and by tests.
	Check bool
	// Workers caps how many benchmarks are processed concurrently
	// across artifact computation, analysis, and predictor simulation;
	// 0 means GOMAXPROCS, 1 runs strictly serially. Results merge in
	// fixed benchmark order, so rendered output does not depend on it.
	Workers int
	// Deprecated: ignored; pair accumulation and clique mining are
	// always serial within a benchmark (DESIGN.md §11).
	ProfileShards int
	// Deprecated: ignored; execution is always streamed.
	Fused bool
	// Progress, when non-nil, receives one line per completed step.
	// Lines from concurrent workers may interleave, but each line is
	// written atomically.
	Progress io.Writer
	// Metrics, when non-nil, instruments the whole pipeline: VM
	// throughput, profiler events and merges, clique enumeration effort,
	// predictor outcomes, and per-benchmark stage spans. Disabled (nil)
	// it costs nothing; enabled it never changes any rendered result
	// (the differential suite runs with it on).
	Metrics *obs.Metrics
	// Static appends the static-vs-profiled comparison (profile-free
	// allocation from the compile-time estimate, package staticws) to
	// RunAll output.
	Static bool
	// ProgCheck verifies every compiled program with the static program
	// verifier (package progcheck) before it runs, failing the
	// computation on error-severity findings (provable out-of-bounds
	// accesses). Warn/info findings — dead code, resolved branches — are
	// reported through Progress but do not fail: the seed benchmarks
	// legitimately carry scene schedules that leave functions uncalled
	// at small scales. With Static set, the verifier's proven facts also
	// prune resolved and dead branches from the compile-time conflict
	// graph.
	ProgCheck bool
}

// Defaults fills unset fields with the paper's parameters.
func (c Config) Defaults() Config {
	if c.Scale == 0 {
		c.Scale = 1
	}
	if c.Threshold == 0 {
		c.Threshold = core.DefaultThreshold
	}
	if c.BaselineBHT == 0 {
		c.BaselineBHT = 1024
	}
	if c.PHTEntries == 0 {
		c.PHTEntries = 4096
	}
	if len(c.AllocBHTSizes) == 0 {
		c.AllocBHTSizes = []int{16, 128, 1024}
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// Artifacts are the cached products of one benchmark run. Each classic
// benchmark's artifacts come in two stages: Suite.Counts returns the
// count stage (one execution and the frequency filter; Profile nil), and
// Suite.Artifacts the profile stage built on it (Profile set).
type Artifacts struct {
	Spec    workload.Spec
	Input   workload.InputSet
	VMStats vm.Stats
	// Filter is the frequency filter at the spec's coverage. Its counts
	// are populated but Filter.Kept is nil: the filtered stream is
	// regenerated on demand (see Suite.replayFiltered).
	Filter trace.FilterResult
	// Profile is the interleave profile of the filtered stream; nil in
	// count-stage artifacts.
	Profile *profile.Profile
	// keep is the analyzed static branch set; it reproduces the
	// filtered stream from a re-execution.
	keep map[uint64]struct{}
}

// Suite runs experiments with shared per-benchmark caching. Methods are
// safe for concurrent use; concurrent requests for one benchmark stage
// share a single computation.
type Suite struct {
	cfg Config

	// counts and profiles cache the classic benchmarks' first two
	// artifact stages, keyed "benchmark/input"; prepared caches the
	// prepare stage, keyed "benchmark/input/plain" or
	// "benchmark/input/classified"; graphs caches the graph benchmarks'
	// artifacts by name.
	counts   flight[*Artifacts]
	profiles flight[*Artifacts]
	prepared flight[*core.Prepared]
	graphs   flight[*GraphArtifacts]

	progMu sync.Mutex
}

// NewSuite returns a Suite with cfg (unset fields defaulted).
func NewSuite(cfg Config) *Suite {
	return &Suite{cfg: cfg.Defaults()}
}

// Config returns the effective configuration.
func (s *Suite) Config() Config { return s.cfg }

func (s *Suite) progressf(format string, args ...any) {
	if s.cfg.Progress != nil {
		s.progMu.Lock()
		fmt.Fprintf(s.cfg.Progress, format+"\n", args...)
		s.progMu.Unlock()
	}
}

func artifactsKey(benchmark string, input workload.InputSet) string {
	return benchmark + "/" + input.Name
}

// Counts runs (or returns the cached run of) one benchmark's count
// stage under one input set: a single execution streamed into a
// frequency counter, and the frequency filter. The returned artifacts
// have no Profile; that is all Table 1 and the full-stream replays need.
func (s *Suite) Counts(benchmark string, input workload.InputSet) (*Artifacts, error) {
	return s.counts.do(artifactsKey(benchmark, input), func() (*Artifacts, error) {
		return s.computeCounts(benchmark, input)
	})
}

// Artifacts runs (or returns the cached run of) one benchmark's profile
// stage under one input set: the count stage (see Counts), then the
// interleave profile of its filtered stream. The returned artifacts
// always carry the profile.
func (s *Suite) Artifacts(benchmark string, input workload.InputSet) (*Artifacts, error) {
	return s.profiles.do(artifactsKey(benchmark, input), func() (*Artifacts, error) {
		c, err := s.Counts(benchmark, input)
		if err != nil {
			return nil, err
		}
		return s.computeProfile(c)
	})
}

func (s *Suite) computeCounts(benchmark string, input workload.InputSet) (*Artifacts, error) {
	spec, err := workload.ByName(benchmark)
	if err != nil {
		return nil, err
	}
	if s.cfg.ProgCheck {
		p, err := spec.Build(input, s.cfg.Scale)
		if err != nil {
			return nil, fmt.Errorf("harness: building %s: %w", spec.Name, err)
		}
		if _, err := s.verifyProgram(spec.Name+"/"+input.Name, p); err != nil {
			return nil, err
		}
	}
	s.progressf("run %s (input %s, scale %.2f)", spec.Name, input.Name, s.cfg.Scale)
	execSpan := s.stageSpan(spec.Name, "execute")
	var freq trace.FreqCounter
	stats, err := spec.RunInto(s.runConfig(input), &freq)
	execSpan.End()
	if err != nil {
		return nil, fmt.Errorf("harness: running %s: %w", spec.Name, err)
	}
	// The keep set is the one the frequency filter would select from a
	// recorded trace; no event buffer is ever materialized.
	dynTotal, staticTotal := freq.Total()
	keep, dynKept := trace.SelectByCoverage(freq.Stats(), spec.AnalyzeCoverage)
	return &Artifacts{
		Spec:    spec,
		Input:   input,
		VMStats: stats,
		Filter: trace.FilterResult{
			StaticKept:   len(keep),
			StaticTotal:  staticTotal,
			DynamicKept:  dynKept,
			DynamicTotal: dynTotal,
		},
		keep: keep,
	}, nil
}

// ProfileLimitError reports a filtered stream too long to profile: it
// holds more dynamic branches than the profiler's 32-bit interleave
// counters can count (profile.MaxEvents). The suite returns it before
// running the profiler.
type ProfileLimitError struct {
	Benchmark string
	Input     string
	Events    uint64 // dynamic branches in the filtered stream
	Limit     uint64 // profile.MaxEvents
}

func (e *ProfileLimitError) Error() string {
	return fmt.Sprintf("harness: %s/%s: filtered stream has %d dynamic branches, over the profiler's limit of %d",
		e.Benchmark, e.Input, e.Events, e.Limit)
}

// checkProfileLimit fails with a *ProfileLimitError when c's filtered
// stream is too long for the profiler's counters.
func checkProfileLimit(c *Artifacts) error {
	if c.Filter.DynamicKept > profile.MaxEvents {
		return &ProfileLimitError{Benchmark: c.Spec.Name, Input: c.Input.Name, Events: c.Filter.DynamicKept, Limit: profile.MaxEvents}
	}
	return nil
}

// computeProfile builds the profile stage on a finished count stage c:
// a second execution, filtered through c's keep set, streams into the
// profiler. c is shared by every reader of the count stage, so the
// profile goes into a copy.
func (s *Suite) computeProfile(c *Artifacts) (*Artifacts, error) {
	if err := checkProfileLimit(c); err != nil {
		return nil, err
	}
	window := s.profileWindow(c.Spec)
	s.progressf("profile %s: %d dynamic branches (%d static, %.2f%% analyzed, window %d)",
		c.Spec.Name, c.Filter.DynamicKept, c.Filter.StaticKept, 100*c.Filter.Coverage(), window)
	profSpan := s.stageSpan(c.Spec.Name, "profile")
	defer profSpan.End()
	prof := profile.NewProfiler(c.Spec.Name, c.Input.Name,
		profile.WithWindow(window), profile.WithMetrics(s.cfg.Metrics.Profile()))
	// The filtered stream holds exactly the kept static branches, so
	// that is the count the profiler's rows are sized to.
	prof.Reserve(c.Filter.StaticKept)
	if err := s.replayFiltered(c, prof); err != nil {
		return nil, err
	}
	prof.SetInstructions(c.VMStats.Instructions)
	a := *c
	a.Profile = prof.Profile()
	return &a, nil
}

// prepare returns (or computes once) the prepare stage of a's profile:
// its conflict graph pruned at the suite's threshold and, when
// classified, its classification and pins. Every allocation and size
// search over one profile and classification setting shares it.
func (s *Suite) prepare(a *Artifacts, classified bool) (*core.Prepared, error) {
	key := artifactsKey(a.Spec.Name, a.Input) + "/plain"
	if classified {
		key = artifactsKey(a.Spec.Name, a.Input) + "/classified"
	}
	return s.prepared.do(key, func() (*core.Prepared, error) {
		span := s.stageSpan(a.Spec.Name, "prepare")
		defer span.End()
		return core.Prepare(a.Profile, core.AllocationConfig{
			Threshold:         s.cfg.Threshold,
			UseClassification: classified,
		})
	})
}

// profileWindow resolves the interleave scan window for one spec.
func (s *Suite) profileWindow(spec workload.Spec) int {
	window := s.cfg.ProfileWindow
	switch {
	case window < 0:
		return 0 // exact, unbounded
	case window == 0:
		return 2 * spec.WorkingSetSize()
	}
	return window
}

// stageSpan opens a per-benchmark stage span (no-op without metrics).
func (s *Suite) stageSpan(benchmark, stage string) *obs.Span {
	return s.cfg.Metrics.StartSpan(obs.Name("wsd_stage", "benchmark", benchmark, "stage", stage))
}

// runConfig is the execution configuration of every classic-benchmark
// run the suite makes.
func (s *Suite) runConfig(input workload.InputSet) workload.RunConfig {
	return workload.RunConfig{Input: input, Scale: s.cfg.Scale, Metrics: s.cfg.Metrics.VM()}
}

// replayFull drives the benchmark's complete branch stream into sink by
// re-executing the deterministic VM.
func (s *Suite) replayFull(a *Artifacts, sink vm.BranchSink) error {
	if _, err := a.Spec.RunInto(s.runConfig(a.Input), sink); err != nil {
		return fmt.Errorf("harness: replaying %s: %w", a.Spec.Name, err)
	}
	return nil
}

// replayFiltered drives the frequency-filtered stream into sink: a
// re-execution whose stream passes through the count stage's keep set.
func (s *Suite) replayFiltered(a *Artifacts, sink vm.BranchSink) error {
	if _, err := a.Spec.RunInto(s.runConfig(a.Input), trace.NewFilterSink(a.keep, sink)); err != nil {
		return fmt.Errorf("harness: replaying %s (filtered): %w", a.Spec.Name, err)
	}
	return nil
}

// Cached returns a benchmark's most complete finished artifacts — the
// profile stage if it is done, else the count stage — without
// triggering (or waiting on) a computation. VMStats is set either way;
// Profile is nil unless the profile stage finished. The benchmark
// tooling uses it to enumerate what a run actually touched.
func (s *Suite) Cached(benchmark string, input workload.InputSet) (*Artifacts, bool) {
	key := artifactsKey(benchmark, input)
	if a, ok := s.profiles.peek(key); ok {
		return a, true
	}
	return s.counts.peek(key)
}

// Table2Benchmarks is the paper's Table 2 row set (gs and tex appear
// only in the later tables).
var Table2Benchmarks = []string{
	"compress", "gcc", "ijpeg", "li", "m88ksim", "perl",
	"chess", "pgp", "plot", "python", "ss",
}

// SizedBenchmarks is the paper's Table 3/4 row set: alphabetical, with
// perl and ss contributing two input-set variants each.
type SizedBenchmark struct {
	Name  string
	Input workload.InputSet
	// Label is the row label (e.g. "perl_a").
	Label string
}

// SizedBenchmarkRows returns the Table 3/4 rows.
func SizedBenchmarkRows() []SizedBenchmark {
	return []SizedBenchmark{
		{"chess", workload.InputRef, "chess"},
		{"compress", workload.InputRef, "compress"},
		{"gcc", workload.InputRef, "gcc"},
		{"gs", workload.InputRef, "gs"},
		{"li", workload.InputRef, "li"},
		{"m88ksim", workload.InputRef, "m88ksim"},
		{"perl", workload.InputA, "perl_a"},
		{"perl", workload.InputB, "perl_b"},
		{"pgp", workload.InputRef, "pgp"},
		{"plot", workload.InputRef, "plot"},
		{"python", workload.InputRef, "python"},
		{"ss", workload.InputA, "ss_a"},
		{"ss", workload.InputB, "ss_b"},
		{"tex", workload.InputRef, "tex"},
	}
}

// FigureBenchmarks is the benchmark set of Figures 3 and 4.
var FigureBenchmarks = []string{
	"compress", "gcc", "ijpeg", "li", "m88ksim", "perl",
	"chess", "gs", "pgp", "plot", "python", "ss", "tex",
}
