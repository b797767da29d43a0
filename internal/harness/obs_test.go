package harness

import (
	"bytes"
	"io"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/workload"
)

// metricsRegistry builds a deterministic registry for harness tests:
// frozen clock, zero allocation source.
func metricsRegistry() *obs.Registry {
	return obs.NewRegistry(
		obs.WithClock(obs.NewFakeClock(time.Unix(0, 0), 0)),
		obs.WithMemSource(func() uint64 { return 0 }),
	)
}

// TestMetricsDoNotPerturbOutput is the central determinism guarantee of
// the observability layer: a full parallel suite run renders
// byte-identical output with instrumentation off and on.
func TestMetricsDoNotPerturbOutput(t *testing.T) {
	render := func(m *obs.Metrics) string {
		// Scale 0.02 keeps the double full-suite run affordable under
		// -race; the byte-identity property is scale-independent.
		s := NewSuite(Config{Scale: 0.02, Metrics: m})
		var buf bytes.Buffer
		if err := RunAll(s, &buf, false); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	off := render(nil)
	on := render(obs.New(obs.NewRegistry()))
	if off != on {
		t.Error("RunAll output differs between metrics off and on")
	}
}

// TestStreamedCountersExact pins the instrumented pipeline's counters
// to independently-known quantities for one benchmark's profile stage.
// The stage executes the benchmark twice (the count run and the
// filtered profile run), so every VM series is twice the run's Stats;
// the profiler event count must equal the filtered dynamic branch
// count, and the pair-increment total the pair table's total weight.
func TestStreamedCountersExact(t *testing.T) {
	reg := metricsRegistry()
	s := NewSuite(Config{Scale: 0.05, Workers: 1, Metrics: obs.New(reg)})
	a, err := s.Artifacts("li", workload.InputRef)
	if err != nil {
		t.Fatal(err)
	}

	counter := func(name string) uint64 { return reg.Counter(name).Value() }
	if got := counter("wsd_vm_runs_total"); got != 2 {
		t.Errorf("vm runs = %d, want 2 (count run and filtered profile run)", got)
	}
	if got := counter("wsd_vm_instructions_total"); got != 2*a.VMStats.Instructions {
		t.Errorf("vm instructions = %d, want 2 × Stats %d", got, a.VMStats.Instructions)
	}
	if got := counter("wsd_vm_branches_total"); got != 2*a.VMStats.CondBranches {
		t.Errorf("vm branches = %d, want 2 × Stats %d", got, a.VMStats.CondBranches)
	}
	if got := counter("wsd_vm_taken_total"); got != 2*a.VMStats.Taken {
		t.Errorf("vm taken = %d, want 2 × Stats %d", got, a.VMStats.Taken)
	}

	if got := counter("wsd_profile_events_total"); got != a.Filter.DynamicKept {
		t.Errorf("profile events = %d, want filtered dynamic count %d", got, a.Filter.DynamicKept)
	}
	pairWeight, pairCount := a.Profile.Pairs.TotalWeight(), uint64(a.Profile.Pairs.NumEdges())
	if got := counter("wsd_profile_pair_increments_total"); got != pairWeight {
		t.Errorf("pair increments = %d, want pair-table total weight %d", got, pairWeight)
	}
	if got := counter("wsd_profile_merged_pairs_total"); got != pairCount {
		t.Errorf("merged pairs = %d, want distinct pair count %d", got, pairCount)
	}
	if got := counter("wsd_profile_merges_total"); got != 1 {
		t.Errorf("merges = %d, want 1", got)
	}
}

// TestShardedCountersMatchSerial checks that the deprecated
// ProfileShards knob, which callers may still set, leaves the run
// untouched: every counter — the semantic ones (events, pair
// increments, merged pairs) and the staging batch count alike — equals
// the default run's.
func TestShardedCountersMatchSerial(t *testing.T) {
	run := func(shards int) *obs.Registry {
		reg := metricsRegistry()
		s := NewSuite(Config{Scale: 0.05, Workers: 1, ProfileShards: shards, Metrics: obs.New(reg)})
		if _, err := s.Artifacts("li", workload.InputRef); err != nil {
			t.Fatal(err)
		}
		return reg
	}
	serial, sharded := run(0), run(3)
	for _, name := range []string{
		"wsd_vm_instructions_total",
		"wsd_profile_events_total",
		"wsd_profile_pair_increments_total",
		"wsd_profile_merged_pairs_total",
		"wsd_profile_shard_batches_total",
	} {
		if s, p := serial.Counter(name).Value(), sharded.Counter(name).Value(); s != p {
			t.Errorf("%s: default %d != ProfileShards=3 %d", name, s, p)
		}
	}
	if serial.Counter("wsd_profile_shard_batches_total").Value() == 0 {
		t.Error("run recorded no staging batches")
	}
}

// TestFigurePredictFlushExact checks the predictor counters flushed by
// the figure runner: every simulated configuration contributes each
// benchmark's full branch stream, so the branch total is rows × configs
// × per-row branches, and hits + mispredicts must partition it.
func TestFigurePredictFlushExact(t *testing.T) {
	reg := metricsRegistry()
	s := NewSuite(Config{Scale: 0.02, Workers: 1, Metrics: obs.New(reg)})
	res, err := s.Figure3()
	if err != nil {
		t.Fatal(err)
	}
	configs := uint64(2 + len(res.Sizes)) // conventional + interference-free + one per size
	var want uint64
	for _, row := range res.Rows {
		want += row.Branches * configs
	}
	branches := reg.Counter("wsd_predict_branches_total").Value()
	hits := reg.Counter("wsd_predict_hits_total").Value()
	miss := reg.Counter("wsd_predict_mispredicts_total").Value()
	if branches != want {
		t.Errorf("predict branches = %d, want %d (%d rows × %d configs)", branches, want, len(res.Rows), configs)
	}
	if hits+miss != branches {
		t.Errorf("hits %d + mispredicts %d != branches %d", hits, miss, branches)
	}
	if miss == 0 {
		t.Error("no mispredicts recorded; predictors are not that good")
	}
}

// TestStageSpansRecorded checks the span taxonomy: a table+figure run
// must record execute/profile/analyze/simulate stages for the
// benchmarks it touched.
func TestStageSpansRecorded(t *testing.T) {
	reg := metricsRegistry()
	s := NewSuite(Config{Scale: 0.02, Workers: 1, Metrics: obs.New(reg)})
	if _, err := s.Table2(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Figure3(); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	found := map[string]bool{}
	for _, st := range snap.Stages {
		if st.Count == 0 {
			t.Errorf("stage %s recorded with zero count", st.Name)
		}
		found[st.Name] = true
	}
	for _, want := range []string{
		obs.Name("wsd_stage", "benchmark", "li", "stage", "execute"),
		obs.Name("wsd_stage", "benchmark", "li", "stage", "profile"),
		obs.Name("wsd_stage", "benchmark", "li", "stage", "analyze"),
		obs.Name("wsd_stage", "benchmark", "li", "stage", "simulate"),
	} {
		if !found[want] {
			t.Errorf("missing stage span %s (have %v)", want, snap.Stages)
		}
	}
}

// stageCount returns how many spans the registry recorded for one
// benchmark stage.
func stageCount(reg *obs.Registry, benchmark, stage string) uint64 {
	want := obs.Name("wsd_stage", "benchmark", benchmark, "stage", stage)
	for _, st := range reg.Snapshot().Stages {
		if st.Name == want {
			return st.Count
		}
	}
	return 0
}

// TestStagedArtifactCosts pins what each artifact stage costs. Table 1
// reads only the count stage: one execution per benchmark and no
// profile. Table 2 then builds its profiles on the cached count stages
// without re-running them: one filtered execution each.
func TestStagedArtifactCosts(t *testing.T) {
	names := workload.Names()
	// The streamed (fused) pipeline is the only execution mode; the
	// subtest keeps its name from when record mode was a second row.
	t.Run("fused", func(t *testing.T) {
		reg := metricsRegistry()
		s := NewSuite(Config{Scale: 0.05, Workers: 2, Metrics: obs.New(reg)})
		counter := func(name string) uint64 { return reg.Counter(name).Value() }

		if _, err := s.Table1(); err != nil {
			t.Fatal(err)
		}
		if got := counter("wsd_vm_runs_total"); got != uint64(len(names)) {
			t.Errorf("vm runs after Table 1 = %d, want %d (one per benchmark)", got, len(names))
		}
		if got := counter("wsd_profile_events_total"); got != 0 {
			t.Errorf("profile events after Table 1 = %d, want 0", got)
		}
		for _, name := range names {
			a, ok := s.Cached(name, workload.InputRef)
			switch {
			case !ok:
				t.Errorf("%s: not cached after Table 1", name)
			case a.Profile != nil:
				t.Errorf("%s: Table 1 built a profile", name)
			case a.VMStats.CondBranches == 0:
				t.Errorf("%s: cached count stage has no VM stats", name)
			}
		}

		if _, err := s.Table2(); err != nil {
			t.Fatal(err)
		}
		if got, want := counter("wsd_vm_runs_total"), uint64(len(names)+len(Table2Benchmarks)); got != want {
			t.Errorf("vm runs after Table 2 = %d, want %d", got, want)
		}
		if got := stageCount(reg, "li", "execute"); got != 1 {
			t.Errorf("li count stage ran %d times, want 1", got)
		}
		if counter("wsd_profile_events_total") == 0 {
			t.Error("Table 2 profiled no events")
		}
	})
}

// TestPrepareStageOncePerSetting: a RunAll prepares each profiled
// stream used by Tables 3-4 and Figures 3-4 exactly twice — one pruned
// graph without classification, one with — however many sizes the
// searches probe and the figures allocate. Stage spans are labelled by
// benchmark, so a benchmark profiled under several input sets (perl,
// ss) carries two spans per input.
func TestPrepareStageOncePerSetting(t *testing.T) {
	reg := metricsRegistry()
	s := NewSuite(Config{Scale: 0.02, Workers: 2, Metrics: obs.New(reg)})
	if err := RunAll(s, io.Discard, false); err != nil {
		t.Fatal(err)
	}
	streams := map[string]map[string]bool{}
	use := func(name string, in workload.InputSet) {
		if streams[name] == nil {
			streams[name] = map[string]bool{}
		}
		streams[name][in.Name] = true
	}
	for _, sb := range SizedBenchmarkRows() {
		use(sb.Name, sb.Input)
	}
	for _, name := range FigureBenchmarks {
		use(name, workload.InputRef)
	}
	for _, name := range workload.Names() {
		want := uint64(2 * len(streams[name]))
		if got := stageCount(reg, name, "prepare"); got != want {
			t.Errorf("%s: %d prepare spans, want %d (2 per input set %v)", name, got, want, streams[name])
		}
	}
}
