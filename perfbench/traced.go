package main

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/profile"
	"repro/internal/program"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workload"
)

// The traced pass drives a workload's work stage by stage through each
// layer's public functions, one stream at a time, with a span around
// every call. Span names are "<layer>.<operation>"; a layer's busy time
// is the summed self time of its spans. Streams are recorded once and
// replayed into the trace, profile and predict layers, so those spans
// hold no VM time.

// span is one timed interval of the traced pass.
type span struct {
	name       string
	parent     int
	start, end time.Duration
}

// tracer keeps the traced pass's spans in memory. The pass is serial,
// so spans nest strictly.
type tracer struct {
	clock  obs.Clock
	origin time.Time
	spans  []span
	open   []int
}

func newTracer(clock obs.Clock) *tracer {
	return &tracer{clock: clock, origin: clock.Now()}
}

func (t *tracer) begin(name string) {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, parent: parent, start: t.clock.Now().Sub(t.origin)})
	t.open = append(t.open, len(t.spans)-1)
}

func (t *tracer) end() {
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].end = t.clock.Now().Sub(t.origin)
}

// do runs f inside a span named name.
func (t *tracer) do(name string, f func()) {
	t.begin(name)
	f()
	t.end()
}

// selfTimes sums, per span name, each span's duration minus the part
// its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	covered := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			covered[s.parent] += s.end - s.start
		}
	}
	self := make(map[string]time.Duration)
	for i, s := range t.spans {
		self[s.name] += s.end - s.start - covered[i]
	}
	return self
}

// layerOf returns the layer a span name belongs to, or "" for the
// traced pass's own structure spans.
func layerOf(name string) string {
	layer, _, ok := strings.Cut(name, ".")
	if !ok {
		return ""
	}
	return layer
}

// counts are the per-layer work counts of one traced pass.
type counts struct {
	vmRuns, vmInstructions     uint64
	traceEvents                uint64
	profileEvents, pairs       uint64
	tableBytes, profileAlloc   uint64
	edges, colorings, probes   uint64
	coreAlloc, predictLookups  uint64
	pairIncrements, cliqueStep uint64
}

// tracedPass is the stage-by-stage pass over one workload.
type tracedPass struct {
	w   benchWorkload
	cfg harness.Config
	// profiled names the classic streams, keyed "name/input", whose
	// profile the untraced pass built. They are profiled here too, even
	// where no experiment reads the profile, so the traced pass does the
	// work the harness does.
	profiled map[string]bool
	// heldout, when set, derives every input from this seed instead of
	// the harness's fixed inputs.
	heldout *uint64

	t       *tracer
	metrics *obs.Metrics
	c       counts

	// Results: classic rows keyed by benchmark name (Table 3/4 rows by
	// label), graph rows per predictor kind in registry order. Index 0
	// and 1 of sized and figure are without and with classification.
	table1 map[string]harness.Table1Row
	table2 map[string]harness.Table2Row
	sized  [2]map[string]harness.SizeRow
	figure [2]map[string]harness.FigureRow
	graphs map[string][]harness.GraphRow
	// tables are the rendered tables, in the untraced pass's order.
	tables []string
}

func newTracedPass(w benchWorkload, profiled map[string]bool, heldout *uint64) *tracedPass {
	return &tracedPass{
		w:        w,
		cfg:      w.config().Defaults(),
		profiled: profiled,
		heldout:  heldout,
		t:        newTracer(obs.SystemClock()),
		metrics:  obs.New(obs.NewRegistry()),
		table1:   make(map[string]harness.Table1Row),
		table2:   make(map[string]harness.Table2Row),
		sized:    [2]map[string]harness.SizeRow{{}, {}},
		figure:   [2]map[string]harness.FigureRow{{}, {}},
		graphs:   make(map[string][]harness.GraphRow),
	}
}

// run executes the pass and returns its wall time.
func (p *tracedPass) run() (time.Duration, error) {
	var err error
	p.t.do("pass", func() {
		if p.w.plan.graphs {
			err = p.runGraphs()
		} else {
			err = p.runClassic()
		}
	})
	root := p.t.spans[0]
	p.c.pairIncrements = p.metrics.Profile().PairIncrements.Value()
	p.c.cliqueStep = p.metrics.Clique().Steps.Value()
	return root.end - root.start, err
}

// mix derives a held-out seed from the benchmark seed and a stream role.
func mix(seed, role uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15*(role+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// inputFor maps a harness input set to the pass's input.
func (p *tracedPass) inputFor(in workload.InputSet) workload.InputSet {
	if p.heldout == nil {
		return in
	}
	role := map[string]uint64{"ref": 0, "a": 1, "b": 2}[in.Name]
	return workload.InputSet{Name: "heldout-" + in.Name, Seed: mix(*p.heldout, role)}
}

// allocDelta runs f and returns the bytes it allocated (read outside
// any span, so the stop-the-world read is not charged to a layer).
func allocDelta(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func (p *tracedPass) runClassic() error {
	streams := p.w.plan.streams()
	for _, s := range streams {
		var err error
		p.t.do("stream", func() { err = p.classicStream(s) })
		if err != nil {
			return fmt.Errorf("%s/%s: %w", s.name, s.input.Name, err)
		}
	}
	p.t.do("harness.render", func() { p.tables = p.renderClassic() })
	return nil
}

func (p *tracedPass) classicStream(s stream) error {
	spec, err := workload.ByName(s.name)
	if err != nil {
		return err
	}
	input := p.inputFor(s.input)
	cfg := p.cfg

	rec := trace.NewRecorder(spec.Name, input.Name)
	rec.Reserve(int(spec.DynamicBranches(cfg.Scale)))
	var stats vm.Stats
	p.t.do("vm.run", func() {
		stats, err = spec.RunInto(workload.RunConfig{Input: input, Scale: cfg.Scale}, rec)
	})
	if err != nil {
		return err
	}
	full := rec.Finish(stats.Instructions)
	p.c.vmRuns++
	p.c.vmInstructions += stats.Instructions

	var filter trace.FilterResult
	var keep map[uint64]struct{}
	p.t.do("trace.select", func() {
		var freq trace.FreqCounter
		full.Replay(&freq)
		dynTotal, staticTotal := freq.Total()
		var dynKept uint64
		keep, dynKept = trace.SelectByCoverage(freq.Stats(), spec.AnalyzeCoverage)
		filter = trace.FilterResult{
			StaticKept: len(keep), StaticTotal: staticTotal,
			DynamicKept: dynKept, DynamicTotal: dynTotal,
		}
	})
	p.c.traceEvents += uint64(len(full.Events))
	if s.table1 {
		p.table1[s.name] = harness.Table1Row{
			Benchmark:       s.name,
			InputSet:        input.Name,
			TotalDynamic:    filter.DynamicTotal,
			AnalyzedDynamic: filter.DynamicKept,
			Coverage:        filter.Coverage(),
			StaticTotal:     filter.StaticTotal,
			StaticAnalyzed:  filter.StaticKept,
		}
	}
	if p.heldout != nil {
		if filter.DynamicKept > filter.DynamicTotal || filter.DynamicTotal != stats.CondBranches {
			return fmt.Errorf("held-out filter invariant violated: %+v vs %d branches", filter, stats.CondBranches)
		}
	}

	if !s.table2 && !s.sized && !s.figure && !p.profiled[s.name+"/"+s.input.Name] {
		return nil
	}

	frec := trace.NewRecorder(spec.Name, input.Name)
	frec.Reserve(int(filter.DynamicKept))
	p.t.do("trace.filter", func() { full.Replay(trace.NewFilterSink(keep, frec)) })
	kept := frec.Finish(stats.Instructions)
	p.c.traceEvents += uint64(len(full.Events))

	// The window is the harness's default: twice the spec's nominal
	// working-set size.
	prof := profile.NewProfiler(spec.Name, input.Name,
		profile.WithWindow(2*spec.WorkingSetSize()),
		profile.WithShards(cfg.ProfileShards),
		profile.WithMetrics(p.metrics.Profile()))
	prof.Reserve(spec.StaticBranches())
	prf := p.profileStream(prof, kept, stats.Instructions)
	if p.heldout != nil {
		if prf.DynamicBranches() != filter.DynamicKept {
			return fmt.Errorf("held-out profile saw %d events, filter kept %d", prf.DynamicBranches(), filter.DynamicKept)
		}
	}
	if s.table2 || s.sized || s.figure {
		p.buildGraph(prf)
	}

	if s.table2 {
		var res *core.AnalysisResult
		p.t.do("graph.cliques", func() {
			res, err = core.Analyze(prf, core.AnalysisConfig{
				Threshold:    cfg.Threshold,
				Definition:   core.MaximalCliques,
				CliqueBudget: cfg.CliqueBudget,
				Workers:      cfg.ProfileShards,
				Metrics:      p.metrics.Clique(),
			})
		})
		if err != nil {
			return err
		}
		p.table2[s.name] = harness.Table2Row{
			Benchmark:  s.name,
			NumSets:    res.NumSets(),
			AvgStatic:  res.AvgStaticSize(),
			AvgDynamic: res.AvgDynamicSize(),
			MaxSet:     res.MaxSetSize(),
			Truncated:  res.Truncated,
		}
	}

	if s.sized {
		for i, classified := range []bool{false, true} {
			var res core.SizeSearchResult
			p.c.coreAlloc += allocDelta(func() {
				p.t.do("core.size", func() {
					res, err = core.RequiredBHTSize(prf, cfg.BaselineBHT, core.AllocationConfig{
						Threshold:         cfg.Threshold,
						UseClassification: classified,
					})
				})
			})
			if err != nil {
				return err
			}
			p.c.colorings += uint64(res.Colorings)
			p.c.probes += uint64(res.Colorings)
			p.sized[i][s.label] = harness.SizeRow{
				Label:        s.label,
				RequiredSize: res.RequiredSize,
				AllocCost:    res.AllocCost,
				BaselineCost: res.BaselineCost,
			}
		}
	}

	if s.figure {
		for i, classified := range []bool{false, true} {
			row, err := p.figureRow(spec.Name, prf, full, classified)
			if err != nil {
				return err
			}
			p.figure[i][s.name] = row
		}
	}
	return nil
}

// profileStream accumulates a replayed stream into prof and extracts
// the profile.
func (p *tracedPass) profileStream(prof *profile.Profiler, events *trace.Trace, instructions uint64) *profile.Profile {
	var prf *profile.Profile
	p.c.profileAlloc += allocDelta(func() {
		p.t.do("profile.accumulate", func() { events.Replay(prof) })
		prof.SetInstructions(instructions)
		p.t.do("profile.extract", func() { prf = prof.Profile() })
	})
	// Read after extraction, which quiesces the shard workers.
	p.c.tableBytes += prof.TableBytes()
	p.c.profileEvents += uint64(len(events.Events))
	p.c.pairs += uint64(prf.Pairs.Len())
	return prf
}

// buildGraph times one conflict-graph build alone. The analyses build
// their own graphs inside their calls; this build is the traced pass's
// measurement of that step and feeds no result.
func (p *tracedPass) buildGraph(prf *profile.Profile) {
	p.t.do("graph.build", func() {
		p.c.edges += uint64(prf.BuildGraph(p.cfg.Threshold).NumEdges())
	})
}

// allocate computes the allocation at every configured size.
func (p *tracedPass) allocate(prf *profile.Profile, classified bool) ([]*core.AllocationMap, error) {
	maps := make([]*core.AllocationMap, len(p.cfg.AllocBHTSizes))
	var err error
	p.c.coreAlloc += allocDelta(func() {
		for i, size := range p.cfg.AllocBHTSizes {
			var a *core.Allocation
			p.t.do("core.allocate", func() {
				a, err = core.Allocate(prf, core.AllocationConfig{
					TableSize:         size,
					Threshold:         p.cfg.Threshold,
					UseClassification: classified,
				})
			})
			if err != nil {
				return
			}
			p.c.colorings++
			maps[i] = a.Map
		}
	})
	return maps, err
}

// figureRow simulates one Figure 3/4 row on the replayed full stream.
func (p *tracedPass) figureRow(name string, prf *profile.Profile, full *trace.Trace, classified bool) (harness.FigureRow, error) {
	row := harness.FigureRow{Benchmark: name}
	maps, err := p.allocate(prf, classified)
	if err != nil {
		return row, err
	}
	conv, err := predict.NewPAg(predict.PCModIndexer{Entries: p.cfg.BaselineBHT}, p.cfg.PHTEntries)
	if err != nil {
		return row, err
	}
	ifree, err := predict.NewPAg(predict.NewIdealIndexer(), p.cfg.PHTEntries)
	if err != nil {
		return row, err
	}
	sims := []*predict.Sim{predict.NewSim(conv), predict.NewSim(ifree)}
	for _, m := range maps {
		pag, err := predict.NewPAg(predict.AllocIndexer{Map: m}, p.cfg.PHTEntries)
		if err != nil {
			return row, err
		}
		sims = append(sims, predict.NewSim(pag))
	}
	sinks := make(vm.MultiSink, len(sims))
	for i, s := range sims {
		sinks[i] = s
	}
	p.t.do("predict.sim", func() { full.Replay(sinks) })
	for _, s := range sims {
		p.c.predictLookups += s.Branches()
	}
	if p.heldout != nil {
		if sims[0].Branches() != uint64(len(full.Events)) {
			return row, fmt.Errorf("held-out sim saw %d branches, stream has %d", sims[0].Branches(), len(full.Events))
		}
	}
	row.Conventional = sims[0].MispredictRate()
	row.InterferenceFree = sims[1].MispredictRate()
	row.Branches = sims[0].Branches()
	for _, s := range sims[2:] {
		row.Alloc = append(row.Alloc, s.MispredictRate())
	}
	return row, nil
}

func (p *tracedPass) runGraphs() error {
	for _, name := range workload.GraphNames() {
		var err error
		p.t.do("stream", func() { err = p.graphStream(name) })
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	p.t.do("harness.render", func() { p.tables = p.renderGraphs() })
	return nil
}

func (p *tracedPass) graphStream(name string) error {
	spec, err := workload.GraphByName(name)
	if err != nil {
		return err
	}
	if p.heldout != nil {
		// Both variants of a kernel×generator pair share one graph.
		spec.Seed = mix(*p.heldout, 16+uint64(slices.Index(workload.GraphPairNames(), spec.PairName())))
	}
	scale := p.cfg.Scale

	var prog *program.Program
	p.t.do("vm.build", func() { prog, err = spec.Build(scale) })
	if err != nil {
		return err
	}
	rec := trace.NewRecorder(spec.Name, "ref")
	var m *vm.Machine
	var stats vm.Stats
	p.t.do("vm.run", func() { m, stats, err = spec.RunInto(scale, rec, nil) })
	if err != nil {
		return err
	}
	full := rec.Finish(stats.Instructions)
	p.c.vmRuns++
	p.c.vmInstructions += stats.Instructions
	if !slices.Equal(spec.Result(m), spec.Reference()) {
		return fmt.Errorf("kernel result differs from the Go reference")
	}

	prof := profile.NewProfiler(spec.Name, "ref",
		profile.WithShards(p.cfg.ProfileShards),
		profile.WithMetrics(p.metrics.Profile()))
	prof.Reserve(prog.NumCondBranches())
	prf := p.profileStream(prof, full, stats.Instructions)
	p.buildGraph(prf)

	sizes := p.cfg.AllocBHTSizes
	maps, err := p.allocate(prf, false)
	if err != nil {
		return err
	}
	kinds := predict.ZooKinds()
	conv := make([][]*predict.Sim, len(kinds))
	alloc := make([][]*predict.Sim, len(kinds))
	sinks := make(vm.MultiSink, 0, 2*len(kinds)*len(sizes))
	for ki, kind := range kinds {
		for si, size := range sizes {
			zc := predict.ZooConfig{TableSize: size, PHTEntries: p.cfg.PHTEntries}
			c, err := predict.NewZooPredictor(kind, predict.PCModIndexer{Entries: size}, zc)
			if err != nil {
				return err
			}
			a, err := predict.NewZooPredictor(kind, predict.AllocIndexer{Map: maps[si]}, zc)
			if err != nil {
				return err
			}
			conv[ki] = append(conv[ki], predict.NewSim(c))
			alloc[ki] = append(alloc[ki], predict.NewSim(a))
			sinks = append(sinks, conv[ki][si], alloc[ki][si])
		}
	}
	p.t.do("predict.sim", func() { full.Replay(sinks) })
	for ki, kind := range kinds {
		row := harness.GraphRow{
			Benchmark: spec.PairName(),
			Variant:   spec.Variant(),
			Kind:      kind,
			Static:    prog.NumCondBranches(),
			TakenRate: stats.TakenRate(),
		}
		for si := range sizes {
			p.c.predictLookups += conv[ki][si].Branches() + alloc[ki][si].Branches()
			row.Conv = append(row.Conv, conv[ki][si].MispredictRate())
			row.Alloc = append(row.Alloc, alloc[ki][si].MispredictRate())
			row.Branches = conv[ki][si].Branches()
		}
		p.graphs[kind] = append(p.graphs[kind], row)
	}
	return nil
}

// renderClassic renders the traced pass's rows with the harness's own
// renderers, in the order the untraced pass writes them.
func (p *tracedPass) renderClassic() []string {
	plan := p.w.plan
	var out []string
	if len(plan.table1) > 0 {
		out = append(out, harness.RenderTable1(inOrder(p.table1, plan.table1), false))
	}
	if len(plan.table2) > 0 {
		out = append(out, harness.RenderTable2(inOrder(p.table2, plan.table2), false))
	}
	if len(plan.sized) > 0 {
		labels := make([]string, len(plan.sized))
		for i, sb := range plan.sized {
			labels[i] = sb.Label
		}
		for i := range p.sized {
			out = append(out, harness.RenderSizeTable(inOrder(p.sized[i], labels), p.cfg.BaselineBHT, false))
		}
	}
	if len(plan.figure) > 0 {
		for i, classified := range []bool{false, true} {
			rows := inOrder(p.figure[i], plan.figure)
			out = append(out, harness.RenderFigure(&harness.FigureResult{
				Classified: classified,
				Sizes:      p.cfg.AllocBHTSizes,
				Rows:       rows,
				Average:    averageRow(rows, len(p.cfg.AllocBHTSizes)),
			}, false))
		}
	}
	return out
}

// inOrder returns the rows of keys, in that order.
func inOrder[R any](rows map[string]R, keys []string) []R {
	out := make([]R, len(keys))
	for i, k := range keys {
		out[i] = rows[k]
	}
	return out
}

func (p *tracedPass) renderGraphs() []string {
	return []string{harness.RenderGraphs(&harness.GraphsResult{
		Kinds: predict.ZooKinds(),
		Sizes: p.cfg.AllocBHTSizes,
		Rows:  p.graphs,
	}, false)}
}

// alter changes one traced result on purpose and renders again: the
// negative control of the mirror check.
func (p *tracedPass) alter() {
	switch {
	case p.w.plan.graphs:
		p.graphs[predict.ZooKinds()[0]][0].Conv[0] += 0.25
		p.tables = p.renderGraphs()
	case len(p.w.plan.figure) > 0:
		name := p.w.plan.figure[0]
		row := p.figure[1][name]
		row.Conventional += 0.25
		p.figure[1][name] = row
		p.tables = p.renderClassic()
	default:
		name := p.w.plan.table1[0]
		row := p.table1[name]
		row.AnalyzedDynamic++
		p.table1[name] = row
		p.tables = p.renderClassic()
	}
}

// averageRow is the figures' arithmetic-mean row, summed in row order
// as the harness sums it.
func averageRow(rows []harness.FigureRow, sizes int) harness.FigureRow {
	avg := harness.FigureRow{Benchmark: "average", Alloc: make([]float64, sizes)}
	if len(rows) == 0 {
		return avg
	}
	for _, r := range rows {
		avg.Conventional += r.Conventional
		avg.InterferenceFree += r.InterferenceFree
		avg.Branches += r.Branches
		for i := range r.Alloc {
			avg.Alloc[i] += r.Alloc[i]
		}
	}
	n := float64(len(rows))
	avg.Conventional /= n
	avg.InterferenceFree /= n
	for i := range avg.Alloc {
		avg.Alloc[i] /= n
	}
	return avg
}

// mirror checks that every table the traced pass rendered appears, in
// order, in the untraced pass's output. It returns the first table that
// does not.
func mirror(tables []string, untraced string) error {
	rest := untraced
	for i, t := range tables {
		at := strings.Index(rest, t)
		if at < 0 {
			return fmt.Errorf("traced table %d of %d differs from the untraced output:\n%s", i+1, len(tables), t)
		}
		rest = rest[at+len(t):]
	}
	return nil
}
