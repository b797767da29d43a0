package main

import (
	"fmt"
	"io"

	"repro/internal/harness"
	"repro/internal/workload"
)

// benchWorkload is one benchmark workload: the harness entry point its
// untraced pass calls, the scale it runs at, the experiments its traced
// pass mirrors stage by stage, and the reference figures taken from the
// seed commit.
type benchWorkload struct {
	name  string
	scale float64
	// run is the untraced pass: the harness entry point cmd/tables calls.
	run func(s *harness.Suite, w io.Writer) error
	// plan lists the experiments the untraced pass renders; the traced
	// pass computes the same per-stream results through the layers.
	plan plan
	// digest is the SHA-256 of the untraced pass's rendered output at
	// the seed commit. A pass whose output differs has failed.
	digest string
	// branches is the dynamic conditional-branch count of the
	// workload's distinct input streams, each counted once.
	branches uint64
}

// plan names the experiments of a workload. The classic fields follow
// the harness's Tables 1-4 and Figures 3-4 row sets; graphs selects the
// graph-kernel zoo experiment.
type plan struct {
	table1 []string
	table2 []string
	sized  []harness.SizedBenchmark
	figure []string
	graphs bool
}

var workloads = []benchWorkload{
	{
		name:  "paper",
		scale: 0.1,
		run:   func(s *harness.Suite, w io.Writer) error { return harness.RunAll(s, w, false) },
		plan: plan{
			table1: workload.Names(),
			table2: harness.Table2Benchmarks,
			sized:  harness.SizedBenchmarkRows(),
			figure: harness.FigureBenchmarks,
		},
		digest:   "15e64e106e62562421526294db86de8f1a433956d724e5c2e222a47dd7180fa5",
		branches: 1593514,
	},
	{
		name:     "census",
		scale:    0.1,
		run:      func(s *harness.Suite, w io.Writer) error { return harness.RunTable(s, w, 1, false) },
		plan:     plan{table1: workload.Names()},
		digest:   "a416cf6aa8ae56de53cc2bfac25e5e2792eb8a754af9929a7ade69f456749742",
		branches: 1213054,
	},
	{
		name:     "graph-zoo",
		scale:    8,
		run:      func(s *harness.Suite, w io.Writer) error { return harness.RunGraphs(s, w, false) },
		plan:     plan{graphs: true},
		digest:   "0eb37e0b99263a604049232aec9ffeece19c831f855fa14693a85c732b14c543",
		branches: 1869156,
	},
}

func workloadByName(name string) (benchWorkload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return benchWorkload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// stream is one distinct input stream of a classic workload: a
// benchmark under one input set, with the experiments that read it.
type stream struct {
	name   string
	input  workload.InputSet
	label  string // Table 3/4 row label
	table1 bool
	table2 bool
	sized  bool
	figure bool
}

// streams returns the plan's distinct classic streams in order of first
// use: Table 1's reference inputs, then the Table 3/4 input variants.
func (p plan) streams() []stream {
	var out []stream
	index := make(map[string]int)
	get := func(name string, input workload.InputSet) *stream {
		key := name + "/" + input.Name
		if i, ok := index[key]; ok {
			return &out[i]
		}
		index[key] = len(out)
		out = append(out, stream{name: name, input: input, label: name})
		return &out[len(out)-1]
	}
	for _, n := range p.table1 {
		get(n, workload.InputRef).table1 = true
	}
	for _, n := range p.table2 {
		get(n, workload.InputRef).table2 = true
	}
	for _, sb := range p.sized {
		s := get(sb.Name, sb.Input)
		s.sized = true
		s.label = sb.Label
	}
	for _, n := range p.figure {
		get(n, workload.InputRef).figure = true
	}
	return out
}

// streamCount is the number of distinct input streams the workload runs.
func (p plan) streamCount() int {
	if p.graphs {
		return len(workload.GraphNames())
	}
	return len(p.streams())
}

// config is the suite configuration cmd/tables builds from its default
// flags at the workload's scale: fused streaming execution, workers and
// profile shards at their GOMAXPROCS defaults, no progress output.
func (w benchWorkload) config() harness.Config {
	return harness.Config{Scale: w.scale, Fused: true}
}
