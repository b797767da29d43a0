package profile

import (
	"testing"

	"repro/internal/rng"
)

// syntheticStream models a scene-structured branch stream: ws branches
// rotate repeatedly, with occasional switches to a different window of
// branches — the access pattern the profiler sees from real workloads.
func syntheticStream(statics, ws, events int) []uint64 {
	r := rng.New(42)
	// A fixed set of overlapping scene windows, as the workload
	// generator produces; visits pick among them.
	const scenes = 12
	starts := make([]int, scenes)
	for i := range starts {
		starts[i] = i * (statics - ws) / (scenes - 1)
	}
	pcs := make([]uint64, 0, events)
	for len(pcs) < events {
		start := starts[r.Intn(scenes)]
		// One scene visit: rotate the window several times.
		for rot := 0; rot < 10 && len(pcs) < events; rot++ {
			for j := 0; j < ws && len(pcs) < events; j++ {
				pcs = append(pcs, uint64(start+j)*4)
			}
		}
	}
	return pcs
}

// BenchmarkProfilerUnbounded measures exact-profiling throughput.
func BenchmarkProfilerUnbounded(b *testing.B) {
	stream := syntheticStream(2000, 200, 1<<18)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := NewProfiler("bench", "ref")
		for j, pc := range stream {
			p.Branch(pc, j&1 == 0, uint64(j))
		}
	}
	b.ReportMetric(float64(len(stream))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mbranches/s")
}

// BenchmarkProfilerWindowed measures the harness's bounded-window
// configuration.
func BenchmarkProfilerWindowed(b *testing.B) {
	stream := syntheticStream(2000, 200, 1<<18)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := NewProfiler("bench", "ref", WithWindow(400))
		for j, pc := range stream {
			p.Branch(pc, j&1 == 0, uint64(j))
		}
	}
	b.ReportMetric(float64(len(stream))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mbranches/s")
}

// BenchmarkProfileExtraction measures Profile() — graph.FromRows
// compacting the dense per-branch neighbor rows, transposing them and
// merging each row with its transpose into the conflict graph's CSR.
func BenchmarkProfileExtraction(b *testing.B) {
	stream := syntheticStream(2000, 200, 1<<18)
	p := NewProfiler("bench", "ref")
	for j, pc := range stream {
		p.Branch(pc, j&1 == 0, uint64(j))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prof := p.Profile()
		if prof.Pairs.Len() == 0 {
			b.Fatal("empty profile")
		}
	}
}

// BenchmarkMerge measures cumulative-profile merging.
func BenchmarkMerge(b *testing.B) {
	stream := syntheticStream(2000, 200, 1<<17)
	mk := func(input string) *Profile {
		p := NewProfiler("bench", input)
		for j, pc := range stream {
			p.Branch(pc, j&1 == 0, uint64(j))
		}
		return p.Profile()
	}
	pa, pb := mk("a"), mk("b")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Merge(pa, pb); err != nil {
			b.Fatal(err)
		}
	}
}
