package profile

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// pairDump renders a conflict graph canonically, one line per edge in
// row order. Two graphs with identical contents dump identically.
func pairDump(g *graph.Graph) string {
	var b strings.Builder
	for u := int32(0); int(u) < g.N(); u++ {
		nbrs, wts := g.Neighbors(u)
		for i, v := range nbrs {
			if u < v {
				fmt.Fprintf(&b, "%d-%d:%d\n", u, v, wts[i])
			}
		}
	}
	return b.String()
}

// synthStream drives a deterministic pseudo-random branch stream into
// each sink: a few hundred static branches with skewed reuse, enough to
// exercise batch flushes and row growth.
func synthStream(events int, seed uint64, sinks ...interface {
	Branch(pc uint64, taken bool, icount uint64)
}) {
	r := rng.New(seed)
	const static = 300
	for i := 0; i < events; i++ {
		// Zipf-ish reuse: half the events hit a small hot set.
		var id uint64
		if r.Uint64()%2 == 0 {
			id = r.Uint64() % 16
		} else {
			id = r.Uint64() % static
		}
		pc := 0x1000 + id*4
		taken := r.Uint64()%3 == 0
		for _, s := range sinks {
			s.Branch(pc, taken, uint64(i))
		}
	}
}

// TestShardedProfilerMatchesSerial is the profiler-level differential
// test: the extracted profile — pair table contents, per-branch stats —
// must equal the naive time-stamp reference's exactly. WithShards is a
// deprecated no-op that existing callers still pass; each subtest pins
// that it leaves the profile unchanged.
func TestShardedProfilerMatchesSerial(t *testing.T) {
	serial := NewProfiler("synth", "ref")
	naive := NewNaiveProfiler("synth", "ref")
	synthStream(60_000, 42, serial, naive)
	want := serial.Profile()
	wantDump := pairDump(want.Pairs)

	nv := naive.Profile()
	if got := pairDump(nv.Pairs); got != wantDump {
		t.Fatalf("serial profiler disagrees with naive reference")
	}
	if !slices.Equal(nv.Exec, want.Exec) || !slices.Equal(nv.Taken, want.Taken) {
		t.Fatalf("per-branch stats disagree with naive reference")
	}

	for _, n := range []int{2, 3, 7, runtime.GOMAXPROCS(0)} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			p := NewProfiler("synth", "ref", WithShards(n))
			synthStream(60_000, 42, p)
			got := p.Profile()
			if pairDump(got.Pairs) != wantDump || !slices.Equal(got.Exec, want.Exec) || !slices.Equal(got.Taken, want.Taken) {
				t.Errorf("WithShards(%d) changed the profile", n)
			}
		})
	}
}

// TestShardedProfilerWindowed checks a bounded scan window, where the
// recency scan stops early, against the naive reference clipped to the
// same window.
func TestShardedProfilerWindowed(t *testing.T) {
	p := NewProfiler("synth", "ref", WithWindow(8))
	naive := NewNaiveProfiler("synth", "ref")
	naive.window = 8
	synthStream(30_000, 7, p, naive)
	got, want := p.Profile(), naive.Profile()
	if pairDump(got.Pairs) != pairDump(want.Pairs) {
		t.Fatal("windowed profile differs from the windowed naive reference")
	}
	unbounded := NewProfiler("synth", "ref")
	synthStream(30_000, 7, unbounded)
	if pairDump(got.Pairs) == pairDump(unbounded.Profile().Pairs) {
		t.Fatal("window 8 clipped nothing: the stream no longer exercises the window")
	}
}

// TestShardedProfilerResumes verifies the documented lifecycle: Profile
// applies the staged batch mid-stream, and further events accumulate on
// top, so the final profile equals a fresh profiler's fed the
// concatenated stream in one go.
func TestShardedProfilerResumes(t *testing.T) {
	resumed := NewProfiler("synth", "ref")
	naive := NewNaiveProfiler("synth", "ref")
	synthStream(10_000, 1, resumed, naive)
	if pairDump(resumed.Profile().Pairs) != pairDump(naive.Profile().Pairs) {
		t.Fatal("mid-stream profile differs from the naive reference")
	}
	synthStream(10_000, 2, resumed)

	fresh := NewProfiler("synth", "ref")
	synthStream(10_000, 1, fresh)
	synthStream(10_000, 2, fresh)
	if pairDump(resumed.Profile().Pairs) != pairDump(fresh.Profile().Pairs) {
		t.Fatal("resumed profile differs from one pass over the concatenated stream")
	}
}
