package profile

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
)

// decodeStream turns an arbitrary byte string into a branch stream and
// a scan window. The first byte picks the static branch population, the
// second the window; every later byte is one event: the low bits pick
// the branch, the high bit the direction. Every seventh branch id sits
// at an unaligned address, so the profilers' map fallback runs too.
func decodeStream(data []byte) (pcs []uint64, taken []bool, window int) {
	if len(data) < 2 {
		return nil, nil, 1
	}
	statics := 2 + int(data[0])%62
	window = 1 + int(data[1])%8
	for _, b := range data[2:] {
		id := uint64(b&0x7f) % uint64(statics)
		pc := 4 * (id + 1)
		if id%7 == 6 {
			pc += 2
		}
		pcs = append(pcs, pc)
		taken = append(taken, b&0x80 != 0)
	}
	return pcs, taken, window
}

// checkExact fails unless every slice backing g has cap == len:
// extraction sizes the conflict graph exactly, never by doubling.
func checkExact(t *testing.T, what string, g *graph.Graph) {
	t.Helper()
	v := reflect.ValueOf(g).Elem()
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Slice && f.Cap() != f.Len() {
			t.Fatalf("%s: Pairs.%s has len %d, cap %d", what, v.Type().Field(i).Name, f.Len(), f.Cap())
		}
	}
}

// FuzzExtraction feeds decoded branch streams to the Profiler (one and
// two shards, unbounded and with a small window) and to the
// NaiveProfiler, the paper's literal time-stamp scan. Unbounded
// extraction must give the naive reference's CSR rows exactly, whatever
// the shard count; windowed extraction must agree across shard counts
// and never count more interleavings for a pair than the unbounded
// scan; every extracted graph is exactly sized.
func FuzzExtraction(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 0, 1, 2, 0, 1, 2, 0x80, 0x81, 0x82})
	f.Add([]byte{40, 5, 1, 9, 17, 25, 33, 1, 9, 17, 25, 33, 39, 1, 0x89, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		pcs, taken, window := decodeStream(data)
		naive := NewNaiveProfiler("fuzz", "ref")
		profilers := map[string]*Profiler{}
		for _, shards := range []int{1, 2} {
			profilers[fmt.Sprintf("shards=%d", shards)] = NewProfiler("fuzz", "ref", WithShards(shards))
			profilers[fmt.Sprintf("shards=%d/window=%d", shards, window)] =
				NewProfiler("fuzz", "ref", WithShards(shards), WithWindow(window))
		}
		for i, pc := range pcs {
			naive.Branch(pc, taken[i], uint64(i))
			for _, p := range profilers {
				p.Branch(pc, taken[i], uint64(i))
			}
		}
		want := naive.Profile()
		checkExact(t, "naive", want.Pairs)
		got := map[string]*Profile{}
		for name, p := range profilers {
			prof := p.Profile()
			checkExact(t, name, prof.Pairs)
			if !slices.Equal(prof.PCs, want.PCs) || !slices.Equal(prof.Exec, want.Exec) || !slices.Equal(prof.Taken, want.Taken) {
				t.Fatalf("%s: per-branch stats differ from the naive reference", name)
			}
			if prof.Pairs.Len() != prof.Pairs.NumEdges() {
				t.Fatalf("%s: Len %d != NumEdges %d", name, prof.Pairs.Len(), prof.Pairs.NumEdges())
			}
			got[name] = prof
		}
		wantDump := pairDump(want.Pairs)
		for _, name := range []string{"shards=1", "shards=2"} {
			if d := pairDump(got[name].Pairs); d != wantDump {
				t.Fatalf("%s rows differ from the naive reference:\n%s\nwant:\n%s", name, d, wantDump)
			}
		}
		w1 := got[fmt.Sprintf("shards=1/window=%d", window)].Pairs
		w2 := got[fmt.Sprintf("shards=2/window=%d", window)].Pairs
		if pairDump(w1) != pairDump(w2) {
			t.Fatalf("window %d: rows differ between one and two shards", window)
		}
		for u := int32(0); int(u) < w1.N(); u++ {
			nbrs, wts := w1.Neighbors(u)
			for i, v := range nbrs {
				if full := want.Pairs.Weight(u, v); wts[i] > full {
					t.Fatalf("window %d: pair %d-%d counted %d, unbounded %d", window, u, v, wts[i], full)
				}
			}
		}
	})
}

// pcDump renders a profile's conflict graph keyed by branch address,
// so profiles whose dense ids differ (merges in different orders)
// compare by content.
func pcDump(p *Profile) string {
	var lines []string
	for u := int32(0); int(u) < p.Pairs.N(); u++ {
		nbrs, wts := p.Pairs.Neighbors(u)
		for i, v := range nbrs {
			a, b := min(p.PCs[u], p.PCs[v]), max(p.PCs[u], p.PCs[v])
			if p.PCs[u] == a {
				lines = append(lines, fmt.Sprintf("%#x-%#x:%d", a, b, wts[i]))
			}
		}
	}
	slices.Sort(lines)
	return strings.Join(lines, "\n")
}

// TestMergeOrderInvariance is the determinism property behind merged
// profiles: merging five overlapping profiles in any of the 120 orders
// yields the same conflict graph over branch addresses. Interleave
// counts are commutative sums, and the rows are sorted, so only the
// dense id assignment may depend on the order.
func TestMergeOrderInvariance(t *testing.T) {
	const k = 5
	profiles := make([]*Profile, k)
	for i := range profiles {
		p := NewProfiler("synth", fmt.Sprintf("in%d", i))
		synthStream(2_000, uint64(100+i), p)
		profiles[i] = p.Profile()
	}

	var want string
	perms := 0
	var permute func(order []int, n int)
	permute = func(order []int, n int) {
		if n == 1 {
			in := make([]*Profile, k)
			for i, j := range order {
				in[i] = profiles[j]
			}
			merged, err := Merge(in...)
			if err != nil {
				t.Fatal(err)
			}
			got := pcDump(merged)
			if want == "" {
				want = got
			} else if got != want {
				t.Fatalf("merge order %v produced a different conflict graph", order)
			}
			perms++
			return
		}
		for i := 0; i < n; i++ {
			order[i], order[n-1] = order[n-1], order[i]
			permute(order, n-1)
			order[i], order[n-1] = order[n-1], order[i]
		}
	}
	permute([]int{0, 1, 2, 3, 4}, k)
	if perms != 120 {
		t.Fatalf("checked %d permutations, want 120", perms)
	}
	if want == "" {
		t.Fatal("empty canonical dump")
	}
}

// TestShardDrainOrderInvariance checks the same property one level up:
// profilers whose shard counts force different worker partitions and
// merge orders still drain to identical profiles.
func TestShardDrainOrderInvariance(t *testing.T) {
	var dumps []string
	for _, shards := range []int{1, 2, 3, 5, 8} {
		p := NewProfiler("synth", "ref", WithShards(shards))
		synthStream(20_000, 1234, p)
		prof := p.Profile()
		dumps = append(dumps, fmt.Sprintf("branches=%d\n%s", prof.NumBranches(), pairDump(prof.Pairs)))
	}
	for i := 1; i < len(dumps); i++ {
		if dumps[i] != dumps[0] {
			t.Fatalf("drained profile differs between shard configs 0 and %d", i)
		}
	}
}
