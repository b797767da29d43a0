package profile

import (
	"slices"
	"testing"

	"repro/internal/rng"
)

func TestNbrCounterHas(t *testing.T) {
	var c nbrCounter
	members := func() []int32 {
		var out []int32
		c.each(func(k int32, _ uint32) { out = append(out, k) })
		slices.Sort(out)
		return out
	}
	if len(members()) != 0 {
		t.Fatal("empty counter has members")
	}
	for _, k := range []int32{0, 3, 8, 1000, 77, 3} {
		c.add(k)
	}
	if got := members(); !slices.Equal(got, []int32{0, 3, 8, 77, 1000}) {
		t.Fatalf("members %v", got)
	}
	c.each(func(k int32, n uint32) {
		want := uint32(1)
		if k == 3 {
			want = 2
		}
		if n != want {
			t.Fatalf("count(%d) = %d, want %d", k, n, want)
		}
	})
}

// TestExtractionExactSizing guards extraction's memory: after Profile()
// every backing array of Pairs has cap == len, for serial and sharded
// accumulation alike. A pair split across both endpoints' neighbor
// counters must be counted once, and nothing may size by doubling.
func TestExtractionExactSizing(t *testing.T) {
	for _, shards := range []int{1, 2} {
		p := NewProfiler("t", "ref", WithShards(shards))
		naive := NewNaiveProfiler("t", "ref")
		r := rng.New(11)
		icount := uint64(0)
		for i := 0; i < 20000; i++ {
			icount += uint64(r.Intn(5) + 1)
			pc := uint64(r.Intn(64)+1) * 4
			taken := r.Intn(2) == 0
			p.Branch(pc, taken, icount)
			naive.Branch(pc, taken, icount)
		}
		prof := p.Profile()
		checkExact(t, "profiler", prof.Pairs)
		if got, want := prof.Pairs.Len(), naive.Profile().Pairs.Len(); got != want {
			t.Fatalf("shards=%d: extracted %d pairs, reference %d", shards, got, want)
		}
	}
}

// TestProfileSnapshotIndependent checks that an extracted profile is a
// snapshot: events accumulated afterwards reach the next extraction but
// leave the earlier one untouched.
func TestProfileSnapshotIndependent(t *testing.T) {
	p := NewProfiler("t", "ref")
	r := rng.New(5)
	icount := uint64(0)
	run := func(events int) {
		for i := 0; i < events; i++ {
			icount += uint64(r.Intn(3) + 1)
			p.Branch(uint64(r.Intn(32)+1)*4, r.Intn(2) == 0, icount)
		}
	}
	run(5000)
	first := p.Profile()
	before := pairDump(first.Pairs)
	if again := pairDump(p.Profile().Pairs); again != before {
		t.Fatal("re-extraction without new events changed the graph")
	}
	run(5000)
	second := p.Profile()
	if pairDump(first.Pairs) != before {
		t.Fatal("later events changed an earlier profile")
	}
	if second.Pairs.TotalWeight() <= first.Pairs.TotalWeight() {
		t.Fatalf("total weight %d after more events, %d before", second.Pairs.TotalWeight(), first.Pairs.TotalWeight())
	}
}
