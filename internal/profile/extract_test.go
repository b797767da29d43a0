package profile

import (
	"math"
	"strings"
	"testing"

	"repro/internal/rng"
)

// nonzero counts a neighbor row's nonzero cells: the number of distinct
// partners it has counted.
func nonzero(row []uint32) int {
	n := 0
	for _, c := range row {
		if c != 0 {
			n++
		}
	}
	return n
}

// TestNbrCounterHas checks the dense neighbor rows through the staging
// engine: every increment lands in its partner's cell, the nonzero
// population is exactly the distinct partners, and a row grows past its
// initial length — by half again the ids discovered, capped at a
// reserved static count that covers them — without losing counts.
func TestNbrCounterHas(t *testing.T) {
	s := newPairShards(1)
	s.drain()
	if len(s.tabs[0]) != 0 {
		t.Fatal("empty engine holds rows")
	}
	s.emit(0, []int32{3, 1, 3, 8}, 10)
	s.drain()
	row := s.tabs[0][0]
	if len(row) != 15 {
		t.Fatalf("row length %d, want 15 for 10 ids discovered", len(row))
	}
	if row[3] != 2 || row[1] != 1 || row[8] != 1 || nonzero(row) != 3 {
		t.Fatalf("row %v, want counts 3:2 1:1 8:1", row)
	}
	s.emit(0, []int32{14}, 15)
	s.drain()
	if len(s.tabs[0][0]) != 15 {
		t.Fatalf("row regrew to %d with room to spare", len(s.tabs[0][0]))
	}

	s.emit(0, []int32{1000, 3}, 1001)
	s.drain()
	row = s.tabs[0][0]
	if len(row) != 1501 {
		t.Fatalf("grown row length %d, want 1501", len(row))
	}
	if row[3] != 3 || row[1] != 1 || row[8] != 1 || row[14] != 1 || row[1000] != 1 || nonzero(row) != 5 {
		t.Fatalf("grown row lost counts: 3:%d 1:%d 8:%d 14:%d 1000:%d, %d nonzero", row[3], row[1], row[8], row[14], row[1000], nonzero(row))
	}

	// A reserve caps growth once it covers the ids discovered; an
	// underestimate is outgrown like no reserve at all.
	s = newPairShards(1)
	s.reserve = 50
	s.emit(2, []int32{0}, 40)
	s.drain()
	if row := s.tabs[0][2]; len(row) != 50 || row[0] != 1 || nonzero(row) != 1 {
		t.Fatalf("reserved row length %d, %d nonzero", len(row), nonzero(row))
	}
	s.emit(2, []int32{59}, 60)
	s.drain()
	if row := s.tabs[0][2]; len(row) != 90 || row[0] != 1 || row[59] != 1 || nonzero(row) != 2 {
		t.Fatalf("row past the reserve: length %d, %d nonzero", len(row), nonzero(row))
	}
}

// TestProfileCountLimit checks the 32-bit counter precondition: a
// profiler that has consumed more events than a uint32 cell can count
// refuses to extract, with a message naming the limit, and one exactly
// at the limit extracts normally. The event count is set directly; no
// 4G-event stream is run.
func TestProfileCountLimit(t *testing.T) {
	p := NewProfiler("big", "ref")
	feed(p, 4, 8, 12, 4)
	p.branches = math.MaxUint32
	if got := p.Profile(); got.NumBranches() != 3 || got.Pairs.NumEdges() != 2 {
		t.Fatalf("profile at the limit: %d branches, %d pairs", got.NumBranches(), got.Pairs.NumEdges())
	}
	p.branches = math.MaxUint32 + 1
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "big/ref") || !strings.Contains(msg, "4294967296 dynamic branches") || !strings.Contains(msg, "32-bit") {
			t.Fatalf("panic message %q does not describe the limit", msg)
		}
	}()
	p.Profile()
	t.Fatal("Profile past the 32-bit limit returned")
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

// TestReserveSizesRows checks Reserve's effect on the neighbor rows: an
// exact reserve caps every row at the static count, so TableBytes reads
// 4 bytes per cell of one n-cell row per branch that counted a partner;
// a reserve taken mid-stream keeps the state gathered so far; and
// neither changes the extracted profile.
func TestReserveSizesRows(t *testing.T) {
	const static = 40
	plain := NewProfiler("r", "ref")
	exact := NewProfiler("r", "ref")
	exact.Reserve(static)
	late := NewProfiler("r", "ref")
	r := rng.New(9)
	for i := 0; i < 5000; i++ {
		pc := uint64(r.Intn(static)+1) * 4
		for _, p := range []*Profiler{plain, exact, late} {
			p.Branch(pc, i%3 == 0, uint64(i))
		}
		if i == 100 {
			late.Reserve(static)
		}
	}
	want := pairDump(plain.Profile().Pairs)
	if pairDump(exact.Profile().Pairs) != want || pairDump(late.Profile().Pairs) != want {
		t.Fatal("a reserve changed the profile")
	}
	rows := 0
	for id := range exact.pcs {
		if row := exact.nbrOf(int32(id)); row != nil {
			rows++
			if len(row) != static {
				t.Fatalf("row %d has %d cells, want the reserved %d", id, len(row), static)
			}
		}
	}
	if got, want := exact.TableBytes(), uint64(4*static*rows); rows == 0 || got != want {
		t.Fatalf("TableBytes = %d for %d rows, want %d", got, rows, want)
	}
}
