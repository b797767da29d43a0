package trace

import (
	"reflect"
	"testing"
)

// streamOf feeds every event of tr through sink, as a live run would.
func streamOf(tr *Trace, sink Sink) {
	for _, e := range tr.Events {
		sink.Branch(e.PC, e.Taken, e.ICount)
	}
}

func TestFreqCounterMatchesTraceStats(t *testing.T) {
	tr := makeTrace(
		Event{PC: 4, Taken: true, ICount: 1},
		Event{PC: 8, Taken: false, ICount: 2},
		Event{PC: 4, Taken: false, ICount: 3},
		Event{PC: 12, Taken: true, ICount: 4},
		Event{PC: 4, Taken: true, ICount: 5},
		Event{PC: 8, Taken: true, ICount: 6},
	)
	var f FreqCounter
	streamOf(tr, &f)
	if !reflect.DeepEqual(f.Stats(), tr.Stats()) {
		t.Fatalf("FreqCounter.Stats diverges from Trace.Stats:\n%+v\n%+v", f.Stats(), tr.Stats())
	}
	dyn, static := f.Total()
	if dyn != 6 || static != 3 {
		t.Fatalf("Total = %d/%d, want 6/3", dyn, static)
	}
}

func TestFreqCounterTieBreakByPC(t *testing.T) {
	var f FreqCounter
	f.Branch(8, false, 1)
	f.Branch(4, false, 2)
	stats := f.Stats()
	if stats[0].PC != 4 || stats[1].PC != 8 {
		t.Fatalf("tie-break order wrong: %+v", stats)
	}
}

// TestSelectByCoverageMatchesFilter checks that the streaming keep-set
// selection and the recorded filter agree on exactly which branches are
// analyzed — the property that makes streamed profiling equal
// record-then-replay profiling.
func TestSelectByCoverageMatchesFilter(t *testing.T) {
	var events []Event
	for i := 0; i < 90; i++ {
		events = append(events, Event{PC: 4, ICount: uint64(i)})
	}
	for i := 0; i < 9; i++ {
		events = append(events, Event{PC: 8, ICount: uint64(90 + i)})
	}
	events = append(events, Event{PC: 12, ICount: 99})
	tr := makeTrace(events...)

	for _, coverage := range []float64{0.5, 0.9, 0.95, 1.0} {
		res := tr.FilterByCoverage(coverage)
		keep, dynKept := SelectByCoverage(tr.Stats(), coverage)
		if len(keep) != res.StaticKept || dynKept != res.DynamicKept {
			t.Fatalf("coverage %v: select kept %d/%d, filter kept %d/%d",
				coverage, len(keep), dynKept, res.StaticKept, res.DynamicKept)
		}
		for _, e := range res.Kept.Events {
			if _, ok := keep[e.PC]; !ok {
				t.Fatalf("coverage %v: filtered trace retains PC %#x outside keep set", coverage, e.PC)
			}
		}
	}
}

// TestFilterSinkMatchesFilteredReplay checks the streamed filtered stream
// is the identical event subsequence the recorded filter replays.
func TestFilterSinkMatchesFilteredReplay(t *testing.T) {
	tr := makeTrace(
		Event{PC: 4, Taken: true, ICount: 1},
		Event{PC: 8, Taken: false, ICount: 2},
		Event{PC: 4, Taken: false, ICount: 3},
		Event{PC: 12, Taken: true, ICount: 4},
		Event{PC: 4, Taken: true, ICount: 5},
	)
	res := tr.FilterByCoverage(0.8) // keeps PC 4 only (3 of 5 dynamic)
	keep, _ := SelectByCoverage(tr.Stats(), 0.8)

	var recorded, streamed collectSink
	res.Kept.Replay(&recorded)
	streamOf(tr, FilterSink{Keep: keep, Sink: &streamed})

	if !reflect.DeepEqual(recorded.events, streamed.events) {
		t.Fatalf("filtered streams differ:\nrecorded %+v\nstreamed %+v", recorded.events, streamed.events)
	}
}

func TestRecorderReserve(t *testing.T) {
	r := NewRecorder("b", "in")
	r.Reserve(100)
	r.Branch(4, true, 1)
	tr0 := r.Finish(10)
	if cap(tr0.Events) < 100 {
		t.Fatalf("cap = %d after Reserve(100)", cap(tr0.Events))
	}

	// Reserve below current capacity must not shrink or reallocate.
	r2 := NewRecorder("b", "in")
	r2.Reserve(50)
	for i := 0; i < 40; i++ {
		r2.Branch(4, false, uint64(i))
	}
	before := cap(r2.trace.Events)
	r2.Reserve(10)
	if cap(r2.trace.Events) != before {
		t.Fatalf("Reserve(10) changed cap %d -> %d", before, cap(r2.trace.Events))
	}
	if len(r2.trace.Events) != 40 {
		t.Fatalf("Reserve dropped events: len = %d", len(r2.trace.Events))
	}
}

func TestRingTail(t *testing.T) {
	r := NewRing(3)
	if got := r.Tail(); len(got) != 0 {
		t.Fatalf("empty ring tail = %+v", got)
	}
	r.Branch(4, true, 1)
	r.Branch(8, false, 2)
	want := []Event{{PC: 4, ICount: 1, Taken: true}, {PC: 8, ICount: 2}}
	if got := r.Tail(); !reflect.DeepEqual(got, want) {
		t.Fatalf("partial tail = %+v, want %+v", got, want)
	}

	r.Branch(12, true, 3)
	r.Branch(16, false, 4)
	r.Branch(20, true, 5)
	want = []Event{{PC: 12, ICount: 3, Taken: true}, {PC: 16, ICount: 4}, {PC: 20, ICount: 5, Taken: true}}
	if got := r.Tail(); !reflect.DeepEqual(got, want) {
		t.Fatalf("wrapped tail = %+v, want %+v", got, want)
	}
	if r.Total() != 5 {
		t.Fatalf("total = %d, want 5", r.Total())
	}
}

func TestRingMinimumSize(t *testing.T) {
	r := NewRing(0)
	r.Branch(4, true, 1)
	r.Branch(8, false, 2)
	if got := r.Tail(); len(got) != 1 || got[0].PC != 8 {
		t.Fatalf("size-clamped ring tail = %+v", got)
	}
}
