package profile

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/obs"
)

// Profiler consumes a branch event stream online and accumulates a
// Profile. It implements the vm.BranchSink shape, so it can be attached
// directly to an executing Machine or fed from a recorded trace.
//
// Algorithm: a move-to-front (recency) list of static branches. When
// branch A executes, the branches ahead of A in the list are exactly
// those whose last time stamp exceeds A's previous time stamp — the
// paper's interleave set — so each such pair's counter is incremented
// and A moves to the front. Cost per dynamic branch is A's reuse
// distance, which Table 2 shows is bounded by the (small) working set
// size in practice.
//
// The hot path is flat throughout: pc resolves to a dense id through a
// direct-indexed table (no map), the recency list is a contiguous
// []int32 scanned forward (no pointer chasing), and interleave counts
// accumulate in dense per-branch rows indexed directly by partner id
// (an increment is row[partner]++, no hashing). First-touch discovery
// and row growth are the only allocating paths and each runs
// O(static branches) times per run.
type Profiler struct {
	benchmark string
	inputSet  string
	window    int

	// Dense pc -> id translation. VM branch addresses are word-aligned
	// instruction indexes, so idOf is indexed by pc/4 and covers the
	// program text directly; highIDs is the fallback for unaligned or
	// far-out-of-range addresses fed by synthetic tests.
	idOf    []int32
	highIDs map[uint64]int32

	pcs   []uint64
	exec  []uint64
	taken []uint64

	// Move-to-front (recency) list, stored flat: the live list is
	// list[off:], most recent first. A branch moves to the front by a
	// forward scan (which is also the interleave-pair emission) followed
	// by a word-level memmove of the prefix; first touches prepend into
	// the spare room below off.
	list []int32
	off  int
	in   []bool

	// acc is the accumulation engine (shard.go): the scan emits each
	// event's partner prefix as one bulk copy into a staging batch, and
	// batches are applied to per-branch neighbor rows grouped by
	// destination. One unordered pair (a,b) accumulates partly in a's row and partly
	// in b's; the halves are summed at extraction. The per-branch split
	// plus grouped apply keeps the increment loop's working set to one
	// branch's row (4 bytes per discovered branch, cache-resident)
	// instead of the global pair population.
	acc pairAccum

	// metrics is the optional observability bundle; mEvents and mPairInc
	// are its hot-path counters held directly so Branch performs at most
	// two nil-checked atomic adds per event. All three may be nil.
	metrics  *obs.ProfileMetrics
	mEvents  *obs.Counter
	mPairInc *obs.Counter

	branches     uint64
	instructions uint64
}

// MaxEvents is the most dynamic branches one Profiler may consume. A
// neighbor row cell counts at most one interleave per execution of its
// row's branch, so with at most MaxEvents events no 32-bit cell can
// wrap. Profile refuses to extract past it; callers that know a
// stream's length up front should check it before profiling.
const MaxEvents = math.MaxUint32

// maxDenseWords bounds the direct-indexed pc table: addresses below
// maxDenseWords*4 (the entire generated-program space) translate with
// one load; anything above falls back to the highIDs map so adversarial
// synthetic pcs cannot balloon the table.
const maxDenseWords = 1 << 22

// Option configures a Profiler.
type Option func(*Profiler)

// WithWindow bounds the interleave scan depth: pairs beyond the window
// of most recently executed distinct branches are not counted. 0 (the
// default) is unbounded, matching the paper. A window is an explicit,
// reported approximation for pathological traces, never a silent one —
// callers that set it should say so in their output.
func WithWindow(depth int) Option {
	return func(p *Profiler) { p.window = depth }
}

// WithShards is kept for source compatibility.
//
// Deprecated: ignored; pair accumulation is always serial (DESIGN.md §11).
func WithShards(int) Option {
	return func(*Profiler) {}
}

// WithMetrics attaches an observability bundle: event and pair-increment
// counters on the hot path, batch-apply counts, and merge timings. A
// nil bundle (the default) keeps every site a no-op.
func WithMetrics(m *obs.ProfileMetrics) Option {
	return func(p *Profiler) { p.metrics = m }
}

// NewProfiler returns an empty Profiler for the named benchmark run.
func NewProfiler(benchmark, inputSet string, opts ...Option) *Profiler {
	p := &Profiler{
		benchmark: benchmark,
		inputSet:  inputSet,
	}
	for _, o := range opts {
		o(p)
	}
	if p.metrics != nil {
		p.mEvents = p.metrics.Events
		p.mPairInc = p.metrics.PairIncrements
		p.acc.batches = p.metrics.ShardBatches
	}
	return p
}

// Reserve pre-sizes the per-branch state for n static branches, so
// first-touch discovery never reallocates mid-run, and caps neighbor
// row growth at n cells while n covers the ids discovered. Callers that
// know the workload (harness, bench) reserve from the static branch
// count of the stream they profile.
func (p *Profiler) Reserve(n int) {
	p.acc.reserve = max(p.acc.reserve, n)
	if n <= cap(p.pcs) {
		return
	}
	p.pcs = append(make([]uint64, 0, n), p.pcs...)
	p.exec = append(make([]uint64, 0, n), p.exec...)
	p.taken = append(make([]uint64, 0, n), p.taken...)
	p.in = append(make([]bool, 0, n), p.in...)
	live := p.list[p.off:]
	list := make([]int32, n+len(live))
	copy(list[n:], live)
	p.list, p.off = list, n
}

// Window returns the configured scan window (0 = unbounded).
func (p *Profiler) Window() int { return p.window }

// Branch consumes one dynamic branch event: first-touch discovery,
// execution counters, the recency-list interleaving scan (the
// pair-increment inner loop), and the move-to-front update.
//
//reprolint:hotpath profiler pair-increment scan
func (p *Profiler) Branch(pc uint64, taken bool, icount uint64) {
	var id int32
	if w := pc >> 2; pc&3 == 0 && w < uint64(len(p.idOf)) && p.idOf[w] >= 0 {
		id = p.idOf[w]
	} else {
		id = p.intern(pc)
	}
	p.exec[id]++
	if taken {
		p.taken[id]++
	}
	p.branches++
	p.mEvents.Inc()
	if icount >= p.instructions {
		p.instructions = icount + 1
	}

	if p.in[id] {
		// Count interleavings: every branch ahead of id in the recency
		// list ran since id's previous execution. The scan doubles as
		// the pair emission — partners live[0:emit] are exactly the
		// interleave set (clipped to the window).
		live := p.list[p.off:]
		pos := 0
		for live[pos] != id {
			pos++
		}
		emit := pos
		if p.window > 0 && p.window < emit {
			emit = p.window
		}
		if emit > 0 {
			p.acc.emit(id, live[:emit], len(live))
			p.mPairInc.Add(uint64(emit))
		}
		// Move to front: shift the prefix right one slot over id.
		copy(live[1:pos+1], live[:pos])
		live[0] = id
		return
	}

	// First touch: prepend into the spare room below off.
	p.in[id] = true
	if p.off == 0 {
		p.growFront()
	}
	p.off--
	p.list[p.off] = id
}

// intern resolves pc to a dense id, discovering the branch on first
// touch. Cold: each static branch passes through here once (plus rare
// dense-table growth), so the appends and map fallback are off the
// steady-state path; Reserve pre-sizes the buffers.
func (p *Profiler) intern(pc uint64) int32 {
	if w := pc >> 2; pc&3 == 0 && w < maxDenseWords {
		if w >= uint64(len(p.idOf)) {
			p.growDense(int(w + 1))
		}
		if id := p.idOf[w]; id >= 0 {
			return id
		}
		id := p.newID(pc)
		p.idOf[w] = id
		return id
	}
	if id, ok := p.highIDs[pc]; ok { //reprolint:allow hotpath unaligned-pc fallback, off the VM's word-aligned address space
		return id
	}
	if p.highIDs == nil {
		p.highIDs = make(map[uint64]int32) //reprolint:allow hotpath unaligned-pc fallback, allocated at most once
	}
	id := p.newID(pc)
	p.highIDs[pc] = id //reprolint:allow hotpath unaligned-pc fallback, once per out-of-range static branch
	return id
}

// growDense extends the direct-indexed pc table to cover n words,
// growing geometrically so a run performs O(log program-size) growths.
func (p *Profiler) growDense(n int) {
	size := cap(p.idOf)
	if size < 1<<10 {
		size = 1 << 10
	}
	for size < n {
		size *= 2
	}
	if size > maxDenseWords {
		size = maxDenseWords
	}
	grown := make([]int32, size) //reprolint:allow hotpath amortized geometric growth, O(log program) times per run
	copy(grown, p.idOf)
	for i := len(p.idOf); i < size; i++ {
		grown[i] = -1
	}
	p.idOf = grown
}

// newID allocates the next dense id and its per-branch state. Runs once
// per static branch; Reserve pre-sizes every buffer it appends to.
func (p *Profiler) newID(pc uint64) int32 {
	id := int32(len(p.pcs))
	p.pcs = append(p.pcs, pc)    //reprolint:allow hotpath first touch, once per static branch; Reserve pre-sizes
	p.exec = append(p.exec, 0)   //reprolint:allow hotpath first touch, once per static branch; Reserve pre-sizes
	p.taken = append(p.taken, 0) //reprolint:allow hotpath first touch, once per static branch; Reserve pre-sizes
	p.in = append(p.in, false)   //reprolint:allow hotpath first touch, once per static branch; Reserve pre-sizes
	return id
}

// growFront makes room below off for first-touch prepends, keeping the
// live list at the top of the (geometrically grown) backing array.
func (p *Profiler) growFront() {
	live := p.list[p.off:]
	size := len(p.list) * 2
	if size < 64 {
		size = 64
	}
	grown := make([]int32, size) //reprolint:allow hotpath amortized geometric growth, O(log static-branches) times per run
	p.off = size - len(live)
	copy(grown[p.off:], live)
	p.list = grown
}

// Branches returns the number of dynamic branches consumed so far.
func (p *Profiler) Branches() uint64 { return p.branches }

// TableBytes reports the memory held by the interleave accumulation
// rows (the dense per-branch neighbor rows): 4 bytes per cell. A row
// spans its branch's highest partner id and at most half again the ids
// discovered (never past an exact Reserve), so n discovered branches
// hold at most 4 × n × 1.5n bytes — 4 × n² with an exact reserve. It is
// the profiler's dominant footprint, recorded by cmd/bench.
func (p *Profiler) TableBytes() uint64 {
	return p.acc.tableBytes()
}

// SetInstructions records the run's total instruction count (otherwise
// estimated from the last branch time stamp).
func (p *Profiler) SetInstructions(n uint64) { p.instructions = n }

// Profile extracts the accumulated profile. The Profiler remains usable;
// further events continue accumulating on top.
//
// Extraction hands the per-branch neighbor rows to graph.FromRows,
// which sums the two halves of every pair (w(a,b) = row_a[b] + row_b[a])
// straight into the exactly sized CSR rows. The rows' contents do not
// depend on where staging batches break (DESIGN.md §15), so neither
// does the extracted profile.
//
// Past MaxEvents consumed events the 32-bit counts may have wrapped
// silently, and Profile panics rather than return them.
func (p *Profiler) Profile() *Profile {
	if p.branches > MaxEvents {
		panic(fmt.Sprintf("profile: %s/%s consumed %d dynamic branches, over the %d a 32-bit interleave counter can hold; profile a shorter or filtered stream",
			p.benchmark, p.inputSet, p.branches, uint64(MaxEvents)))
	}
	done := p.metrics.StartMerge()
	// Apply the staged batch, after which the rows are complete, and
	// free the staging arrays for the duration of extraction.
	p.acc.release()
	out := &Profile{
		Benchmark:    p.benchmark,
		InputSets:    []string{p.inputSet},
		Instructions: p.instructions,
		PCs:          append([]uint64(nil), p.pcs...),
		Exec:         append([]uint64(nil), p.exec...),
		Taken:        append([]uint64(nil), p.taken...),
		Pairs:        graph.FromRows(len(p.pcs), p.acc.rows),
	}
	done(out.Pairs.Len())
	return out
}
