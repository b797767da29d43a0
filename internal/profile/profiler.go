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
	numShards int

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

	// shards is the accumulation engine (shard.go): the scan emits each
	// event's partner prefix as one bulk copy into a staging batch, and
	// batches are applied to per-branch neighbor rows grouped by
	// destination — synchronously with one shard, by worker goroutines
	// with more. nbrOf(id) reads a branch's row in either mode.
	// One unordered pair (a,b) accumulates partly in a's row and partly
	// in b's; the halves are summed at extraction. The per-branch split
	// plus grouped apply keeps the increment loop's working set to one
	// branch's row (4 bytes per discovered branch, cache-resident)
	// instead of the global pair population.
	shards *pairShards

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

// WithShards selects how many workers accumulate the interleave
// increments. n <= 1 keeps the serial per-branch rows — the exact
// pre-sharding code path. n > 1 partitions the rows by executing
// branch id across n worker goroutines; the merged profile is identical
// for every n because each branch's row receives exactly the same
// increment sequence it would serially (DESIGN.md §15).
func WithShards(n int) Option {
	return func(p *Profiler) {
		if n > 1 {
			p.numShards = n
		}
	}
}

// WithMetrics attaches an observability bundle: event and pair-increment
// counters on the hot path, shard queue metrics, and merge timings. A
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
	}
	n := p.numShards
	if n < 1 {
		n = 1
	}
	p.shards = newPairShards(n)
	if p.metrics != nil {
		// Serial mode runs the same staging engine, so batch applies are
		// counted at every P; queue depth only exists with workers.
		p.shards.batches = p.metrics.ShardBatches
		p.shards.queueMax = p.metrics.ShardQueueMax
	}
	return p
}

// Reserve pre-sizes the per-branch state for n static branches, so
// first-touch discovery never reallocates mid-run, and caps neighbor
// row growth at n cells while n covers the ids discovered. Callers that
// know the workload (harness, bench) reserve from the static branch
// count of the stream they profile.
func (p *Profiler) Reserve(n int) {
	p.shards.reserve = max(p.shards.reserve, n)
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

// Shards returns the configured shard count (1 = serial).
func (p *Profiler) Shards() int {
	return p.shards.p
}

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
			p.shards.emit(id, live[:emit], len(live))
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
// rows (the dense per-branch neighbor rows, in either mode): 4 bytes
// per cell. A row spans its branch's highest partner id and at most
// half again the ids discovered (never past an exact Reserve), so n
// discovered branches hold at most 4 × n × 1.5n bytes — 4 × n² with an
// exact reserve. It is the profiler's dominant footprint, recorded by
// cmd/bench.
func (p *Profiler) TableBytes() uint64 {
	return p.shards.tableBytes()
}

// ShardTableBytes reports the extra memory sharded accumulation holds
// beyond the serial path: the in-flight event batches and partition
// bookkeeping (0 in serial mode). The neighbor rows themselves are the
// same rows serial mode keeps, merely partitioned across workers, so
// they are reported by TableBytes, not here. BENCH_3's 128 MB figure was
// this quantity under the old design, which duplicated every pair into
// shard-local tables.
func (p *Profiler) ShardTableBytes() uint64 {
	if p.numShards <= 1 {
		return 0
	}
	return p.shards.overheadBytes()
}

// SetInstructions records the run's total instruction count (otherwise
// estimated from the last branch time stamp).
func (p *Profiler) SetInstructions(n uint64) { p.instructions = n }

// nbrOf returns branch id's neighbor row in either mode: row[v] is the
// number of times v ran between two consecutive executions of id (id's
// half of pair {id, v}). In sharded mode the row lives in the owning
// worker's partition; callers must quiesce the workers first (drain).
// The row may be nil or shorter than the id count: cells past its end
// are zero.
func (p *Profiler) nbrOf(id int32) []uint32 {
	w := int(uint32(id)) % p.shards.p
	row := int(uint32(id)) / p.shards.p
	if row >= len(p.shards.tabs[w]) {
		return nil
	}
	return p.shards.tabs[w][row]
}

// Profile extracts the accumulated profile. The Profiler remains usable;
// further events continue accumulating on top.
//
// Extraction hands the per-branch neighbor rows to graph.FromRows,
// which sums the two halves of every pair (w(a,b) = row_a[b] + row_b[a])
// straight into the exactly sized CSR rows. The rows' contents are
// identical for every shard count (DESIGN.md §15), so the extracted
// profile is too.
//
// Past MaxEvents consumed events the 32-bit counts may have wrapped
// silently, and Profile panics rather than return them.
func (p *Profiler) Profile() *Profile {
	if p.branches > MaxEvents {
		panic(fmt.Sprintf("profile: %s/%s consumed %d dynamic branches, over the %d a 32-bit interleave counter can hold; profile a shorter or filtered stream",
			p.benchmark, p.inputSet, p.branches, uint64(MaxEvents)))
	}
	done := p.metrics.StartMerge()
	// Quiesce the engine: staged batches are applied (and, sharded, the
	// workers stopped), after which the rows are complete and safe to
	// read from this goroutine.
	p.shards.drain()
	rows := make([][]uint32, len(p.pcs))
	for id := range rows {
		rows[id] = p.nbrOf(int32(id))
	}
	out := &Profile{
		Benchmark:    p.benchmark,
		InputSets:    []string{p.inputSet},
		Instructions: p.instructions,
		PCs:          append([]uint64(nil), p.pcs...),
		Exec:         append([]uint64(nil), p.exec...),
		Taken:        append([]uint64(nil), p.taken...),
		Pairs:        graph.FromRows(len(p.pcs), rows),
	}
	done(out.Pairs.Len())
	return out
}

// NaiveProfiler is the literal time-stamp formulation from the paper's
// Figure 1: every branch keeps its last time stamp; on each dynamic
// instance of branch A, every branch whose stamp exceeds A's previous
// stamp is an interleaving partner. It is O(static branches) per event
// and exists to cross-validate Profiler in tests.
type NaiveProfiler struct {
	benchmark string
	inputSet  string

	idOf    []int32
	highIDs map[uint64]int32
	pcs     []uint64
	exec    []uint64
	taken   []uint64

	stamp []uint64 // last time stamp per id
	seen  []bool   // id has executed at least once

	pairs        map[uint64]uint64 // PairKey -> interleave count
	instructions uint64
}

// NewNaiveProfiler returns the reference profiler.
func NewNaiveProfiler(benchmark, inputSet string) *NaiveProfiler {
	return &NaiveProfiler{
		benchmark: benchmark,
		inputSet:  inputSet,
		pairs:     make(map[uint64]uint64),
	}
}

// Branch consumes one dynamic branch event.
func (p *NaiveProfiler) Branch(pc uint64, taken bool, icount uint64) {
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
	if icount >= p.instructions {
		p.instructions = icount + 1
	}

	if p.seen[id] {
		prev := p.stamp[id]
		for other := range p.stamp {
			o := int32(other)
			if o == id || !p.seen[o] {
				continue
			}
			if p.stamp[o] > prev {
				p.pairs[PairKey(id, o)]++ //reprolint:allow hotpath reference profiler for tests, accumulates in a plain map by design
			}
		}
	}
	p.stamp[id] = icount
	p.seen[id] = true
}

// intern mirrors Profiler.intern for the reference profiler: dense
// direct-indexed translation with a map fallback, cold per static
// branch.
func (p *NaiveProfiler) intern(pc uint64) int32 {
	newID := func() int32 {
		id := int32(len(p.pcs))
		p.pcs = append(p.pcs, pc)      //reprolint:allow hotpath first touch, once per static branch
		p.exec = append(p.exec, 0)     //reprolint:allow hotpath first touch, once per static branch
		p.taken = append(p.taken, 0)   //reprolint:allow hotpath first touch, once per static branch
		p.stamp = append(p.stamp, 0)   //reprolint:allow hotpath first touch, once per static branch
		p.seen = append(p.seen, false) //reprolint:allow hotpath first touch, once per static branch
		return id
	}
	if w := pc >> 2; pc&3 == 0 && w < maxDenseWords {
		if w >= uint64(len(p.idOf)) {
			size := cap(p.idOf)
			if size < 1<<10 {
				size = 1 << 10
			}
			for size < int(w+1) {
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
		if id := p.idOf[w]; id >= 0 {
			return id
		}
		id := newID()
		p.idOf[w] = id
		return id
	}
	if id, ok := p.highIDs[pc]; ok { //reprolint:allow hotpath unaligned-pc fallback, off the VM's word-aligned address space
		return id
	}
	if p.highIDs == nil {
		p.highIDs = make(map[uint64]int32) //reprolint:allow hotpath unaligned-pc fallback, allocated at most once
	}
	id := newID()
	p.highIDs[pc] = id //reprolint:allow hotpath unaligned-pc fallback, once per out-of-range static branch
	return id
}

// Profile extracts the accumulated profile.
func (p *NaiveProfiler) Profile() *Profile {
	pairs := make([]graph.Pair, 0, len(p.pairs))
	for k, w := range p.pairs {
		a, b := UnpackPair(k)
		pairs = append(pairs, graph.Pair{U: a, V: b, W: w})
	}
	out := &Profile{
		Benchmark:    p.benchmark,
		InputSets:    []string{p.inputSet},
		Instructions: p.instructions,
		PCs:          append([]uint64(nil), p.pcs...),
		Exec:         append([]uint64(nil), p.exec...),
		Taken:        append([]uint64(nil), p.taken...),
		Pairs:        graph.FromPairs(len(p.pcs), pairs),
	}
	return out
}
