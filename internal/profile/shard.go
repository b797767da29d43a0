package profile

import (
	"sync"

	"repro/internal/obs"
)

// Dense-row pair accumulation. The profiler's recency scan produces,
// per event, the executing branch id and a contiguous prefix of the
// recency list — its interleave partners. Those are bulk-copied (one
// memmove, no per-key work) into a struct-of-arrays staging batch; a
// full batch is applied to the per-branch neighbor rows grouped by
// destination, so one branch's row is brought into cache once per
// batch and takes every one of its increments while hot, instead of
// being re-fetched on every event. Grouping is what makes pair counting
// fast: ungrouped, each event scatters to a different branch's row and
// every increment pays a cache miss.
//
// A row is a []uint32 indexed directly by partner id, so an increment
// is row[partner]++. Every partner of a staged event is an id already
// discovered, so a batch records the discovered-id count as the row
// length its increments need; a row shorter than that grows, at most
// once per batch, to rowTarget's length. Rows never grow by doubling.
//
// Sharded mode (P > 1) partitions the rows by executing branch id:
// worker w owns ids ≡ w (mod P) and applies the batches the producer
// routes to it. No lock, channel, or map is touched per increment —
// hand-off is per batch. Serial mode (P = 1) is the same engine with
// the apply running synchronously in the producer.
//
// Determinism: a batch is applied grouped by destination but *stably* —
// events of one branch keep their stream order — so each row receives
// exactly the increment sequence it would receive from an unbatched
// serial loop. Row contents are therefore identical for every shard
// count P and every batch geometry (row lengths may differ, but cells
// past a row's end are zero either way), and extraction reads only the
// contents, making the extracted profile byte-identical by construction
// (DESIGN.md §15).

const (
	// stagingPartners is the total partner-staging budget (entries
	// across all workers' circulating batches). Batches must be large
	// enough that a hot branch recurs many times per batch — that is
	// the cache amortization — but the budget, not the shard count,
	// bounds staging memory: per-worker batches shrink as P grows.
	stagingPartners = 1 << 20
	// shardFreeDepth is how many spare batches cycle per worker beyond
	// the one the producer fills. Two gives double buffering: the
	// producer fills one while the worker drains another, and blocks
	// (bounded memory) if the worker falls behind.
	shardFreeDepth = 2
)

// shardBatch is one struct-of-arrays staging unit: event i executed
// branch ids[i] and its interleave partners are the next lens[i]
// entries of partners. Every partner id is below known, the row length
// the batch's increments need; a shorter row grows to growTo.
type shardBatch struct {
	ids      []int32
	lens     []int32
	partners []int32
	known    int
	growTo   int
}

func newShardBatch(partnersCap int) *shardBatch {
	eventsCap := partnersCap / 4
	return &shardBatch{ //reprolint:allow hotpath per-interval batch provisioning, not per event
		ids:      make([]int32, 0, eventsCap),   //reprolint:allow hotpath per-interval batch provisioning, not per event
		lens:     make([]int32, 0, eventsCap),   //reprolint:allow hotpath per-interval batch provisioning, not per event
		partners: make([]int32, 0, partnersCap), //reprolint:allow hotpath per-interval batch provisioning, not per event
	}
}

// reset clears the batch for reuse, keeping its allocations.
func (b *shardBatch) reset() {
	b.ids = b.ids[:0]
	b.lens = b.lens[:0]
	b.partners = b.partners[:0]
	b.known, b.growTo = 0, 0
}

// applyScratch is the per-worker workspace for grouped batch apply:
// per-destination chain heads/tails and per-event links/offsets, reused
// across batches.
type applyScratch struct {
	head    []int32 // per destination row; -1 when untouched
	tail    []int32
	next    []int32 // per event header
	offs    []int32
	touched []int32
}

// applyBatch applies one batch to a row partition, grouped stably by
// destination (id/p): all increments for one branch run back-to-back
// while its row is cache-hot, in stream order. Returns the (possibly
// grown) partition.
func applyBatch(b *shardBatch, tabs [][]uint32, sc *applyScratch, p int) [][]uint32 {
	n := len(b.ids)
	if n == 0 {
		return tabs
	}
	if cap(sc.next) < n {
		sc.next = make([]int32, n) //reprolint:allow hotpath scratch sized once per batch geometry, reused across batches
		sc.offs = make([]int32, n) //reprolint:allow hotpath scratch sized once per batch geometry, reused across batches
	}
	next, offs := sc.next[:n], sc.offs[:n]

	maxRow := 0
	for _, id := range b.ids {
		if r := int(uint32(id)) / p; r > maxRow {
			maxRow = r
		}
	}
	if maxRow >= len(tabs) {
		tabs = growPartition(tabs, maxRow+1)
	}
	if len(sc.head) <= maxRow {
		sc.head = make([]int32, maxRow+64) //reprolint:allow hotpath scratch grows with the static branch count, O(log) times per run
		sc.tail = make([]int32, maxRow+64) //reprolint:allow hotpath scratch grows with the static branch count, O(log) times per run
		for i := range sc.head {
			sc.head[i] = -1
		}
	}

	// Pass 1: chain the batch's events per destination row, stably.
	sc.touched = sc.touched[:0]
	off := int32(0)
	for i, id := range b.ids {
		offs[i] = off
		off += b.lens[i]
		next[i] = -1
		r := int32(uint32(id)) / int32(p)
		if sc.head[r] < 0 {
			sc.head[r] = int32(i)
			sc.touched = append(sc.touched, r) //reprolint:allow hotpath bounded by distinct branches per batch, reused backing array
		} else {
			next[sc.tail[r]] = int32(i)
		}
		sc.tail[r] = int32(i)
	}

	// Pass 2: per destination, walk its chain and apply every increment
	// while the row is hot.
	for _, r := range sc.touched {
		row := tabs[r]
		if len(row) < b.known {
			row = growRow(row, b.growTo)
			tabs[r] = row
		}
		for i := sc.head[r]; i >= 0; i = next[i] {
			for _, cur := range b.partners[offs[i] : offs[i]+b.lens[i]] {
				row[cur]++
			}
		}
		sc.head[r] = -1
	}
	return tabs
}

// rowTarget is the length a row grows to when it must hold known cells:
// half again the ids discovered so far, capped at the reserved static
// count when that covers them. Discovery is spread over the run (a
// benchmark meets new branches scene by scene), so the slack bounds a
// row's regrowths to O(log n) and its length to 1.5n for n discovered
// branches, and with an exact reserve to n. Growing straight to the
// reserve instead would trust it as exact: a caller that reserves a
// program's static branch count while profiling a filtered stream of a
// quarter of them would get rows four times too long.
func rowTarget(known, reserve int) int {
	t := known + known/2
	if reserve >= known {
		t = min(t, reserve)
	}
	return t
}

// growRow extends a neighbor row to n cells, keeping its counts.
func growRow(row []uint32, n int) []uint32 {
	grown := make([]uint32, n) //reprolint:allow hotpath row growth by half again the discovered ids: O(log static-branches) times per branch, at most once per batch
	copy(grown, row)
	return grown
}

// growPartition extends a row partition geometrically.
func growPartition(tabs [][]uint32, n int) [][]uint32 {
	size := cap(tabs)
	if size < 64 {
		size = 64
	}
	for size < n {
		size *= 2
	}
	grown := make([][]uint32, n, size) //reprolint:allow hotpath amortized geometric growth, O(log static-branches) times per run
	copy(grown, tabs)
	return grown
}

// pairShards is the accumulation engine for both modes. With p == 1
// everything runs in the producer. With p > 1, workers run only while
// events are flowing: drain stops them and establishes a happens-before
// edge, after which the partitioned rows are safe to read from the
// caller's goroutine; the next emit restarts them.
type pairShards struct {
	p        int
	batchCap int // partner entries per batch
	reserve  int // expected static branch count (Profiler.Reserve); producer-owned

	// tabs[w][id/p] is branch id's neighbor row, owned by worker
	// w = id%p. Only worker w writes its partition while running; the
	// producer reads all partitions after drain.
	tabs    [][][]uint32
	scratch []*applyScratch

	cur     []*shardBatch      // batch being filled per worker, producer-owned
	chs     []chan *shardBatch // full batches to workers
	free    []chan *shardBatch // drained batches back to the producer
	wg      sync.WaitGroup
	running bool

	// Optional observability (nil-safe): batches counts handed-off
	// batches; queueMax tracks the high-water worker-channel depth, the
	// back-pressure signal for tuning the staging budget.
	batches  *obs.Counter
	queueMax *obs.Gauge
}

func newPairShards(n int) *pairShards {
	batchCap := stagingPartners
	if n > 1 {
		// Fixed total staging budget: per-worker batches shrink as P
		// grows, and so do per-worker partitions — the amortization
		// ratio (increments per cached row) is P-independent.
		batchCap = stagingPartners / (n * (shardFreeDepth + 1))
		if batchCap < 1<<12 {
			batchCap = 1 << 12
		}
	}
	s := &pairShards{
		p:        n,
		batchCap: batchCap,
		tabs:     make([][][]uint32, n),
		scratch:  make([]*applyScratch, n),
		cur:      make([]*shardBatch, n),
		chs:      make([]chan *shardBatch, n),
		free:     make([]chan *shardBatch, n),
	}
	for w := range s.scratch {
		s.scratch[w] = &applyScratch{}
	}
	return s
}

// start launches the workers and provisions the batch cycle. Runs once
// per accumulation interval (on the first flush, again after a drain),
// never per event.
func (s *pairShards) start() {
	for w := 0; w < s.p; w++ {
		s.chs[w] = make(chan *shardBatch, shardFreeDepth)    //reprolint:allow hotpath per-interval worker startup, not per event
		s.free[w] = make(chan *shardBatch, shardFreeDepth+1) //reprolint:allow hotpath per-interval worker startup, not per event
		for i := 0; i < shardFreeDepth; i++ {
			s.free[w] <- newShardBatch(s.batchCap) //reprolint:allow hotpath per-interval worker startup, not per event
		}
	}
	s.wg.Add(s.p)
	for w := 0; w < s.p; w++ {
		go s.worker(w) //reprolint:allow hotpath per-interval worker startup, not per event
	}
	s.running = true
}

// worker applies batches to its own row partition. The partition
// slice is grown worker-locally and published back to s.tabs[w] before
// wg.Done, which happens-before the post-drain reads.
func (s *pairShards) worker(w int) {
	tabs := s.tabs[w]
	sc := s.scratch[w]
	for b := range s.chs[w] { //reprolint:allow hotpath batch hand-off, amortized over thousands of increments
		tabs = applyBatch(b, tabs, sc, s.p)
		b.reset()
		s.free[w] <- b //reprolint:allow hotpath batch recycling, amortized over thousands of increments
	}
	s.tabs[w] = tabs
	s.wg.Done()
}

// emit stages one event's partner prefix for the owning worker: a bulk
// append (memmove) into the worker's current batch, flushing when full.
// Oversized prefixes are chunked across batches; counts are preserved
// because apply walks increments per header. known is the number of
// ids discovered so far, which bounds every partner id.
func (s *pairShards) emit(id int32, partners []int32, known int) {
	w := int(uint32(id)) % s.p
	for len(partners) > 0 {
		b := s.cur[w]
		if b == nil {
			b = newShardBatch(s.batchCap)
			s.cur[w] = b
		}
		room := cap(b.partners) - len(b.partners)
		if room == 0 || len(b.ids) == cap(b.ids) {
			s.flush(w)
			continue
		}
		n := len(partners)
		if n > room {
			n = room
		}
		b.ids = append(b.ids, id)                        //reprolint:allow hotpath append within fixed batch capacity; flush guarantees room
		b.lens = append(b.lens, int32(n))                //reprolint:allow hotpath append within fixed batch capacity; flush guarantees room
		b.partners = append(b.partners, partners[:n]...) //reprolint:allow hotpath append within fixed batch capacity; flush guarantees room
		b.known = known
		partners = partners[n:]
	}
}

// flush hands worker w's current batch over (serially: applies it in
// place), taking a recycled batch and blocking — bounded memory — if
// the worker is behind.
func (s *pairShards) flush(w int) {
	b := s.cur[w]
	if b == nil || len(b.ids) == 0 {
		return
	}
	b.growTo = rowTarget(b.known, s.reserve)
	if s.p == 1 {
		s.tabs[0] = applyBatch(b, s.tabs[0], s.scratch[0], 1)
		b.reset()
		s.batches.Inc()
		return
	}
	if !s.running {
		s.start()
	}
	s.queueMax.SetMax(int64(len(s.chs[w]) + 1))
	s.chs[w] <- b //reprolint:allow hotpath batch hand-off, amortized over thousands of increments
	s.batches.Inc()
	s.cur[w] = <-s.free[w] //reprolint:allow hotpath batch recycling, amortized over thousands of increments
}

// drain flushes every staged batch and stops the workers. On return the
// partitioned rows hold every increment issued so far and may be
// read from the calling goroutine; accumulation can resume afterwards
// (the next flush restarts the workers).
//
//reprolint:hotpath shard pipeline drain barrier
func (s *pairShards) drain() {
	for w := 0; w < s.p; w++ {
		s.flush(w)
	}
	if !s.running {
		return
	}
	for w := 0; w < s.p; w++ {
		s.cur[w] = nil
		close(s.chs[w])
	}
	s.wg.Wait()
	for w := 0; w < s.p; w++ {
		s.chs[w], s.free[w] = nil, nil
	}
	s.running = false
}

// tableBytes reports the partitioned rows' footprint — the
// accumulator memory common to both modes.
func (s *pairShards) tableBytes() uint64 {
	var total uint64
	for w := range s.tabs {
		for _, row := range s.tabs[w] {
			total += uint64(cap(row)) * 4
		}
	}
	return total
}

// overheadBytes reports the memory sharding adds over serial
// accumulation: the extra circulating staging batches plus partition
// and scratch bookkeeping. The rows themselves are common to both
// modes and excluded (see tableBytes); serial mode's single staging
// batch is the baseline.
func (s *pairShards) overheadBytes() uint64 {
	perBatch := uint64(s.batchCap)*4 + 2*uint64(s.batchCap/4)*4
	total := uint64(s.p) * uint64(shardFreeDepth+1) * perBatch
	if s.p == 1 {
		total = 0
	}
	for w := range s.tabs {
		total += uint64(cap(s.tabs[w])) * 24
	}
	return total
}
