package profile

import "repro/internal/obs"

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
// The engine is one synchronous pipeline in the producer: emit stages,
// a full batch is applied in place, and release applies the partial
// batch before extraction. The recency scan that produces the events is
// serial state, so accumulation is too (DESIGN.md §11).
//
// Determinism: a batch is applied grouped by destination but *stably* —
// events of one branch keep their stream order — so each row receives
// exactly the increment sequence it would receive from an unbatched
// loop. Row contents are therefore identical for every batch geometry
// (row lengths may differ, but cells past a row's end are zero either
// way), and extraction reads only the contents, making the extracted
// profile independent of where batches break (DESIGN.md §15).

// stagingPartners is the staging batch's limit in partner entries, and
// stagingEvents its limit in event headers: a batch is applied when it
// reaches either. A batch must be large enough that a hot branch recurs
// many times per batch — that is the cache amortization — and the
// limits, not the allocation, fix where batches break, so batch counts
// are a deterministic function of the stream. The arrays grow by
// doubling up to the limits instead of being allocated whole: at 6
// bytes per entry a full batch is 6 MB, which a graph kernel's short
// stream never fills, and allocating it whole for every profiler
// raised graph-zoo's peak RSS by a quarter. Profile releases the batch
// before extraction, whose own peak it would otherwise add to.
const (
	stagingPartners = 1 << 20
	stagingEvents   = stagingPartners / 4
)

// pairBatch is one struct-of-arrays staging unit: event i executed
// branch ids[i] and its interleave partners are the next lens[i]
// entries of partners. Every partner id is below known, the row length
// the batch's increments need; a shorter row grows to growTo.
type pairBatch struct {
	ids      []int32
	lens     []int32
	partners []int32
	known    int
	growTo   int
}

// grow doubles whichever arrays lack room for one more event of n
// partners, never past the staging budget, so a stream shorter than the
// budget never pays for the whole batch.
func (b *pairBatch) grow(n int) {
	if len(b.ids) == cap(b.ids) {
		c := min(max(2*cap(b.ids), 1<<10), stagingEvents)
		b.ids = append(make([]int32, 0, c), b.ids...)   //reprolint:allow hotpath geometric growth up to the staging budget, O(log) times per profiler
		b.lens = append(make([]int32, 0, c), b.lens...) //reprolint:allow hotpath geometric growth up to the staging budget, O(log) times per profiler
	}
	if need := len(b.partners) + n; need > cap(b.partners) {
		c := min(max(2*cap(b.partners), need, 1<<12), stagingPartners)
		b.partners = append(make([]int32, 0, c), b.partners...) //reprolint:allow hotpath geometric growth up to the staging budget, O(log) times per profiler
	}
}

// reset clears the batch for reuse, keeping its allocations.
func (b *pairBatch) reset() {
	b.ids = b.ids[:0]
	b.lens = b.lens[:0]
	b.partners = b.partners[:0]
	b.known, b.growTo = 0, 0
}

// applyScratch is the workspace for grouped batch apply: per-destination
// chain heads/tails and per-event links/offsets, reused across batches.
type applyScratch struct {
	head    []int32 // per destination row; -1 when untouched
	tail    []int32
	next    []int32 // per event header
	offs    []int32
	touched []int32
}

// applyBatch applies one batch to the neighbor rows, grouped stably by
// destination: all increments for one branch run back-to-back while its
// row is cache-hot, in stream order. Returns the (possibly grown) rows.
func applyBatch(b *pairBatch, rows [][]uint32, sc *applyScratch) [][]uint32 {
	n := len(b.ids)
	if n == 0 {
		return rows
	}
	if cap(sc.next) < n {
		sc.next = make([]int32, n) //reprolint:allow hotpath scratch sized once per batch geometry, reused across batches
		sc.offs = make([]int32, n) //reprolint:allow hotpath scratch sized once per batch geometry, reused across batches
	}
	next, offs := sc.next[:n], sc.offs[:n]

	maxRow := int32(0)
	for _, id := range b.ids {
		maxRow = max(maxRow, id)
	}
	if int(maxRow) >= len(rows) {
		rows = growRows(rows, int(maxRow)+1)
	}
	if len(sc.head) <= int(maxRow) {
		sc.head = make([]int32, maxRow+64) //reprolint:allow hotpath scratch grows with the static branch count, O(log) times per run
		sc.tail = make([]int32, maxRow+64) //reprolint:allow hotpath scratch grows with the static branch count, O(log) times per run
		for i := range sc.head {
			sc.head[i] = -1
		}
	}

	// Pass 1: chain the batch's events per destination row, stably.
	sc.touched = sc.touched[:0]
	off := int32(0)
	for i, r := range b.ids {
		offs[i] = off
		off += b.lens[i]
		next[i] = -1
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
		row := rows[r]
		if len(row) < b.known {
			row = growRow(row, b.growTo)
			rows[r] = row
		}
		for i := sc.head[r]; i >= 0; i = next[i] {
			for _, cur := range b.partners[offs[i] : offs[i]+b.lens[i]] {
				row[cur]++
			}
		}
		sc.head[r] = -1
	}
	return rows
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

// growRows extends the row table geometrically.
func growRows(rows [][]uint32, n int) [][]uint32 {
	size := max(cap(rows), 64)
	for size < n {
		size *= 2
	}
	grown := make([][]uint32, n, size) //reprolint:allow hotpath amortized geometric growth, O(log static-branches) times per run
	copy(grown, rows)
	return grown
}

// pairAccum is the accumulation engine: the neighbor rows and the one
// staging batch that feeds them. The zero value is ready to use.
type pairAccum struct {
	reserve int // expected static branch count (Profiler.Reserve)

	// rows[id] is branch id's neighbor row; nil or short rows read as
	// zero past their end.
	rows    [][]uint32
	batch   pairBatch
	scratch applyScratch

	// batches counts applied batches (optional, nil-safe).
	batches *obs.Counter
}

// emit stages one event's partner prefix: a bulk append (memmove) into
// the batch, applying it when full. Oversized prefixes are chunked
// across batches; counts are preserved because apply walks increments
// per header. known is the number of ids discovered so far, which
// bounds every partner id.
func (s *pairAccum) emit(id int32, partners []int32, known int) {
	b := &s.batch
	for len(partners) > 0 {
		room := stagingPartners - len(b.partners)
		if room == 0 || len(b.ids) == stagingEvents {
			s.flush()
			continue
		}
		n := min(len(partners), room)
		if len(b.ids) == cap(b.ids) || len(b.partners)+n > cap(b.partners) {
			b.grow(n)
		}
		b.ids = append(b.ids, id)                        //reprolint:allow hotpath append within capacity; grow and flush guarantee room
		b.lens = append(b.lens, int32(n))                //reprolint:allow hotpath append within capacity; grow and flush guarantee room
		b.partners = append(b.partners, partners[:n]...) //reprolint:allow hotpath append within capacity; grow and flush guarantee room
		b.known = known
		partners = partners[n:]
	}
}

// flush applies the staged batch, after which the rows hold every
// increment emitted so far.
func (s *pairAccum) flush() {
	b := &s.batch
	if len(b.ids) == 0 {
		return
	}
	b.growTo = rowTarget(b.known, s.reserve)
	s.rows = applyBatch(b, s.rows, &s.scratch)
	b.reset()
	s.batches.Inc()
}

// release applies the staged batch and drops the staging and scratch
// arrays, so extraction runs without them; the next emit regrows them.
func (s *pairAccum) release() {
	s.flush()
	s.batch = pairBatch{}
	s.scratch = applyScratch{}
}

// tableBytes reports the neighbor rows' footprint.
func (s *pairAccum) tableBytes() uint64 {
	var total uint64
	for _, row := range s.rows {
		total += uint64(cap(row)) * 4
	}
	return total
}
