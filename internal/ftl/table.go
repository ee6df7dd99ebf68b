package ftl

import "maps"

// minTableCeiling is the smallest key ceiling newTable gives its slice
// table: keys below it always take the chunked fast path, whatever the
// sizing hint (1<<22 keys span 1024 chunks, allocated only as touched).
const minTableCeiling = 1 << 22

// newTable builds a table for a space of `span` pages. The span is a
// sizing hint, not a bound: keys past it still map correctly (hosts may
// address LPNs beyond the configured logical space in tests), but keys
// far past it — beyond boundedTable's ceiling — spill into a plain map,
// so one pathological huge key costs a map entry, never a
// proportionally huge array.
func newTable(span int64) *boundedTable {
	// Twice the hinted span tolerates mildly out-of-range addressing in
	// the slice table; anything past that is pathological input.
	ceiling := 2 * span
	if ceiling < minTableCeiling {
		ceiling = minTableCeiling
	}
	return &boundedTable{main: &pagedTable{chunkStore: newChunkStore(span)}, ceiling: ceiling}
}

// boundedTable is the FTL's LPN→PPN mapping table, tuned for the
// translate/commit/GC-relocate hot path. Keys below the ceiling go to a
// chunked slice table — direct indexing replaced the Go maps the FTL used
// to carry, whose probes were ~10% of hot-path CPU — and everything above
// into an overflow map. The hot path (every key a well-formed workload
// produces) pays one extra compare; outliers get the old map semantics at
// O(touched) memory.
//
// Keys and values are non-negative; the slice table uses -1 as the
// "unmapped" sentinel.
type boundedTable struct {
	main     *pagedTable
	ceiling  int64
	overflow map[int64]int64
}

// get returns the value mapped for k.
func (t *boundedTable) get(k int64) (int64, bool) {
	if k < t.ceiling {
		return t.main.get(k)
	}
	v, ok := t.overflow[k]
	return v, ok
}

// set maps k to v, reporting whether k was previously mapped.
func (t *boundedTable) set(k int64, v int64) bool {
	if k < t.ceiling {
		return t.main.set(k, v)
	}
	if t.overflow == nil {
		t.overflow = make(map[int64]int64)
	}
	_, had := t.overflow[k]
	t.overflow[k] = v
	return had
}

// len returns the number of live mappings.
func (t *boundedTable) len() int { return t.main.len() + len(t.overflow) }

// forEach visits every live mapping until fn returns false.
func (t *boundedTable) forEach(fn func(k, v int64) bool) {
	done := false
	t.main.forEach(func(k, v int64) bool {
		if !fn(k, v) {
			done = true
			return false
		}
		return true
	})
	if done {
		return
	}
	for k, v := range t.overflow {
		if !fn(k, v) {
			return
		}
	}
}

// copyFrom makes t hold src's mappings; both must share a ceiling.
func (t *boundedTable) copyFrom(src *boundedTable) {
	t.main.chunkStore.copyFrom(&src.main.chunkStore)
	t.main.live = src.main.live
	t.overflow = maps.Clone(src.overflow)
}

// footprint returns the table's resident entry count (capacity actually
// allocated), for memory accounting and tests.
func (t *boundedTable) footprint() int64 {
	return t.main.footprint() + int64(len(t.overflow))
}

// reset drops every mapping while retaining allocated storage, so a
// reused FTL starts its next run without rebuilding the table. It costs
// O(what the last run touched), not O(capacity).
func (t *boundedTable) reset() {
	t.main.reset()
	t.overflow = nil
}

// The chunked tables cut the key space into fixed pages allocated on
// first touch, so huge but sparsely-addressed spaces (a 1024-chip
// platform's PPN space, a mostly-cold logical space) cost memory
// proportional to what the workload actually maps.
const (
	tableChunkBits = 12 // 4096 entries (32 KB) per chunk
	tableChunkSize = 1 << tableChunkBits
	tableChunkMask = tableChunkSize - 1
	// tableBatchMax caps how many chunks one allocation carves (2 MB).
	tableBatchMax = 64
)

// chunkStore is the chunk storage both tables share. It keeps the chunks
// the current run touched in used; reset moves them onto the spare stack
// without clearing them, and chunk hands a spare out again only when a
// later run touches that part of the key space. Reset therefore costs
// O(chunks touched this run), and the store's memory is bounded by the
// largest single run's touch set (within grow's batch slack) rather than
// the union of every run's keys.
type chunkStore struct {
	chunks [][]int64
	used   []int64   // chunk indices allocated since the last reset
	spare  [][]int64 // recycled chunks awaiting reuse (contents stale)
}

// newChunkStore presizes the chunk slots to a space of span keys so a
// growing store does not reallocate them (a 24-byte slot per 32 KB chunk
// of key space).
func newChunkStore(span int64) chunkStore {
	return chunkStore{chunks: make([][]int64, (span+tableChunkMask)>>tableChunkBits)}
}

// chunk returns the chunk holding k. On the first touch since the last
// reset it comes from the spare stack and fresh is true: its contents are
// then zero or a past run's stale entries.
func (s *chunkStore) chunk(k int64) (c []int64, fresh bool) {
	ci := k >> tableChunkBits
	for ci >= int64(len(s.chunks)) {
		s.chunks = append(s.chunks, nil)
	}
	c = s.chunks[ci]
	if c == nil {
		if len(s.spare) == 0 {
			s.grow()
		}
		n := len(s.spare)
		c = s.spare[n-1]
		s.spare[n-1] = nil
		s.spare = s.spare[:n-1]
		s.chunks[ci] = c
		s.used = append(s.used, ci)
		fresh = true
	}
	return c, fresh
}

// grow refills the empty spare stack with a batch of chunks carved from
// one allocation. The batch matches the store's current size, capped at
// tableBatchMax, so a growing store makes O(log n) allocations, as a
// doubling flat array would, while allocating less than twice the chunks
// any single run has touched.
func (s *chunkStore) grow() {
	k := min(max(len(s.used), 1), tableBatchMax)
	slab := make([]int64, k*tableChunkSize)
	for i := 0; i < k; i++ {
		s.spare = append(s.spare, slab[i*tableChunkSize:(i+1)*tableChunkSize:(i+1)*tableChunkSize])
	}
}

// copyFrom drops s's chunks and copies in each chunk src has touched.
// Missing chunks come in chunk's usual batches of at most tableBatchMax:
// one slab per table, allocated afresh by each device a snapshot
// hydrates, raised the aged-write benchmark's peak RSS from 275 to
// 327 MB on a 64-chip drive.
func (s *chunkStore) copyFrom(src *chunkStore) {
	s.reset()
	for _, ci := range src.used {
		c, _ := s.chunk(ci << tableChunkBits)
		copy(c, src.chunks[ci])
	}
}

func (s *chunkStore) footprint() int64 {
	return int64(len(s.used)+len(s.spare)) * tableChunkSize
}

func (s *chunkStore) reset() {
	for _, ci := range s.used {
		s.spare = append(s.spare, s.chunks[ci])
		s.chunks[ci] = nil
	}
	s.used = s.used[:0]
}

// pagedTable is boundedTable's slice layer: a chunkStore whose entries
// read -1 until set, so it can answer "unmapped". A chunk is filled with
// the sentinel when first touched.
type pagedTable struct {
	chunkStore
	live int
}

func (t *pagedTable) get(k int64) (int64, bool) {
	ci := k >> tableChunkBits
	if ci >= int64(len(t.chunks)) {
		return 0, false
	}
	c := t.chunks[ci]
	if c == nil {
		return 0, false
	}
	v := c[k&tableChunkMask]
	return v, v >= 0
}

func (t *pagedTable) set(k int64, v int64) bool {
	c, fresh := t.chunk(k)
	if fresh {
		for i := range c {
			c[i] = -1
		}
	}
	had := c[k&tableChunkMask] >= 0
	c[k&tableChunkMask] = v
	if !had {
		t.live++
	}
	return had
}

func (t *pagedTable) len() int { return t.live }

func (t *pagedTable) forEach(fn func(k, v int64) bool) {
	for ci, c := range t.chunks {
		if c == nil {
			continue
		}
		base := int64(ci) << tableChunkBits
		for i, v := range c {
			if v >= 0 && !fn(base+int64(i), v) {
				return
			}
		}
	}
}

func (t *pagedTable) reset() {
	t.chunkStore.reset()
	t.live = 0
}

// oobMap is the FTL's reverse (PPN→LPN) map, kept the way a real drive
// keeps it in each page's out-of-band area: the LPN is written when the
// page is programmed and read back only while the page's valid bit is
// set. Nothing reads an entry whose page is not valid, so entries are
// never cleared: a chunk needs no sentinel fill when first touched or
// recycled, an invalidated page keeps its stale entry, and there is no
// live count. PPNs are below the geometry's page count, so the store's
// presized slots always cover them.
type oobMap struct{ chunkStore }

// set records lpn as page p's owner.
func (m *oobMap) set(p, lpn int64) {
	c, _ := m.chunk(p)
	c[p&tableChunkMask] = lpn
}

// get returns page p's recorded owner. It is meaningful only while p's
// valid bit is set; a page in a chunk untouched since the last reset
// reads -1.
func (m *oobMap) get(p int64) int64 {
	c := m.chunks[p>>tableChunkBits]
	if c == nil {
		return -1
	}
	return c[p&tableChunkMask]
}
