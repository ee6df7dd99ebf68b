// Package sched defines the device-level I/O scheduler interface of the
// NVMHC and the two state-of-the-art baselines the paper compares against
// (§3): the virtual address scheduler (VAS) and the physical address
// scheduler (PAS). The paper's contribution, Sprinkler, lives in
// internal/core and implements the same interface.
package sched

import (
	"fmt"
	"math/bits"
	"sort"

	"sprinkler/internal/flash"
	"sprinkler/internal/nvmhc"
	"sprinkler/internal/req"
	"sprinkler/internal/sim"
)

// Fabric is the scheduler's read-only view of the SSD internals: physical
// layout, per-chip commitment pressure, and the incremental ready index.
// The device model implements it.
type Fabric interface {
	// Geo returns the flash geometry (the "internal resource layout").
	Geo() flash.Geometry
	// Outstanding reports how many memory requests are composed/committed
	// to the chip but not yet served. Schedulers budget against this.
	Outstanding(c flash.ChipID) int
	// Ready returns the per-chip index of still-queued memory requests,
	// maintained incrementally by the device as I/Os are admitted,
	// selected, and readdressed. A nil index tells schedulers to fall
	// back to scanning the queue (test fabrics do this).
	Ready() *ReadyIndex
}

// Scheduler selects which memory requests to compose and commit next.
//
// Select returns memory requests in commitment order; the device model
// initiates their data movements (serialized on the DMA engine) and hands
// them to the flash controllers. Select is invoked whenever commitment
// capacity or queue contents change. Requests already selected are in
// states beyond StateQueued and must not be returned again.
//
// The returned slice is owned by the scheduler and valid only until the
// next Select call: schedulers reuse it to keep the hot path free of
// allocations, and callers must consume it before invoking Select again.
type Scheduler interface {
	Name() string
	Select(now sim.Time, q *nvmhc.Queue, fab Fabric) []*req.Mem
	// NeedsReaddressing reports whether the scheduler subscribes to the
	// §4.3 readdressing callback. Schedulers that do see fresh physical
	// addresses after live-data migration; schedulers that don't pay a
	// re-translation penalty at commit time.
	NeedsReaddressing() bool
}

// ReadyIndex is the incremental per-chip index of still-queued memory
// requests. The device feeds it on every queue transition — admission
// appends, commitment removes, readdressing re-points — so schedulers can
// enumerate each chip's candidates directly instead of rescanning every
// queued I/O's member list on every pump.
//
// Per-chip lists hold requests in admission order (parent I/O admission
// sequence, then member index) — exactly the order a full queue scan would
// discover them, which keeps index-driven scheduling bit-identical to the
// scan it replaces. Removal just nils the slot (O(1), via
// req.Mem.ReadySlot); holes are compacted away during Gather.
//
// The index also keeps the set of chips holding at least one queued
// request as a bitset laid out in the RIOS traversal order (§4.1):
// bit offset·Channels + channel. LiveChips walks it, so a scheduler visits
// only chips that can contribute, already in traversal order.
type ReadyIndex struct {
	lists [][]*req.Mem
	live  []int32

	liveSet []uint64       // bit pos set iff live[chipAt[pos]] > 0
	pos     []int32        // chip → bit position
	chipAt  []flash.ChipID // bit position → chip
}

// NewReadyIndex returns an empty index over g's chips.
func NewReadyIndex(g flash.Geometry) *ReadyIndex {
	n := g.NumChips()
	x := &ReadyIndex{
		lists:   make([][]*req.Mem, n),
		live:    make([]int32, n),
		liveSet: make([]uint64, (n+63)/64),
		pos:     make([]int32, n),
		chipAt:  make([]flash.ChipID, 0, n),
	}
	for off := 0; off < g.ChipsPerChan; off++ {
		for ch := 0; ch < g.Channels; ch++ {
			c := g.ChipAt(ch, off)
			x.pos[c] = int32(len(x.chipAt))
			x.chipAt = append(x.chipAt, c)
		}
	}
	return x
}

// Reset empties the index for a new run, retaining per-chip list storage.
// Slots are nilled so the previous run's requests are not pinned.
func (x *ReadyIndex) Reset() {
	for c := range x.lists {
		l := x.lists[c]
		for i := range l {
			l[i] = nil
		}
		x.lists[c] = l[:0]
		x.live[c] = 0
	}
	clear(x.liveSet)
}

// Add indexes m under its current chip. Admission calls this in queue
// order, so plain appends keep each list sorted by admission order.
func (x *ReadyIndex) Add(m *req.Mem) {
	c := m.Addr.Chip
	m.ReadySlot = int32(len(x.lists[c]))
	x.lists[c] = append(x.lists[c], m)
	if x.live[c] == 0 {
		p := x.pos[c]
		x.liveSet[p>>6] |= 1 << uint(p&63)
	}
	x.live[c]++
}

// Remove unindexes m in O(1), leaving a hole. Gather compacts holes on
// the Sprinkler path; for schedulers that never Gather (VAS, PAS, or a
// queue under a sustained FUA barrier) the list is compacted here once
// holes dominate, so index memory tracks the live queue depth for every
// scheduler instead of growing with total admissions.
func (x *ReadyIndex) Remove(m *req.Mem) {
	c := m.Addr.Chip
	x.lists[c][m.ReadySlot] = nil
	m.ReadySlot = -1
	x.live[c]--
	if x.live[c] == 0 {
		p := x.pos[c]
		x.liveSet[p>>6] &^= 1 << uint(p&63)
	}
	if l := x.lists[c]; len(l) >= 64 && int(x.live[c])*2 < len(l) {
		x.lists[c] = compactList(l)
	}
}

// Readdress re-points m at dst (live-data migration, §4.3). GC migrates
// live pages only between planes of the victim's chip, so m keeps its
// list, slot and admission order; only its address changes.
// A dst on another chip is an internal invariant violation and panics.
func (x *ReadyIndex) Readdress(m *req.Mem, dst flash.Addr) {
	if m.Addr.Chip != dst.Chip {
		panic(fmt.Sprintf("sched: readdress of %v to another chip %v", m.Addr, dst))
	}
	m.Addr = dst
}

// compactList squeezes out nil holes, fixing ReadySlot positions.
func compactList(l []*req.Mem) []*req.Mem {
	w := 0
	for _, m := range l {
		if m == nil {
			continue
		}
		l[w] = m
		m.ReadySlot = int32(w)
		w++
	}
	return l[:w]
}

// LiveChips appends the chips holding at least one queued request to dst
// in RIOS traversal order (offset-major, channel-minor) and returns the
// extended slice.
func (x *ReadyIndex) LiveChips(dst []flash.ChipID) []flash.ChipID {
	for w, word := range x.liveSet {
		for word != 0 {
			dst = append(dst, x.chipAt[w<<6|bits.TrailingZeros64(word)])
			word &= word - 1
		}
	}
	return dst
}

// List returns chip c's indexed requests in admission order. Entries may
// be nil (removed); callers must skip them and must not mutate or retain
// the slice.
func (x *ReadyIndex) List(c flash.ChipID) []*req.Mem { return x.lists[c] }

// First returns chip c's oldest queued request, or nil when the chip has
// none.
func (x *ReadyIndex) First(c flash.ChipID) *req.Mem {
	for _, m := range x.lists[c] {
		if m != nil {
			return m
		}
	}
	return nil
}

// Gather compacts chip c's list and appends up to max of its requests
// (all of them when max <= 0) whose parent I/O was admitted at or before
// maxSeq to dst, returning the extended slice.
func (x *ReadyIndex) Gather(c flash.ChipID, dst []*req.Mem, max int, maxSeq uint64) []*req.Mem {
	l := x.lists[c]
	w := 0
	taken := 0
	for _, m := range l {
		if m == nil {
			continue
		}
		l[w] = m
		m.ReadySlot = int32(w)
		w++
		if (max <= 0 || taken < max) && m.IO.Seq <= maxSeq {
			dst = append(dst, m)
			taken++
		}
	}
	for i := w; i < len(l); i++ {
		l[i] = nil
	}
	x.lists[c] = l[:w]
	return dst
}

// CandidateWindow gathers still-queued memory requests from the first
// window I/Os of the queue (window <= 0 means every entry), honouring the
// force-unit-access barrier of §4.4: an FUA I/O must not be reordered, so
// the scan stops at an FUA entry unless it is the head, and an FUA head
// blocks the scan after it until fully selected.
func CandidateWindow(q *nvmhc.Queue, window int) []*req.Mem {
	var out []*req.Mem
	i := 0
	for io := q.Head(); io != nil; io = q.Next(io) {
		if window > 0 && i >= window {
			break
		}
		if io.FUA && i > 0 {
			// Barrier: nothing at or beyond an FUA entry may be selected
			// before the entries ahead of it have fully drained.
			break
		}
		for _, m := range io.Mem {
			if m.State == req.StateQueued {
				out = append(out, m)
			}
		}
		if io.FUA {
			// FUA head: serve it alone, in order.
			break
		}
		i++
	}
	return out
}

// StateResetter is implemented by schedulers whose per-run selection
// state can be dropped in place, so one scheduler value can serve
// consecutive runs on a reused device. ResetState must leave the
// scheduler behaving exactly like a freshly constructed one (grown
// scratch capacity may be retained; references to the previous run's
// requests may not).
type StateResetter interface {
	ResetState()
}

// Budget tracks per-chip commitment capacity within one Select call. It is
// owned by a scheduler and reused across calls: Reset bumps an epoch
// counter instead of clearing (or allocating) per-chip state, so a Select
// pass touches only the chips it budgets against.
type Budget struct {
	fab   Fabric
	slots int

	used  []int16
	epoch []uint32
	cur   uint32

	// fits scratch: per-call need counts, epoch-guarded the same way.
	// int32, because one I/O may put all of its up to 65536 requests on
	// one chip.
	need      []int32
	needEpoch []uint32
	needCur   uint32
	needChips []flash.ChipID
}

// Reset rebinds the budget to fab with the given per-chip slot depth and
// forgets all prior reservations.
func (b *Budget) Reset(fab Fabric, slots int) {
	n := fab.Geo().NumChips()
	if len(b.used) < n {
		b.used = make([]int16, n)
		b.epoch = make([]uint32, n)
		b.need = make([]int32, n)
		b.needEpoch = make([]uint32, n)
	}
	b.fab, b.slots = fab, slots
	b.cur++
}

// usedOn returns the reservations taken on chip c this epoch.
func (b *Budget) usedOn(c flash.ChipID) int16 {
	if b.epoch[c] != b.cur {
		return 0
	}
	return b.used[c]
}

// Take reserves one slot on m's chip if capacity remains.
func (b *Budget) Take(m *req.Mem) bool {
	c := m.Addr.Chip
	u := b.usedOn(c)
	if b.fab.Outstanding(c)+int(u) >= b.slots {
		return false
	}
	b.epoch[c] = b.cur
	b.used[c] = u + 1
	return true
}

// Fits reports whether every request in ms can be taken together. When
// they cannot, it also names the first chip they overflow and how many of
// ms target that chip.
func (b *Budget) Fits(ms []*req.Mem) (c flash.ChipID, need int32, ok bool) {
	b.needCur++
	b.needChips = b.needChips[:0]
	for _, m := range ms {
		c := m.Addr.Chip
		if b.needEpoch[c] != b.needCur {
			b.needEpoch[c] = b.needCur
			b.need[c] = 0
			b.needChips = append(b.needChips, c)
		}
		b.need[c]++
	}
	for _, c := range b.needChips {
		if b.over(c, b.need[c]) {
			return c, b.need[c], false
		}
	}
	return 0, 0, true
}

// over reports whether need more requests overflow chip c's capacity.
func (b *Budget) over(c flash.ChipID, need int32) bool {
	return b.fab.Outstanding(c)+int(b.usedOn(c))+int(need) > b.slots
}

// VAS is the virtual address scheduler (§3): strict FIFO over the
// device-level queue. It composes the head I/O's memory requests in order
// and cannot advance to the next I/O until every request of the head has
// been committed — the head-of-line blocking that causes the inter-chip
// idleness of Figure 4. VAS is oblivious to physical addresses: it never
// reorders around busy chips.
type VAS struct {
	// Slots is the per-chip commitment depth. The paper's VAS waits for
	// the previously committed request to complete before committing the
	// next one to the same chip (Figure 4b), i.e. depth 1.
	Slots int

	budget Budget
	out    []*req.Mem
}

// NewVAS returns a VAS with the default commitment depth.
func NewVAS() *VAS { return &VAS{Slots: 1} }

// Name implements Scheduler.
func (v *VAS) Name() string { return "VAS" }

// NeedsReaddressing implements Scheduler: VAS has no readdressing callback.
func (v *VAS) NeedsReaddressing() bool { return false }

// ResetState implements StateResetter: VAS keeps no cross-Select state
// beyond scratch, which is released so the previous run is not pinned.
func (v *VAS) ResetState() { v.out = clearMems(v.out) }

// Select implements Scheduler.
func (v *VAS) Select(now sim.Time, q *nvmhc.Queue, fab Fabric) []*req.Mem {
	// The head VAS works on is the oldest I/O with unselected requests. If
	// any of its requests cannot commit now, VAS stalls.
	io := q.Head()
	for io != nil && io.Queued() == 0 {
		io = q.Next(io)
	}
	if io == nil {
		return nil
	}
	v.budget.Reset(fab, v.Slots)
	out := v.out[:0]
	for _, m := range io.Mem {
		if m.State != req.StateQueued {
			continue
		}
		if v.budget.Take(m) {
			out = append(out, m)
		}
		// Requests that do not fit stay queued; VAS will not look past
		// this I/O regardless (head-of-line blocking).
	}
	v.out = out
	if len(out) == 0 {
		return nil
	}
	return out
}

// PAS is the physical address scheduler of §3, modelled after Ozone and
// PAQ. It sees the physical address of every queued memory request and
// keeps a small extra queue of Slots entries per chip. Its rule, as §3
// states it:
//
//   - Coarse-grain out-of-order, like Ozone and PAQ: PAS walks the
//     device-level queue in arrival order and skips an I/O whose target
//     chips cannot take all of its remaining memory requests, serving
//     later I/Os instead (Figure 5a). It reorders whole I/Os and still
//     "composes memory requests and commits them based on I/O request
//     arrival order", so the parallelism dependency of §3 remains.
//   - I/O-atomic commits: an I/O commits every one of its remaining
//     memory requests in one Select, or none of them.
//   - The head exemption: the oldest I/O with requests still queued
//     commits whatever fits, so an oversized I/O (more requests to one
//     chip than the extra queue holds) still makes progress.
//   - FUA barriers (§4.4): an FUA I/O is never overtaken. The walk stops
//     at an FUA entry unless it is the oldest entry in the queue, and
//     that entry, while it has requests queued, is served alone.
//
// Select still visits every queued I/O, but pays O(1) for one with
// nothing queued (req.IO.Queued) and for one whose last Fits failure
// provably still holds. A non-head I/O that fails Fits leaves a memo: the
// first chip c it overflowed, its need n on c and its queued count k. On a
// later call, if the I/O is still not the head and its queued count is
// still k, PAS checks c alone against the live values, Outstanding(c) +
// used(c) + n > Slots, and skips the I/O if that holds; otherwise it runs
// the full Fits. The memo is exact: a memory request leaves StateQueued
// once and never returns, and a queued request never changes chip
// (readdressing moves it between planes of one chip). So an unchanged
// count means the same queued requests, n of them still on c, and Fits
// would fail on c again. Skipped or not, every I/O still counts toward
// the FUA barrier.
type PAS struct {
	// Slots is the per-chip extra queue depth.
	Slots int

	budget  Budget
	out     []*req.Mem
	pending []*req.Mem
	memo    []pasMemo // indexed by req.IO.QSlot
	skips   int       // I/Os skipped on the memo alone; tests read it
}

// pasMemo records why a non-head I/O last failed Fits: the first chip it
// overflowed, its need on that chip and its queued count at the time. seq
// is the I/O's admission Seq, which tells it from a later I/O in the same
// queue slot. The zero value matches no I/O: queued is 0 only in an empty
// record, and an I/O with nothing queued never reaches the memo.
type pasMemo struct {
	seq    uint64
	chip   flash.ChipID
	queued int32
	need   int32
}

// NewPAS returns a PAS with the default extra-queue depth.
func NewPAS() *PAS { return &PAS{Slots: 4} }

// Name implements Scheduler.
func (p *PAS) Name() string { return "PAS" }

// NeedsReaddressing implements Scheduler: PAS's hardware preprocessor does
// not track live-data migration (§4.3).
func (p *PAS) NeedsReaddressing() bool { return false }

// ResetState implements StateResetter. The memo is cleared too: a reset
// queue reissues Seq numbers from zero, so an old record could otherwise
// match a new I/O.
func (p *PAS) ResetState() {
	p.out = clearMems(p.out)
	p.pending = clearMems(p.pending)
	clear(p.memo)
}

// clearMems nils a scratch slice's entries (dropping references to the
// previous run's requests) and truncates it, keeping capacity.
func clearMems(ms []*req.Mem) []*req.Mem {
	for i := range ms {
		ms[i] = nil
	}
	return ms[:0]
}

// Select implements Scheduler, by the rule in PAS's doc comment.
func (p *PAS) Select(now sim.Time, q *nvmhc.Queue, fab Fabric) []*req.Mem {
	p.budget.Reset(fab, p.Slots)
	out := p.out[:0]
	head := true
	i := 0
	for io := q.Head(); io != nil; io = q.Next(io) {
		if io.FUA && i > 0 {
			break
		}
		i++
		n := io.Queued()
		if n == 0 {
			continue
		}
		if head {
			// Progress guarantee: commit whatever fits of the head.
			for _, m := range io.Mem {
				if m.State == req.StateQueued && p.budget.Take(m) {
					out = append(out, m)
				}
			}
			head = false
		} else {
			out = p.selectWhole(io, n, out)
		}
		if io.FUA {
			break
		}
	}
	p.out = out
	if len(out) == 0 {
		return nil
	}
	return out
}

// selectWhole appends all n queued requests of the non-head io to out if
// they fit together, and records or consults io's memo.
func (p *PAS) selectWhole(io *req.IO, n int, out []*req.Mem) []*req.Mem {
	if int(io.QSlot) >= len(p.memo) {
		p.memo = append(p.memo, make([]pasMemo, int(io.QSlot)+1-len(p.memo))...)
	}
	e := &p.memo[io.QSlot]
	if e.seq == io.Seq && int(e.queued) == n && p.budget.over(e.chip, e.need) {
		p.skips++
		return out
	}
	pending := p.pending[:0]
	for _, m := range io.Mem {
		if m.State == req.StateQueued {
			pending = append(pending, m)
		}
	}
	p.pending = pending
	c, need, ok := p.budget.Fits(pending)
	if !ok {
		*e = pasMemo{seq: io.Seq, chip: c, queued: int32(n), need: need}
		return out
	}
	for _, m := range pending {
		if !p.budget.Take(m) {
			panic("sched: PAS fits/take mismatch")
		}
		out = append(out, m)
	}
	return out
}

// SortChipsByOffset orders chip IDs in the RIOS traversal order (§4.1):
// same chip offset across channels first, then the next offset — so
// commitments stripe across channels before pipelining within one.
func SortChipsByOffset(g flash.Geometry, chips []flash.ChipID) {
	sort.Slice(chips, func(a, b int) bool {
		oa, ob := g.ChipOffset(chips[a]), g.ChipOffset(chips[b])
		if oa != ob {
			return oa < ob
		}
		return g.Channel(chips[a]) < g.Channel(chips[b])
	})
}
