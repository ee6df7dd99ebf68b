// Package sched defines the device-level I/O scheduler interface of the
// NVMHC and the two state-of-the-art baselines the paper compares against
// (§3): the virtual address scheduler (VAS) and the physical address
// scheduler (PAS). The paper's contribution, Sprinkler, lives in
// internal/core and implements the same interface.
package sched

import (
	"fmt"
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
	// ChipBusy reports the chip's R/B state.
	ChipBusy(c flash.ChipID) bool
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
// appends, commitment removes, readdressing moves — so schedulers can
// enumerate each chip's candidates directly instead of rescanning every
// queued I/O's member list on every pump.
//
// Per-chip lists hold requests in admission order (parent I/O admission
// sequence, then member index) — exactly the order a full queue scan would
// discover them, which keeps index-driven scheduling bit-identical to the
// scan it replaces. Removal just nils the slot (O(1), via
// req.Mem.ReadySlot); holes are compacted away during Gather.
type ReadyIndex struct {
	lists [][]*req.Mem
	live  []int32

	// version counts membership/address changes per chip: admission,
	// removal, and readdressing all bump it (housekeeping like hole
	// compaction does not). Schedulers key incremental per-chip state —
	// Sprinkler's memoized FARO grouping — on it: an unchanged version
	// guarantees the chip's candidate set, order and physical addresses
	// are exactly as they were, so cached selection output stays
	// bit-identical to a recomputation.
	version []uint64

	// addVer and readdrVer split version by cause: addVer counts entries
	// entering a chip's list (admission), readdrVer counts physical-address
	// rewrites touching it. A version bump with both unchanged is
	// therefore removal-only — the precondition for Sprinkler's FARO
	// partial invalidation, which advances a memoized order past removed
	// groups instead of regrouping from scratch.
	addVer    []uint64
	readdrVer []uint64
}

// NewReadyIndex returns an empty index over numChips chips.
func NewReadyIndex(numChips int) *ReadyIndex {
	vers := make([]uint64, 3*numChips)
	return &ReadyIndex{
		lists:     make([][]*req.Mem, numChips),
		live:      make([]int32, numChips),
		version:   vers[:numChips:numChips],
		addVer:    vers[numChips : 2*numChips : 2*numChips],
		readdrVer: vers[2*numChips:],
	}
}

// Reset empties the index for a new run, retaining per-chip list storage.
// Slots are nilled so the previous run's requests are not pinned, and
// every chip's version is bumped — not zeroed — so any selection state a
// scheduler memoized against the old contents reads as stale rather than
// accidentally current.
func (x *ReadyIndex) Reset() {
	for c := range x.lists {
		l := x.lists[c]
		for i := range l {
			l[i] = nil
		}
		x.lists[c] = l[:0]
		x.live[c] = 0
		x.version[c]++
		x.addVer[c]++
		x.readdrVer[c]++
	}
}

// Version returns chip c's membership version (see the field comment).
func (x *ReadyIndex) Version(c flash.ChipID) uint64 { return x.version[c] }

// AddVersion returns chip c's entry-insertion counter (see addVer).
func (x *ReadyIndex) AddVersion(c flash.ChipID) uint64 { return x.addVer[c] }

// ReaddrVersion returns chip c's address-rewrite counter (see readdrVer).
func (x *ReadyIndex) ReaddrVersion(c flash.ChipID) uint64 { return x.readdrVer[c] }

// NumChips returns the number of chips the index covers.
func (x *ReadyIndex) NumChips() int { return len(x.lists) }

// Live reports how many queued requests chip c holds.
func (x *ReadyIndex) Live(c flash.ChipID) int { return int(x.live[c]) }

// Add indexes m under its current chip. Admission calls this in queue
// order, so plain appends keep each list sorted by admission order.
func (x *ReadyIndex) Add(m *req.Mem) {
	c := m.Addr.Chip
	m.ReadySlot = int32(len(x.lists[c]))
	x.lists[c] = append(x.lists[c], m)
	x.live[c]++
	x.version[c]++
	x.addVer[c]++
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
	x.version[c]++
	if l := x.lists[c]; len(l) >= 64 && int(x.live[c])*2 < len(l) {
		x.lists[c] = compactList(l)
	}
}

// Readdress re-points m at dst (live-data migration, §4.3). GC migrates
// live pages only between planes of the victim's chip, so membership and
// order are untouched; the address feeds FARO grouping, though, so cached
// selection state must still be invalidated. A dst on another chip is an
// internal invariant violation and panics.
func (x *ReadyIndex) Readdress(m *req.Mem, dst flash.Addr) {
	if m.Addr.Chip != dst.Chip {
		panic(fmt.Sprintf("sched: readdress of %v to another chip %v", m.Addr, dst))
	}
	x.version[dst.Chip]++
	x.readdrVer[dst.Chip]++
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
// scratch capacity may be retained; cached orderings and references to
// the previous run's requests may not).
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
	need      []int16
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
		b.need = make([]int16, n)
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

// Fits reports whether every request in ms can be taken together.
func (b *Budget) Fits(ms []*req.Mem) bool {
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
		if b.fab.Outstanding(c)+int(b.usedOn(c))+int(b.need[c]) > b.slots {
			return false
		}
	}
	return true
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
	// Find the oldest I/O with unselected requests: that is the head VAS
	// is working on. If any of its requests cannot commit now, VAS stalls.
	for io := q.Head(); io != nil; io = q.Next(io) {
		pending := false
		for _, m := range io.Mem {
			if m.State == req.StateQueued {
				pending = true
				break
			}
		}
		if !pending {
			continue
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
	return nil
}

// PAS is the physical address scheduler (§3, modelled after Ozone and
// PAQ): it sees physical addresses, keeps small extra queues per chip, and
// reorders at I/O-request granularity — it skips I/Os whose target chips
// are saturated and serves later I/Os, a coarse-grain out-of-order
// execution. It still composes memory requests within I/O boundaries, so
// parallelism dependency remains (§3, "composes memory requests and
// commits them based on I/O request arrival order").
type PAS struct {
	// Slots is the per-chip extra queue depth.
	Slots int

	budget  Budget
	out     []*req.Mem
	pending []*req.Mem
}

// NewPAS returns a PAS with the default extra-queue depth.
func NewPAS() *PAS { return &PAS{Slots: 4} }

// Name implements Scheduler.
func (p *PAS) Name() string { return "PAS" }

// NeedsReaddressing implements Scheduler: PAS's hardware preprocessor does
// not track live-data migration (§4.3).
func (p *PAS) NeedsReaddressing() bool { return false }

// ResetState implements StateResetter.
func (p *PAS) ResetState() {
	p.out = clearMems(p.out)
	p.pending = clearMems(p.pending)
}

// clearMems nils a scratch slice's entries (dropping references to the
// previous run's requests) and truncates it, keeping capacity.
func clearMems(ms []*req.Mem) []*req.Mem {
	for i := range ms {
		ms[i] = nil
	}
	return ms[:0]
}

// Select implements Scheduler.
//
// PAS reorders at I/O granularity (coarse-grain out-of-order, Figure 5a):
// an I/O commits only when every one of its remaining memory requests fits
// the per-chip extra queues; otherwise the whole I/O is skipped and later
// I/Os are considered. The oldest incomplete I/O is exempt from atomicity
// (it may commit partially) so oversized I/Os — more requests to one chip
// than the extra queue holds — still make progress.
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
		pending := p.pending[:0]
		for _, m := range io.Mem {
			if m.State == req.StateQueued {
				pending = append(pending, m)
			}
		}
		p.pending = pending
		if len(pending) == 0 {
			continue
		}
		if head {
			// Progress guarantee: commit whatever fits of the head.
			for _, m := range pending {
				if p.budget.Take(m) {
					out = append(out, m)
				}
			}
			head = false
		} else if p.budget.Fits(pending) {
			for _, m := range pending {
				if !p.budget.Take(m) {
					panic("sched: PAS fits/take mismatch")
				}
				out = append(out, m)
			}
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
