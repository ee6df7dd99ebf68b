// Package core implements the paper's contribution: Sprinkler, a
// device-level I/O scheduler that maximizes many-chip SSD resource
// utilization (§4).
//
// Sprinkler combines two mechanisms:
//
//   - RIOS (resource-driven I/O scheduling, §4.1): memory requests are
//     composed and committed per physical flash chip — traversing chips in
//     channel-offset order — instead of per host I/O request, which relaxes
//     the parallelism dependency on I/O sizes, offsets and arrival order.
//
//   - FARO (flash-level-parallelism aware request over-commitment, §4.2):
//     many memory requests are committed to each chip ahead of need,
//     prioritized by overlap depth (how many can fuse into one high-FLP
//     transaction) and connectivity (how many belong to the same I/O), so
//     the flash controller can coalesce them into single die-interleaved,
//     plane-shared transactions.
//
// The three evaluated variants are constructed with NewSPK1 (FARO only),
// NewSPK2 (RIOS only) and NewSPK3 (both).
//
// Selection is driven by the device's incremental per-chip ready index
// (sched.ReadyIndex): instead of rescanning every queued I/O's member list
// on each pump, Sprinkler walks only the chips that hold candidates. The
// index keeps a bitset of chips with queued requests in RIOS traversal
// order, and Select iterates ReadyIndex.LiveChips, so a chip with nothing
// queued costs nothing. Per chip, FARO orders groups only until the chip's
// free slots are filled. The index keeps requests in admission order, so
// the result is identical to the full-queue scan it replaces; the scan
// survives as a fallback for fabrics without an index and for queues under
// a §4.4 FUA barrier, and as the tests' full-order reference.
package core

import (
	"sprinkler/internal/flash"
	"sprinkler/internal/nvmhc"
	"sprinkler/internal/req"
	"sprinkler/internal/sched"
	"sprinkler/internal/sim"
)

// Sprinkler implements sched.Scheduler. The zero value is not useful; use
// one of the constructors.
type Sprinkler struct {
	// UseRIOS composes and commits per chip across the whole queue, in the
	// channel-offset traversal order. When false, composition stays within
	// the Window oldest I/Os, in arrival order (parallelism dependency).
	UseRIOS bool
	// UseFARO over-commits up to Slots requests per chip, ordered by
	// overlap depth then connectivity. When false, requests commit in
	// arrival order.
	UseFARO bool
	// Window bounds how many queue entries a non-RIOS Sprinkler may
	// compose from (SPK1's remaining parallelism dependency). Ignored when
	// UseRIOS is set.
	Window int
	// Slots is the per-chip commitment budget: the over-commitment depth
	// with FARO, or a small pipeline depth without it.
	Slots int
	// GroupCap bounds how many per-chip candidates the FARO grouping
	// examines per Select call; it only limits scheduler work per
	// invocation, not eventual service.
	GroupCap int

	variant string

	// Reusable selection state: Select performs no steady-state heap
	// allocations. All buffers are valid only within one Select call
	// (out until the next call, per the Scheduler contract).
	out       []*req.Mem
	chipBuf   []*req.Mem
	remaining []*req.Mem
	ordered   []*req.Mem
	groupCur  []*req.Mem
	groupBest []*req.Mem
	occ       flash.Occupancy // buildGroup's coalescing scratch
	chips     []flash.ChipID  // live chips, in RIOS traversal order
	chipKeys  []chipKey       // non-RIOS chip ordering scratch
}

// chipKey orders chips by their earliest candidate's admission position.
type chipKey struct {
	chip flash.ChipID
	seq  uint64
	idx  int32
}

// NewSPK1 returns Sprinkler using only FARO (§5.1). Composition remains
// I/O-arrival-driven within a small window, so it cannot always secure
// enough requests — the weakness §5.2 observes for SPK1 on small-request
// workloads.
func NewSPK1() *Sprinkler {
	return &Sprinkler{UseFARO: true, Window: 8, Slots: 16, GroupCap: 48, variant: "SPK1"}
}

// NewSPK2 returns Sprinkler using only RIOS: full-queue, per-chip,
// fine-grain out-of-order composition with a shallow per-chip pipeline and
// no FLP-aware prioritization.
func NewSPK2() *Sprinkler {
	return &Sprinkler{UseRIOS: true, Slots: 2, GroupCap: 48, variant: "SPK2"}
}

// NewSPK3 returns the full Sprinkler: RIOS traversal plus FARO
// over-commitment.
func NewSPK3() *Sprinkler {
	return &Sprinkler{UseRIOS: true, UseFARO: true, Slots: 16, GroupCap: 48, variant: "SPK3"}
}

// Name implements sched.Scheduler.
func (s *Sprinkler) Name() string {
	if s.variant != "" {
		return s.variant
	}
	return "SPK"
}

// NeedsReaddressing implements sched.Scheduler: Sprinkler exploits the
// internal resource layout, so it subscribes to the readdressing callback
// (§4.3) and always sees post-migration physical addresses.
func (s *Sprinkler) NeedsReaddressing() bool { return true }

// ResetState implements sched.StateResetter: every scratch buffer is
// emptied so a reused scheduler does not pin the previous run's request
// objects. Grown buffer capacities survive, so reuse stays
// allocation-free; buffer capacity never influences selection.
func (s *Sprinkler) ResetState() {
	clear := func(ms []*req.Mem) []*req.Mem {
		for i := range ms {
			ms[i] = nil
		}
		return ms[:0]
	}
	s.out = clear(s.out)
	s.chipBuf = clear(s.chipBuf)
	s.remaining = clear(s.remaining)
	s.ordered = clear(s.ordered)
	s.groupCur = clear(s.groupCur)
	s.groupBest = clear(s.groupBest)
}

// Select implements sched.Scheduler.
func (s *Sprinkler) Select(now sim.Time, q *nvmhc.Queue, fab sched.Fabric) []*req.Mem {
	rx := fab.Ready()
	if rx == nil || q.HasFUA() {
		// No index (test fabrics), or an FUA barrier is in effect: scan
		// the queue, which enforces the §4.4 ordering rules.
		return s.selectScan(now, q, fab)
	}
	g := fab.Geo()

	// Non-RIOS composition is bounded to the Window oldest queue entries:
	// cap candidates by the admission sequence of the window's last entry.
	maxSeq := ^uint64(0)
	if !s.UseRIOS && s.Window > 0 {
		seq, ok := q.SeqAt(s.Window - 1)
		if !ok {
			return nil
		}
		maxSeq = seq
	}

	// Only chips with queued requests can contribute; the index lists
	// them in the RIOS traversal order, equal chip offsets across channels
	// first (§4.1).
	s.chips = rx.LiveChips(s.chips[:0])
	out := s.out[:0]
	if s.UseRIOS {
		for _, c := range s.chips {
			out = s.selectChip(g, fab, rx, c, maxSeq, out)
		}
	} else {
		// Without RIOS the chip order follows first-candidate arrival,
		// i.e. ascending earliest (admission seq, member index).
		keys := s.chipKeys[:0]
		for _, c := range s.chips {
			m := rx.First(c)
			if m.IO.Seq > maxSeq {
				continue
			}
			keys = append(keys, chipKey{chip: c, seq: m.IO.Seq, idx: int32(m.Index)})
		}
		// Insertion sort: key (seq, idx) is unique per chip, the chip
		// count is small, and this stays allocation-free.
		for i := 1; i < len(keys); i++ {
			k := keys[i]
			j := i - 1
			for j >= 0 && (keys[j].seq > k.seq || (keys[j].seq == k.seq && keys[j].idx > k.idx)) {
				keys[j+1] = keys[j]
				j--
			}
			keys[j+1] = k
		}
		s.chipKeys = keys
		for _, k := range keys {
			out = s.selectChip(g, fab, rx, k.chip, maxSeq, out)
		}
	}
	s.out = out
	if len(out) == 0 {
		return nil
	}
	return out
}

// selectChip commits chip c's candidates up to the free budget, in FARO
// priority order when enabled. FARO orders groups only until the free
// slots are filled (see faroOrder), which yields the same prefix as a full
// order. The order is rebuilt on every call: Select runs only after an
// admission, commit or readdress, so an order kept from the previous call
// would almost never still be current. c must hold a queued request.
func (s *Sprinkler) selectChip(g flash.Geometry, fab sched.Fabric, rx *sched.ReadyIndex, c flash.ChipID, maxSeq uint64, out []*req.Mem) []*req.Mem {
	free := s.Slots - fab.Outstanding(c)
	if free <= 0 {
		return out
	}
	s.chipBuf = rx.Gather(c, s.chipBuf[:0], s.GroupCap, maxSeq)
	list := s.chipBuf
	if s.UseFARO {
		list = s.faroOrder(g, list, free)
	}
	if len(list) == 0 {
		return out
	}
	if len(list) > free {
		list = list[:free]
	}
	return append(out, list...)
}

// selectScan is the pre-index selection path: gather candidates by
// scanning the queue (honouring FUA barriers), then group per chip. It
// orders every candidate before cutting to the free slots, so the parity
// tests use it as the full-order reference for Select.
func (s *Sprinkler) selectScan(now sim.Time, q *nvmhc.Queue, fab sched.Fabric) []*req.Mem {
	window := 0
	if !s.UseRIOS {
		window = s.Window
	}
	cands := sched.CandidateWindow(q, window)
	if len(cands) == 0 {
		return nil
	}
	g := fab.Geo()

	// Categorize per physical chip (Algorithm 1: phy_layout[chip].insert).
	byChip := make(map[flash.ChipID][]*req.Mem)
	var chips []flash.ChipID
	for _, m := range cands {
		c := m.Addr.Chip
		if _, seen := byChip[c]; !seen {
			chips = append(chips, c)
		}
		byChip[c] = append(byChip[c], m)
	}

	// Traversal order: RIOS visits equal chip offsets across channels
	// first (§4.1); without RIOS the chip order follows first-candidate
	// arrival, i.e. the I/O order already present in `chips`.
	if s.UseRIOS {
		sched.SortChipsByOffset(g, chips)
	}

	var out []*req.Mem
	for _, c := range chips {
		free := s.Slots - fab.Outstanding(c)
		if free <= 0 {
			continue
		}
		list := byChip[c]
		if len(list) > s.GroupCap {
			list = list[:s.GroupCap]
		}
		if s.UseFARO {
			list = s.faroOrder(g, list, len(list))
		}
		if len(list) > free {
			list = list[:free]
		}
		out = append(out, list...)
	}
	return out
}

// faroOrder orders one chip's candidates by FARO priority: requests are
// grouped into maximal legal transactions; groups with the highest overlap
// depth go first, ties broken by connectivity (§4.2), then by arrival
// order for determinism. Within the final order, a §4.4 write-after-read
// hazard (read and write to the same logical page) keeps the read first.
//
// Ordering stops once at least need requests are ordered, so the result
// may be shorter than cands. That is exact: the greedy groups form a
// stable prefix, since each group depends only on what the groups before
// it left. enforceReadFirst is the one step that looks past the prefix, so
// when some write among cands has an older read of the same logical page,
// every candidate is ordered as if need were len(cands).
// The returned slice is scheduler-owned scratch, valid until the next call.
func (s *Sprinkler) faroOrder(g flash.Geometry, cands []*req.Mem, need int) []*req.Mem {
	hazard := hasReadBeforeWrite(cands)
	if hazard {
		need = len(cands)
	}
	remaining := append(s.remaining[:0], cands...)
	out := s.ordered[:0]
	for len(remaining) > 0 && len(out) < need {
		s.bestGroup(g, remaining)
		out = append(out, s.groupBest...)
		// Remove the chosen members, preserving order.
		keep := remaining[:0]
		for _, m := range remaining {
			inGroup := false
			for _, b := range s.groupBest {
				if b == m {
					inGroup = true
					break
				}
			}
			if !inGroup {
				keep = append(keep, m)
			}
		}
		remaining = keep
	}
	s.remaining = remaining[:0]
	s.ordered = out
	if hazard {
		enforceReadFirst(out)
	}
	return out
}

// hasReadBeforeWrite reports whether some write in ms has a read of the
// same LPN issued by an older I/O: the only case in which enforceReadFirst
// moves a request.
func hasReadBeforeWrite(ms []*req.Mem) bool {
	for _, w := range ms {
		if w.IO.Kind != req.Write {
			continue
		}
		for _, r := range ms {
			if r.IO.Kind == req.Read && r.LPN == w.LPN && r.IO.ID < w.IO.ID {
				return true
			}
		}
	}
	return false
}

// bestGroup greedily builds a group seeded at every candidate and leaves
// the best by (depth, connectivity, earliest seed) in s.groupBest.
func (s *Sprinkler) bestGroup(g flash.Geometry, remaining []*req.Mem) {
	s.groupBest = s.groupBest[:0]
	bestDepth, bestConn := 0, 0
	for seed := range remaining {
		depth, conn := s.buildGroup(g, remaining, seed)
		if depth > bestDepth || (depth == bestDepth && conn > bestConn) {
			bestDepth, bestConn = depth, conn
			s.groupBest, s.groupCur = s.groupCur, s.groupBest
		}
		if bestDepth >= g.MaxFLP() {
			break // cannot do better
		}
	}
}

// buildGroup coalesces remaining[seed] with every later-compatible
// candidate into s.groupCur, mirroring what the flash controller's
// transaction builder will do with the committed queue: same operation,
// the §2.2 per-die rule flash.Occupancy holds, at most MaxFLP members.
// Each candidate costs O(1). It returns the group's overlap depth and
// connectivity.
func (s *Sprinkler) buildGroup(g flash.Geometry, remaining []*req.Mem, seed int) (depth, conn int) {
	s.occ.Reset(g.DiesPerChip)
	occ := s.occ
	cur := s.groupCur[:0]
	sm := remaining[seed]
	op := sm.IO.Kind
	occ.Claim(&sm.Addr)
	cur = append(cur, sm)
	maxFLP := g.MaxFLP()
	for i, m := range remaining {
		if i == seed {
			continue
		}
		if len(cur) >= maxFLP {
			break
		}
		if m.IO.Kind != op {
			continue // tested apart from Claim: joined by ||, the loop compiles slower
		}
		if !occ.Claim(&m.Addr) {
			continue
		}
		cur = append(cur, m)
	}
	s.groupCur = cur
	// Connectivity: the largest member count sharing one parent I/O. The
	// group is at most MaxFLP wide, so the quadratic scan is trivial.
	for i, m := range cur {
		n := 1
		for j := 0; j < i; j++ {
			if cur[j].IO == m.IO {
				n++
			}
		}
		if n > conn {
			conn = n
		}
	}
	return len(cur), conn
}

// enforceReadFirst stable-reorders so that a read of an LPN issued by an
// older I/O precedes any newer write of the same LPN (§4.4 hazard control:
// serve the read memory requests first in the write-after-read case). The
// pass is quadratic but bounded by GroupCap.
func enforceReadFirst(ms []*req.Mem) {
	for i := 0; i < len(ms); i++ {
		w := ms[i]
		if w.IO.Kind != req.Write {
			continue
		}
		for j := i + 1; j < len(ms); j++ {
			r := ms[j]
			if r.IO.Kind != req.Read || r.LPN != w.LPN || r.IO.ID >= w.IO.ID {
				continue
			}
			// The older read is ordered after the newer write: rotate the
			// read to sit just before the write, shifting the rest right.
			copy(ms[i+1:j+1], ms[i:j])
			ms[i] = r
			break
		}
	}
}
