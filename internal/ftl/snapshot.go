package ftl

import (
	"fmt"
	"math"
	"sort"

	"sprinkler/internal/flash"
)

// This file implements warm-state capture/restore for the FTL: the
// serializable State mirrors everything that survives a drained run —
// the logical-to-physical map, per-block wear/occupancy metadata, the
// per-plane free/spare pools in their exact LIFO order, the write-stripe
// cursor, and every activity counter (including the sticky degraded-mode
// ones from bad-block retirement). The validity bitmaps, their per-block
// population counts and the reverse (PPN→LPN) table are deliberately NOT
// part of the state: the L2P map determines all three (CheckInvariants
// pins the bijection), so RestoreState rebuilds them — halving the
// snapshot and removing a whole class of internally-inconsistent snapshot
// inputs.

// MapPair is one L2P entry.
type MapPair struct {
	LPN int64
	PPN int64
}

// BlockState is the persistent per-block metadata.
type BlockState struct {
	Written int
	Erases  int
	Full    bool
	Bad     bool
}

// PlaneState2 is the persistent per-plane allocation state. Free and
// Spare preserve LIFO order — the allocator pops from the tail, so the
// order is behaviour, not an implementation detail.
type PlaneState2 struct {
	Blocks []BlockState
	Free   []int
	Spare  []int
	Active int
}

// State is the complete persistent state of an FTL.
type State struct {
	L2P    []MapPair // sorted by LPN (canonical form)
	Cursor int64
	Planes []PlaneState2

	HostWrites    int64
	GCWrites      int64
	GCReads       int64
	GCErases      int64
	GCRuns        int64
	Invalidated   int64
	RetiredBlocks int64
	SparesUsed    int64
	Degraded      bool
}

// CaptureState snapshots the FTL's persistent state. The returned
// Planes' Blocks/Free/Spare slices are fresh copies; the whole State is
// safe to retain after the FTL keeps running.
func (f *FTL) CaptureState() State {
	st := State{
		Cursor:        f.cursor,
		Planes:        make([]PlaneState2, len(f.planes)),
		HostWrites:    f.hostWrites,
		GCWrites:      f.gcWrites,
		GCReads:       f.gcReads,
		GCErases:      f.gcErases,
		GCRuns:        f.gcRuns,
		Invalidated:   f.invalidated,
		RetiredBlocks: f.retiredBlocks,
		SparesUsed:    f.sparesUsed,
		Degraded:      f.degraded,
	}
	st.L2P = make([]MapPair, 0, f.l2p.len())
	f.l2p.forEach(func(k, v int64) bool {
		st.L2P = append(st.L2P, MapPair{LPN: k, PPN: v})
		return true
	})
	// The slice tables iterate in key order but overflow entries (keys
	// far past the sizing hint) come from a Go map: sort so the capture
	// is canonical — identical warm state always captures identically.
	sort.Slice(st.L2P, func(a, b int) bool { return st.L2P[a].LPN < st.L2P[b].LPN })
	for i, ps := range f.planes {
		out := &st.Planes[i]
		out.Blocks = make([]BlockState, len(ps.blocks))
		for b := range ps.blocks {
			blk := &ps.blocks[b]
			out.Blocks[b] = BlockState{Written: int(blk.written), Erases: int(blk.erases), Full: blk.full, Bad: blk.bad}
		}
		out.Free = append([]int(nil), ps.free...)
		out.Spare = append([]int(nil), ps.spare...)
		out.Active = ps.active
	}
	return st
}

// RestoreState rehydrates a freshly built (or Reset) FTL from a captured
// State: per-plane metadata and pool order are written back verbatim,
// and the validity bitmaps, per-block valid counts and the reverse table
// are rebuilt from the L2P entries. Every index is bounds-checked and
// the result is verified with CheckInvariants before returning, so a
// corrupted or mismatched snapshot yields an error with the FTL in an
// unspecified-but-memory-safe state (callers discard it on error; no
// partially-hydrated FTL is ever used).
func (f *FTL) RestoreState(st State) error {
	if len(st.Planes) != len(f.planes) {
		return fmt.Errorf("ftl: snapshot has %d planes, geometry needs %d", len(st.Planes), len(f.planes))
	}
	// Restored blocks bypass allocate's dirty tracking: the next Reset
	// must scrub every block.
	f.restored = true
	f.l2p.reset()
	f.p2l.reset()
	for i, ps := range f.planes {
		in := &st.Planes[i]
		if len(in.Blocks) != len(ps.blocks) {
			return fmt.Errorf("ftl: snapshot plane %d has %d blocks, geometry needs %d", i, len(in.Blocks), len(ps.blocks))
		}
		for b := range ps.blocks {
			blk := &ps.blocks[b]
			bs := &in.Blocks[b]
			if bs.Written < 0 || bs.Written > f.geo.PagesPerBlock {
				return fmt.Errorf("ftl: snapshot plane %d block %d written %d outside [0, %d]", i, b, bs.Written, f.geo.PagesPerBlock)
			}
			if bs.Erases < 0 || bs.Erases > math.MaxInt32 {
				return fmt.Errorf("ftl: snapshot plane %d block %d erase count %d outside [0, %d]", i, b, bs.Erases, math.MaxInt32)
			}
			blk.scrub()
			blk.written = int32(bs.Written)
			blk.erases = int32(bs.Erases)
			blk.full = bs.Full
			blk.bad = bs.Bad
		}
		if in.Active < -1 || in.Active >= len(ps.blocks) {
			return fmt.Errorf("ftl: snapshot plane %d active block %d out of range", i, in.Active)
		}
		ps.active = in.Active
		if len(in.Free)+len(in.Spare) > cap(ps.free) {
			return fmt.Errorf("ftl: snapshot plane %d pools hold %d blocks, plane has %d",
				i, len(in.Free)+len(in.Spare), cap(ps.free))
		}
		ps.free = ps.free[:0]
		for _, b := range in.Free {
			if b < 0 || b >= len(ps.blocks) {
				return fmt.Errorf("ftl: snapshot plane %d free-list block %d out of range", i, b)
			}
			ps.free = append(ps.free, b)
		}
		ps.spare = ps.spare[:0]
		for _, b := range in.Spare {
			if b < 0 || b >= len(ps.blocks) {
				return fmt.Errorf("ftl: snapshot plane %d spare-pool block %d out of range", i, b)
			}
			ps.spare = append(ps.spare, b)
		}
	}
	total := f.geo.TotalPages()
	for _, e := range st.L2P {
		if e.LPN < 0 || e.PPN < 0 || e.PPN >= total {
			return fmt.Errorf("ftl: snapshot mapping lpn %d -> ppn %d out of range", e.LPN, e.PPN)
		}
		a := f.geo.FromPPN(flash.PPN(e.PPN))
		ps := f.planes[f.planeIndex(a.Chip, a.Die, a.Plane)]
		blk := &ps.blocks[a.Block]
		if blk.valid.Get(a.Page) {
			return fmt.Errorf("ftl: snapshot maps ppn %d twice", e.PPN)
		}
		blk.valid.Set(a.Page)
		blk.validCount++
		f.l2p.set(e.LPN, e.PPN)
		f.p2l.set(e.PPN, e.LPN)
	}
	f.cursor = st.Cursor
	f.hostWrites = st.HostWrites
	f.gcWrites = st.GCWrites
	f.gcReads = st.GCReads
	f.gcErases = st.GCErases
	f.gcRuns = st.GCRuns
	f.invalidated = st.Invalidated
	f.retiredBlocks = st.RetiredBlocks
	f.sparesUsed = st.SparesUsed
	f.degraded = st.Degraded
	if err := f.CheckInvariants(); err != nil {
		return fmt.Errorf("ftl: snapshot fails invariants: %w", err)
	}
	return nil
}
