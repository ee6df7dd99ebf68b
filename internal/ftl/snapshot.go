package ftl

import (
	"fmt"
	"math"
	"sort"
)

// This file implements warm-state capture/restore for the FTL. State
// holds everything that survives a drained run: the logical-to-physical
// map, per-block wear/occupancy metadata, the per-plane free/spare pools
// in their exact LIFO order, the write-stripe cursor, and the FTL's own
// Stats value, copied whole (the sticky degraded-mode counters from
// bad-block retirement included). The validity bitmaps, their per-block
// population counts and the reverse (PPN→LPN) entries of the valid pages
// are deliberately NOT part of the state: the L2P map determines all
// three (CheckInvariants pins the bijection), so RestoreState writes them
// from it — halving the snapshot and removing a whole class of
// internally-inconsistent snapshot inputs. Reverse entries of invalid
// pages are never read, so nothing restores them. The byte layout is
// internal/ssd's DeviceState.code.

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

// PlaneState is the persistent per-plane allocation state. Free and
// Spare preserve LIFO order — the allocator pops from the tail, so the
// order is behaviour, not an implementation detail.
type PlaneState struct {
	Blocks []BlockState
	Free   []int
	Spare  []int
	Active int
}

// State is the complete persistent state of an FTL.
type State struct {
	L2P    []MapPair // sorted by LPN (canonical form)
	Cursor int64
	Planes []PlaneState

	// Stats carries the activity counters; MappedPages is derived from
	// L2P and always zero here.
	Stats
}

// CaptureState snapshots the FTL's persistent state. The returned
// Planes' Blocks/Free/Spare slices are fresh copies; the whole State is
// safe to retain after the FTL keeps running.
func (f *FTL) CaptureState() State {
	st := State{
		Cursor: f.cursor,
		Planes: make([]PlaneState, len(f.planes)),
		Stats:  f.stats,
	}
	st.L2P = make([]MapPair, 0, f.l2p.len())
	f.l2p.forEach(func(k, v int64) bool {
		st.L2P = append(st.L2P, MapPair{LPN: k, PPN: v})
		return true
	})
	// The slice table comes first, in key order; the overflow entries
	// (keys past its ceiling, so past all of its keys) follow from a Go
	// map: sort them so the capture is canonical — identical warm state
	// always captures identically.
	tail := st.L2P[f.l2p.main.len():]
	sort.Slice(tail, func(a, b int) bool { return tail[a].LPN < tail[b].LPN })
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
// and the validity bitmaps, per-block valid counts and the valid pages'
// reverse entries are written from the L2P entries. Every index is
// bounds-checked and the result is verified with CheckInvariants before
// returning, so a corrupted or mismatched snapshot yields an error with
// the FTL in an unspecified-but-memory-safe state (callers discard it on
// error; no partially-hydrated FTL is ever used).
func (f *FTL) RestoreState(st State) error {
	if len(st.Planes) != len(f.planes) {
		return fmt.Errorf("ftl: snapshot has %d planes, geometry needs %d", len(st.Planes), len(f.planes))
	}
	if st.Cursor < 0 {
		return fmt.Errorf("ftl: snapshot write cursor %d is negative", st.Cursor)
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
			if bs.Written == f.geo.PagesPerBlock && !bs.Full {
				return fmt.Errorf("ftl: snapshot plane %d block %d has all %d pages written but is not marked full", i, b, bs.Written)
			}
			if bs.Erases < 0 || bs.Erases > math.MaxInt32 {
				return fmt.Errorf("ftl: snapshot plane %d block %d erase count %d outside [0, %d]", i, b, bs.Erases, math.MaxInt32)
			}
			ps.scrub(b)
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
		pi, b, pg := f.pageAt(e.PPN)
		ps := f.planes[pi]
		valid := ps.valid(b)
		if valid.Get(pg) {
			return fmt.Errorf("ftl: snapshot maps ppn %d twice", e.PPN)
		}
		valid.Set(pg)
		ps.blocks[b].validCount++
		f.l2p.set(e.LPN, e.PPN)
		f.p2l.set(e.PPN, e.LPN)
	}
	f.cursor = st.Cursor
	f.stripePos = int(st.Cursor % int64(len(f.stripe)))
	f.stats = st.Stats
	f.stats.MappedPages = 0
	if err := f.CheckInvariants(); err != nil {
		return fmt.Errorf("ftl: snapshot fails invariants: %w", err)
	}
	return nil
}

// CopyFrom makes f a copy of src, a restored FTL built on the same
// Config: the block records, validity bitmaps and free/spare pools, the
// mapping tables' touched chunks (the L2P overflow map included), the
// stripe cursor and the counters. It checks nothing about the state, so
// one image that passed RestoreState's checks hydrates many FTLs at the
// cost of a memory copy each. src is only read, so goroutines may copy
// one image at once. Like RestoreState, it marks f restored: the next
// Reset scrubs every block.
func (f *FTL) CopyFrom(src *FTL) error {
	if f.cfg != src.cfg {
		return fmt.Errorf("ftl: CopyFrom config mismatch (have %+v, image %+v)", f.cfg, src.cfg)
	}
	f.restored = true
	for i, ps := range f.planes {
		in := src.planes[i]
		copy(ps.blocks, in.blocks)
		copy(ps.bits, in.bits)
		ps.free = append(ps.free[:0], in.free...)
		ps.spare = append(ps.spare[:0], in.spare...)
		ps.active = in.active
	}
	f.l2p.copyFrom(src.l2p)
	f.p2l.copyFrom(&src.p2l.chunkStore)
	f.cursor, f.stripePos = src.cursor, src.stripePos
	f.stats = src.stats
	return nil
}
