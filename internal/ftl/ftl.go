// Package ftl implements the flash translation layer running on the SSD's
// embedded core (§2.1): a pure page-level address map (§5.1), a striped
// dynamic page allocator that spreads consecutive logical pages across
// channels, chips, dies and planes, and a greedy garbage collector whose
// live-data migrations drive the §4.3 readdressing callback.
package ftl

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"sprinkler/internal/flash"
	"sprinkler/internal/req"
)

// Allocation selects the dynamic page-allocation (striping) scheme, i.e.
// which resource dimension consecutive writes advance through first. The
// paper's references [16, 36, 13] show these schemes fix the physical
// layout — and hence the parallelism an I/O can reach — at design time;
// the scheme is a knob here so that interaction can be studied.
type Allocation int

const (
	// AllocChannelFirst stripes consecutive pages across channels, then
	// chips within a channel, then planes, then dies — maximizing channel
	// striping for sequential data (the paper's baseline and our default).
	AllocChannelFirst Allocation = iota
	// AllocWayFirst fills the chips of one channel (the "ways") before
	// moving to the next channel: good channel pipelining, poor striping.
	AllocWayFirst
	// AllocPlaneFirst exhausts a chip's planes and dies before moving to
	// the next chip: maximal flash-level locality, minimal system-level
	// parallelism for sequential data.
	AllocPlaneFirst
)

// String names the scheme.
func (a Allocation) String() string {
	switch a {
	case AllocChannelFirst:
		return "channel-first"
	case AllocWayFirst:
		return "way-first"
	case AllocPlaneFirst:
		return "plane-first"
	default:
		return fmt.Sprintf("alloc(%d)", int(a))
	}
}

// Config parameterizes the FTL.
type Config struct {
	Geo flash.Geometry

	// GCFreeTarget triggers garbage collection on a plane when its free
	// (erased) block count drops to this value or below.
	GCFreeTarget int

	// LogicalPages hints the size of the logical address space, sizing
	// the L2P mapping table's key ceiling (the table itself allocates
	// only touched chunks). Zero falls back to the physical page count.
	// The hint is not a bound — LPNs beyond it still map correctly.
	LogicalPages int64

	// MigrateCrossPlane lets the GC allocate migration destinations on a
	// sibling plane (the one with the most free space) instead of the
	// victim's plane. Cross-resource migration is what makes the
	// readdressing callback matter (§4.3).
	MigrateCrossPlane bool

	// Allocation picks the write striping scheme.
	Allocation Allocation

	// SpareBlockFrac reserves this fraction of every plane's blocks as a
	// spare pool for bad-block replacement: a block retired by a
	// (chip-level) erase failure is remapped to a spare, keeping the
	// usable capacity constant until the pool exhausts — at which point
	// the FTL reports Degraded and the device should stop admitting
	// writes. Must be in [0, 1) and leave enough usable blocks for the GC
	// free target; zero reserves nothing (today's behaviour).
	SpareBlockFrac float64
}

// DefaultConfig returns the configuration used by the evaluation: GC kicks
// in at 4 free blocks per plane and may migrate across planes.
func DefaultConfig(g flash.Geometry) Config {
	return Config{Geo: g, GCFreeTarget: 4, MigrateCrossPlane: true}
}

// blockMeta tracks one erase block. The counters are int32 and the flags
// grouped so the record packs into 16 bytes and holds no pointer: a
// default-geometry device carries a million of them, and the garbage
// collector need not scan them. The block's live-page bitmap lives in its
// plane's slab (planeState.valid).
type blockMeta struct {
	validCount int32
	written    int32 // next free page index (write pointer when active)
	erases     int32 // wear counter
	full       bool  // no more free pages
	bad        bool  // retired (erase failure)
	dirty      bool  // left the erased state since the last Reset (listed in FTL.dirtyBlocks)
}

// planeLoc locates a plane: its chip, die and plane within the die.
type planeLoc struct {
	chip       flash.ChipID
	die, plane int
}

// planeState is the per-plane allocation state.
type planeState struct {
	blocks []blockMeta
	bits   []uint64 // live-page bitmaps, words per block, block-major
	words  int
	free   []int // erased block indices (LIFO)
	spare  []int // reserved bad-block replacement blocks (LIFO)
	active int   // current write block, -1 if none
	dirty  bool  // holds a dirty block (listed in FTL.dirtyPlanes)
	// freeLow is the shortest the free list has been since it was last
	// laid out. The list only pops and pushes at its tail, so free[:freeLow]
	// still holds the canonical layout.
	freeLow int
}

// layoutPools puts the plane's pools in the canonical order of a fresh
// FTL: the top nSpare block indices form the spare pool; the remainder
// build the free list in descending order so blocks are consumed
// 0,1,2,... (with nSpare == 0 this is exactly the historic layout). The
// first keep free-list entries must already be canonical; only the tail
// past them is rewritten.
func (ps *planeState) layoutPools(nSpare, keep int) {
	n := len(ps.blocks)
	ps.spare = ps.spare[:0]
	for b := n - nSpare; b < n; b++ {
		ps.spare = append(ps.spare, b)
	}
	ps.free = ps.free[:keep]
	for b := n - nSpare - 1 - keep; b >= 0; b-- {
		ps.free = append(ps.free, b)
	}
	ps.freeLow = len(ps.free)
	ps.active = -1
	ps.dirty = false
}

// valid returns block b's live-page bitmap.
func (ps *planeState) valid(b int) req.Bitmap {
	lo, hi := b*ps.words, (b+1)*ps.words
	return req.Bitmap(ps.bits[lo:hi:hi])
}

// scrub returns block b to the factory (erased, unworn) state.
func (ps *planeState) scrub(b int) {
	clear(ps.valid(b))
	ps.blocks[b] = blockMeta{}
}

// FTL is the translation layer. It is not safe for concurrent use; the
// simulator is single-threaded by design.
type FTL struct {
	cfg     Config
	geo     flash.Geometry
	l2p     *boundedTable // LPN -> PPN
	l2pSpan int64         // sizing hint l2p was built for (Reset reuse check)
	p2l     oobMap        // PPN -> LPN, read only where the page is valid
	planes  []*planeState
	// locs records where each plane sits, so the allocator, GC planning
	// and Lookup never divide a plane index apart. It is kept out of
	// planeState, which fills two cache lines exactly.
	locs []planeLoc

	// cursor counts the host write allocations made; it is the write
	// stripe's position. stripe lists the plane each write of one stripe
	// period takes (buildStripe), and stripePos is cursor mod the period,
	// so stripeTarget is one table read.
	cursor    int64
	stripe    []int
	stripePos int

	// Recycle bookkeeping. allocate is the only way a block leaves the
	// erased state (GC erase, retirement and spare promotion act only on
	// blocks that were once active), so it lists each block, and its plane,
	// the first time it does; Reset then scrubs just those. RestoreState
	// rewrites blocks allocate never saw, and a different spare count moves
	// every plane's pool boundary: either forces Reset's full pass.
	dirtyBlocks []int // plane*BlocksPerPlane + block
	dirtyPlanes []int
	nSpare      int  // per-plane spare-pool size the pools are laid out for
	restored    bool // RestoreState ran since the last New/Reset

	// stats holds the activity counters; MappedPages stays zero here
	// (Stats derives it from the map).
	stats Stats
}

// New builds an FTL with every block erased and the logical space unmapped.
func New(cfg Config) (*FTL, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nSpare := spareBlocks(cfg)
	g := cfg.Geo
	nPlanes := g.NumChips() * g.DiesPerChip * g.PlanesPerDie
	logical := cfg.LogicalPages
	if logical <= 0 {
		logical = g.TotalPages()
	}
	f := &FTL{
		cfg:     cfg,
		geo:     g,
		l2p:     newTable(logical),
		l2pSpan: logical,
		p2l:     oobMap{newChunkStore(g.TotalPages())},
		planes:  make([]*planeState, nPlanes),
		locs:    make([]planeLoc, 0, nPlanes),
		nSpare:  nSpare,
		// Capacity hint: striped writes open a block in every plane
		// before any plane fills its first.
		dirtyBlocks: make([]int, 0, nPlanes),
		dirtyPlanes: make([]int, 0, nPlanes),
	}
	// All validity bitmaps, plane structs, block metadata and free-list
	// storage come from five bulk allocations: building a device is a
	// per-cell cost in concurrent sweeps, so construction avoids per-block
	// allocations.
	words := (g.PagesPerBlock + 63) / 64
	planePool := make([]planeState, nPlanes)
	blockPool := make([]blockMeta, nPlanes*g.BlocksPerPlane)
	bitmapPool := make([]uint64, nPlanes*g.BlocksPerPlane*words)
	freePool := make([]int, nPlanes*g.BlocksPerPlane)
	sparePool := make([]int, nPlanes*g.BlocksPerPlane)
	for i := range f.planes {
		lo, hi := i*g.BlocksPerPlane, (i+1)*g.BlocksPerPlane
		ps := &planePool[i]
		ps.blocks = blockPool[lo:hi:hi]
		ps.bits = bitmapPool[lo*words : hi*words : hi*words]
		ps.words = words
		ps.spare = sparePool[lo:lo:hi]
		ps.free = freePool[lo:lo:hi]
		ps.layoutPools(nSpare, 0)
		f.planes[i] = ps
	}
	for chip := range g.NumChips() {
		for die := range g.DiesPerChip {
			for plane := range g.PlanesPerDie {
				f.locs = append(f.locs, planeLoc{flash.ChipID(chip), die, plane})
			}
		}
	}
	f.buildStripe()
	return f, nil
}

// Validate checks the geometry, the GC free target and the spare pool:
// the pool must leave every plane more usable blocks than the garbage
// collector's GCFreeTarget+1.
func (cfg Config) Validate() error {
	if err := cfg.Geo.Validate(); err != nil {
		return err
	}
	if cfg.GCFreeTarget < 1 {
		return fmt.Errorf("ftl: GCFreeTarget %d < 1", cfg.GCFreeTarget)
	}
	if cfg.SpareBlockFrac < 0 || cfg.SpareBlockFrac >= 1 {
		return fmt.Errorf("ftl: SpareBlockFrac %g outside [0, 1)", cfg.SpareBlockFrac)
	}
	if n := spareBlocks(cfg); n > 0 && cfg.Geo.BlocksPerPlane-n <= cfg.GCFreeTarget+1 {
		return fmt.Errorf("ftl: SpareBlockFrac %g leaves %d usable blocks per plane, need more than GCFreeTarget+1 = %d",
			cfg.SpareBlockFrac, cfg.Geo.BlocksPerPlane-n, cfg.GCFreeTarget+1)
	}
	return nil
}

// spareBlocks returns the per-plane spare-pool size for cfg.
func spareBlocks(cfg Config) int {
	return int(cfg.SpareBlockFrac * float64(cfg.Geo.BlocksPerPlane))
}

// Reset re-initializes the FTL in place for a new run on the same
// geometry: mappings are dropped, every block is returned to the erased
// state and wear and activity counters restart — all without touching the
// bulk block/bitmap arenas New allocated, which is what makes device reuse
// cheap. Per-run knobs (GC threshold, allocation scheme, logical-space
// hint, spare pool) may change; the geometry may not.
//
// The cost is O(what the last run touched): only blocks allocated since
// the previous reset are scrubbed, only the free-list tails their planes
// popped are laid out again, and the mapping tables recycle just the
// chunks the run used. A RestoreState since the last reset, or a change
// of spare-pool size, falls back to a pass over every block.
func (f *FTL) Reset(cfg Config) error {
	if cfg.Geo != f.geo {
		return fmt.Errorf("ftl: Reset geometry mismatch (have %+v)", f.geo)
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	nSpare := spareBlocks(cfg)
	logical := cfg.LogicalPages
	if logical <= 0 {
		logical = f.geo.TotalPages()
	}
	if logical == f.l2pSpan {
		f.l2p.reset()
	} else {
		f.l2p = newTable(logical)
		f.l2pSpan = logical
	}
	f.p2l.reset()
	if f.restored || nSpare != f.nSpare {
		for _, ps := range f.planes {
			for b := range ps.blocks {
				ps.scrub(b)
			}
			ps.layoutPools(nSpare, 0)
		}
	} else {
		bpp := f.geo.BlocksPerPlane
		for _, gb := range f.dirtyBlocks {
			f.planes[gb/bpp].scrub(gb % bpp)
		}
		for _, pi := range f.dirtyPlanes {
			ps := f.planes[pi]
			ps.layoutPools(nSpare, ps.freeLow)
		}
	}
	f.dirtyBlocks = f.dirtyBlocks[:0]
	f.dirtyPlanes = f.dirtyPlanes[:0]
	f.nSpare, f.restored = nSpare, false
	rebuild := cfg.Allocation != f.cfg.Allocation
	f.cfg = cfg
	if rebuild {
		f.buildStripe()
	}
	f.cursor, f.stripePos = 0, 0
	f.stats = Stats{}
	return nil
}

// planeIndex linearizes (chip, die, plane).
func (f *FTL) planeIndex(chip flash.ChipID, die, plane int) int {
	return (int(chip)*f.geo.DiesPerChip+die)*f.geo.PlanesPerDie + plane
}

// pageAt locates PPN p: its plane index, block and page. PPNs are
// plane-major, so p / PagesPerPlane is the plane index planeIndex would
// compute, and the block takes one more division — where FromPPN
// followed by planeIndex takes eight.
func (f *FTL) pageAt(p int64) (pi, block, page int) {
	ppp := int64(f.geo.PagesPerPlane())
	q := p / ppp
	off := int(p - q*ppp)
	block = off / f.geo.PagesPerBlock
	return int(q), block, off - block*f.geo.PagesPerBlock
}

// addrOf decodes PPN p with pageAt and the plane's recorded location.
func (f *FTL) addrOf(p int64) flash.Addr {
	pi, b, pg := f.pageAt(p)
	loc := f.locs[pi]
	return flash.Addr{Chip: loc.chip, Die: loc.die, Plane: loc.plane, Block: b, Page: pg}
}

// buildStripe lays out the stripe table: the plane each write of one
// stripe period goes to under the configured allocation scheme, one
// write per plane. The default (channel-first) walks chips across
// channels (chip offset 0 on every channel, then offset 1, ...),
// maximizing channel striping, and advances die/plane round-robin on
// each full sweep so planes fill in lockstep — which keeps page offsets
// aligned for plane sharing.
func (f *FTL) buildStripe() {
	g := f.geo
	f.stripe = slices.Grow(f.stripe[:0], len(f.planes))
	add := func(channel, offset, die, plane int) {
		f.stripe = append(f.stripe, f.planeIndex(g.ChipAt(channel, offset), die, plane))
	}
	switch f.cfg.Allocation {
	case AllocWayFirst:
		// Chips within a channel first, then the next channel.
		for die := range g.DiesPerChip {
			for plane := range g.PlanesPerDie {
				for channel := range g.Channels {
					for offset := range g.ChipsPerChan {
						add(channel, offset, die, plane)
					}
				}
			}
		}
	case AllocPlaneFirst:
		// Planes, then dies of one chip, then the next chip.
		for offset := range g.ChipsPerChan {
			for channel := range g.Channels {
				for die := range g.DiesPerChip {
					for plane := range g.PlanesPerDie {
						add(channel, offset, die, plane)
					}
				}
			}
		}
	default: // AllocChannelFirst
		for die := range g.DiesPerChip {
			for plane := range g.PlanesPerDie {
				for offset := range g.ChipsPerChan {
					for channel := range g.Channels {
						add(channel, offset, die, plane)
					}
				}
			}
		}
	}
}

// stripeTarget returns the plane index the next write allocation should
// use and advances the stripe.
func (f *FTL) stripeTarget() int {
	pi := f.stripe[f.stripePos]
	f.cursor++
	if f.stripePos++; f.stripePos == len(f.stripe) {
		f.stripePos = 0
	}
	return pi
}

// errPlaneFull is allocate's refusal: one shared value, since a pressured
// drive retries a refused write on every completion until GC frees space.
var errPlaneFull = errors.New("ftl: plane out of free blocks")

// allocate takes the next free page in the plane's active block, refusing
// to dip below reserve free blocks (host writes keep one block in reserve
// so garbage collection always has somewhere to migrate; GC itself
// allocates with reserve 0). It returns errPlaneFull when the plane is out
// of space (GC must run first).
func (f *FTL) allocate(planeIdx, reserve int) (flash.Addr, error) {
	ps := f.planes[planeIdx]
	if ps.active < 0 || ps.blocks[ps.active].full {
		if len(ps.free) <= reserve {
			return flash.Addr{}, errPlaneFull
		}
		ps.active = ps.free[len(ps.free)-1]
		ps.free = ps.free[:len(ps.free)-1]
		if len(ps.free) < ps.freeLow {
			ps.freeLow = len(ps.free)
		}
		if blk := &ps.blocks[ps.active]; !blk.dirty {
			blk.dirty = true
			f.dirtyBlocks = append(f.dirtyBlocks, planeIdx*f.geo.BlocksPerPlane+ps.active)
			if !ps.dirty {
				ps.dirty = true
				f.dirtyPlanes = append(f.dirtyPlanes, planeIdx)
			}
		}
	}
	blk := &ps.blocks[ps.active]
	loc := f.locs[planeIdx]
	a := flash.Addr{Chip: loc.chip, Die: loc.die, Plane: loc.plane, Block: ps.active, Page: int(blk.written)}
	blk.written++
	if int(blk.written) >= f.geo.PagesPerBlock {
		blk.full = true
	}
	return a, nil
}

// markValid records that a holds live data for lpn.
func (f *FTL) markValid(a flash.Addr, lpn req.LPN) {
	ps := f.planes[f.planeIndex(a.Chip, a.Die, a.Plane)]
	valid := ps.valid(a.Block)
	if valid.Get(a.Page) {
		panic(fmt.Sprintf("ftl: page %v already valid", a))
	}
	valid.Set(a.Page)
	ps.blocks[a.Block].validCount++
	p := f.geo.ToPPN(a)
	f.l2p.set(int64(lpn), int64(p))
	f.p2l.set(int64(p), int64(lpn))
}

// invalidate drops the live mapping at a.
func (f *FTL) invalidate(a flash.Addr) {
	ps := f.planes[f.planeIndex(a.Chip, a.Die, a.Plane)]
	valid := ps.valid(a.Block)
	if !valid.Get(a.Page) {
		panic(fmt.Sprintf("ftl: invalidating non-valid page %v", a))
	}
	valid.Clear(a.Page)
	ps.blocks[a.Block].validCount--
	f.stats.Invalidated++
}

// Lookup returns the physical address currently mapped for lpn.
func (f *FTL) Lookup(lpn req.LPN) (flash.Addr, bool) {
	p, ok := f.l2p.get(int64(lpn))
	if !ok {
		return flash.Addr{}, false
	}
	return f.addrOf(p), true
}

// VirtualAddr is the deterministic physical placement of a logical page
// that was written before the simulation started (the preloaded drive
// image). Consecutive LPNs stripe channel-first over every (chip, die,
// plane) unit; the row index becomes the block/page offset. Two LPNs in
// the same stripe row therefore share a page offset — sequential data
// keeps its plane-sharing potential — while logically distant pages land
// on different rows, as they would on a long-lived drive.
//
// Virtual placements are read-only fictions: they are not tracked in the
// block validity metadata and never interact with the allocator or GC.
// The first write to such an LPN allocates a real page as usual.
func (f *FTL) VirtualAddr(lpn req.LPN) flash.Addr {
	g := f.geo
	units := int64(g.NumChips()) * int64(g.DiesPerChip) * int64(g.PlanesPerDie)
	u := int64(lpn) % units
	row := int64(lpn) / units
	chipStep := u % int64(g.NumChips())
	channel := int(chipStep) % g.Channels
	offset := int(chipStep) / g.Channels
	rest := u / int64(g.NumChips())
	plane := int(rest) % g.PlanesPerDie
	die := (int(rest) / g.PlanesPerDie) % g.DiesPerChip
	page := int(row) % g.PagesPerBlock
	block := int(row/int64(g.PagesPerBlock)) % g.BlocksPerPlane
	return flash.Addr{Chip: g.ChipAt(channel, offset), Die: die, Plane: plane, Block: block, Page: page}
}

// Preprocess resolves the physical layout of one memory request. This is
// the core.preprocess(tag) step of Algorithm 1: it runs when the tag is
// secured, before any data movement, so schedulers can group requests by
// physical chip.
//
// Reads of never-written pages resolve through the VirtualAddr preloaded
// image. Writes allocate a fresh page and invalidate the previous mapping
// (out-of-place update).
func (f *FTL) Preprocess(m *req.Mem) error {
	switch m.IO.Kind {
	case req.Read:
		if a, ok := f.Lookup(m.LPN); ok {
			m.Addr = a
			return nil
		}
		m.Addr = f.VirtualAddr(m.LPN)
		return nil
	case req.Write:
		a, err := f.write(f.stripeTarget(), m.LPN)
		if err != nil {
			return err
		}
		m.Addr = a
		return nil
	default:
		return fmt.Errorf("ftl: unknown kind %v", m.IO.Kind)
	}
}

// write makes a host write of lpn on plane pi. It allocates before
// invalidating, so a failed allocation leaves the old mapping intact (the
// caller may GC and retry).
func (f *FTL) write(pi int, lpn req.LPN) (flash.Addr, error) {
	a, err := f.allocate(pi, 1)
	if err != nil {
		return flash.Addr{}, err
	}
	if old, ok := f.Lookup(lpn); ok {
		f.invalidate(old)
	}
	f.markValid(a, lpn)
	f.stats.HostWrites++
	return a, nil
}

// fillTile is how many stripe rows Fill writes on one plane before it
// moves to the next: the plane's active block, bitmap words and
// reverse-map run stay in cache across its writes, and the tile's stretch
// of the L2P table stays in cache across the planes.
const fillTile = 16

// Fill makes the host writes of LPNs lpn0, lpn0+1, ..., lpn0+n-1 that n
// Preprocess calls would make, up to but not including the first that
// would find its plane out of space. It returns how many it made; the
// caller continues from there one write at a time, so a write that needs
// garbage collection first reaches it exactly as it would have.
//
// Write j goes to the plane at stripe position (stripePos+j) mod the
// period, so each plane's share of the prefix, and the first write it
// cannot place, follow from the pages it has left above the host's
// one-block reserve. No write in the prefix can fail or collect, and the
// planes share no allocation state, so the prefix is written in tiles of
// fillTile stripe rows, one plane at a time and each plane's writes in
// order: the result is the state the same writes leave through
// Preprocess, up to the order of lists whose order nothing depends on
// (Reset's dirty lists and the mapping tables' touched chunks).
func (f *FTL) Fill(lpn0 req.LPN, n int64) int64 {
	period, pos := int64(len(f.stripe)), int64(f.stripePos)
	k := max(n, 0)
	for s, pi := range f.stripe {
		first := (int64(s) - pos + period) % period
		if stop := first + f.hostRoom(f.planes[pi])*period; stop < k {
			k = stop
		}
	}
	// Stripe row r holds the writes at positions r*period .. r*period +
	// period-1, counted from the start of the row pos lies in.
	lo, hi := pos, pos+k
	for row := int64(0); row*period < hi; row += fillTile {
		end := min(row+fillTile, (hi+period-1)/period)
		for s, pi := range f.stripe {
			for r := row; r < end; r++ {
				g := r*period + int64(s)
				if g < lo || g >= hi {
					continue
				}
				if _, err := f.write(pi, lpn0+req.LPN(g-lo)); err != nil {
					panic(fmt.Sprintf("ftl: Fill overran its prefix: %v", err))
				}
			}
		}
	}
	f.cursor += k
	f.stripePos = int(hi % period)
	return k
}

// hostRoom returns how many pages host writes can still take on ps before
// allocate refuses them: the active block's unwritten pages plus every
// free block but the one held in reserve.
func (f *FTL) hostRoom(ps *planeState) int64 {
	var room int64
	if ps.active >= 0 && !ps.blocks[ps.active].full {
		room = int64(f.geo.PagesPerBlock - int(ps.blocks[ps.active].written))
	}
	if spare := len(ps.free) - 1; spare > 0 {
		room += int64(spare) * int64(f.geo.PagesPerBlock)
	}
	return room
}

// NeedGC appends to dst the plane indices whose free-block count is at
// or below the GC threshold, most urgent first (fewest free blocks, then
// lowest index), and returns the extended slice.
func (f *FTL) NeedGC(dst []int) []int {
	n := len(dst)
	for i, ps := range f.planes {
		if len(ps.free) <= f.cfg.GCFreeTarget {
			dst = append(dst, i)
		}
	}
	slices.SortFunc(dst[n:], func(a, b int) int {
		return cmp.Or(cmp.Compare(len(f.planes[a].free), len(f.planes[b].free)), cmp.Compare(a, b))
	})
	return dst
}

// PlaneUnderPressure reports whether plane index pi needs GC.
func (f *FTL) PlaneUnderPressure(pi int) bool {
	return len(f.planes[pi].free) <= f.cfg.GCFreeTarget
}

// Migration is one live-page move in a GC job.
type Migration struct {
	LPN req.LPN
	Src flash.Addr
	Dst flash.Addr
}

// GCJob is a planned collection of one victim block: read the live pages,
// program them at Dst, erase the victim. The SSD layer simulates the
// corresponding flash transactions and then calls CommitGC. A job is
// caller-owned storage: PlanGC refills it, reusing its Migrations.
type GCJob struct {
	Victim     flash.Addr // Block field identifies the victim; Page is 0
	Migrations []Migration
	committed  bool
}

// PlanGC selects a victim in the plane (greedy: fewest valid pages among
// full blocks), pre-allocates migration destinations and writes the plan
// into job, overwriting whatever job held. It reports false if the plane
// has no collectable block — including when every candidate is fully
// valid: erasing such a block reclaims nothing, and collecting it anyway
// would turn GC into an endless migration storm.
func (f *FTL) PlanGC(planeIdx int, job *GCJob) (bool, error) {
	ps := f.planes[planeIdx]
	loc := f.locs[planeIdx]
	chip, die, plane := loc.chip, loc.die, loc.plane
	victim := -1
	best := f.geo.PagesPerBlock + 1
	for b := range ps.blocks {
		blk := &ps.blocks[b]
		if !blk.full || b == ps.active || blk.bad {
			continue
		}
		if int(blk.validCount) < best {
			best = int(blk.validCount)
			victim = b
		}
	}
	if victim < 0 || best >= f.geo.PagesPerBlock {
		return false, nil
	}
	job.Victim = flash.Addr{Chip: chip, Die: die, Plane: plane, Block: victim}
	job.Migrations = job.Migrations[:0]
	job.committed = false
	valid := ps.valid(victim)
	for pg := 0; pg < f.geo.PagesPerBlock; pg++ {
		if !valid.Get(pg) {
			continue
		}
		src := flash.Addr{Chip: chip, Die: die, Plane: plane, Block: victim, Page: pg}
		lpn := req.LPN(f.p2l.get(int64(f.geo.ToPPN(src))))
		dstPlane := planeIdx
		if f.cfg.MigrateCrossPlane {
			dstPlane = f.bestPlaneOnChip(chip, planeIdx)
		}
		dst, err := f.allocate(dstPlane, 0)
		if err != nil {
			return false, fmt.Errorf("ftl: no room for GC migration: %w", err)
		}
		job.Migrations = append(job.Migrations, Migration{LPN: lpn, Src: src, Dst: dst})
	}
	return true, nil
}

// bestPlaneOnChip returns the plane index on chip with the most free
// blocks, falling back to the victim's own plane. Only planes with at
// least two free blocks are eligible: migrating into another plane's last
// reserved block would deadlock that plane's own collection, so tight
// chips degrade to in-plane migration (which always has the host-side
// reserve to move into).
func (f *FTL) bestPlaneOnChip(chip flash.ChipID, fallback int) int {
	best, bestFree := fallback, -1
	for die := 0; die < f.geo.DiesPerChip; die++ {
		for plane := 0; plane < f.geo.PlanesPerDie; plane++ {
			i := f.planeIndex(chip, die, plane)
			free := len(f.planes[i].free)
			if i != fallback && free < 2 {
				continue
			}
			if i == fallback {
				free-- // mild penalty: prefer moving away from the victim plane
			}
			if free > bestFree {
				best, bestFree = i, free
			}
		}
	}
	return best
}

// CommitGC applies the mapping changes of a finished job: live pages are
// remapped to their destinations (skipping any the host overwrote while
// the job was in flight) and the victim is erased. The erased victim
// returns to the free list, unless the chip-level fault model reported its
// erase as failed (eraseFailed): then the block is retired and a spare
// activated in its place.
//
// It returns the migrations actually applied, filtered in place into the
// front of job.Migrations: the slice aliases the job's storage and is
// valid only until the next PlanGC into that job.
func (f *FTL) CommitGC(job *GCJob, eraseFailed bool) []Migration {
	if job.committed {
		panic("ftl: GC job committed twice")
	}
	job.committed = true
	f.stats.GCRuns++
	applied := job.Migrations[:0]
	for _, mg := range job.Migrations {
		cur, ok := f.l2p.get(int64(mg.LPN))
		if !ok || flash.PPN(cur) != f.geo.ToPPN(mg.Src) {
			// The host overwrote this LPN mid-GC; its new location wins and
			// the pre-allocated destination page is simply wasted (it will
			// be reclaimed as invalid later) — matching real FTL behaviour.
			continue
		}
		f.invalidate(mg.Src)
		f.markValid(mg.Dst, mg.LPN)
		f.stats.GCReads++
		f.stats.GCWrites++
		applied = append(applied, mg)
	}
	// Erase the victim. An injected erase failure retires the block (bad
	// block replacement: the plane's remaining spares take over, §4.3).
	ps := f.planes[f.planeIndex(job.Victim.Chip, job.Victim.Die, job.Victim.Plane)]
	blk := &ps.blocks[job.Victim.Block]
	if blk.validCount != 0 {
		panic(fmt.Sprintf("ftl: erasing block %v with %d valid pages", job.Victim, blk.validCount))
	}
	// validCount == 0 means the bitmap is already all clear: keep the
	// pooled one rather than allocating a fresh bitmap per erase.
	blk.written = 0
	blk.full = false
	blk.erases++
	if eraseFailed {
		f.retireBlock(ps, job.Victim.Block)
	} else {
		ps.free = append(ps.free, job.Victim.Block)
	}
	f.stats.GCErases++
	return applied
}

// retireBlock marks a block bad and activates a spare in its place. When
// the plane's spare pool is empty the FTL transitions to degraded mode:
// usable capacity can no longer be held constant, so the device should stop
// admitting writes (reads keep working).
func (f *FTL) retireBlock(ps *planeState, block int) {
	blk := &ps.blocks[block]
	blk.bad = true
	blk.full = true // never allocatable again
	f.stats.RetiredBlocks++
	if n := len(ps.spare); n > 0 {
		sp := ps.spare[n-1]
		ps.spare = ps.spare[:n-1]
		ps.free = append(ps.free, sp)
		f.stats.SparesUsed++
	} else {
		f.stats.Degraded = true
	}
}

// Degraded reports whether a block retirement found the spare pool empty
// or the device found no space for a write: the drive can no longer
// guarantee its usable capacity and should be treated as read-only. The
// flag is sticky until Reset.
func (f *FTL) Degraded() bool { return f.stats.Degraded }

// Degrade enters the read-only mode Degraded reports.
func (f *FTL) Degrade() { f.stats.Degraded = true }

// RemapProgramFail recovers a host write whose program operation reported
// failure: the failed physical page is abandoned (invalidated — it holds
// garbage) and the logical page is remapped to a freshly allocated one for
// the caller to re-issue. ok is false when no rewrite is needed because the
// host overwrote the LPN while the failed program was in flight (the lost
// data was already stale). A non-nil error means the rewrite could not be
// placed even using the host reserve; the caller should fail the I/O.
func (f *FTL) RemapProgramFail(lpn req.LPN, failed flash.Addr) (a flash.Addr, ok bool, err error) {
	cur, mapped := f.l2p.get(int64(lpn))
	if !mapped || flash.PPN(cur) != f.geo.ToPPN(failed) {
		return flash.Addr{}, false, nil
	}
	// Allocate before invalidating so a failed allocation leaves the
	// mapping consistent (pointing at the garbage page, as a real drive
	// that ran out of replacement space would).
	a, err = f.allocate(f.stripeTarget(), 1)
	if err != nil {
		return flash.Addr{}, false, err
	}
	f.invalidate(failed)
	f.markValid(a, lpn)
	return a, true, nil
}

// Stats reports FTL activity counters.
type Stats struct {
	HostWrites    int64
	GCWrites      int64
	GCReads       int64
	GCErases      int64
	GCRuns        int64
	Invalidated   int64
	MappedPages   int64
	RetiredBlocks int64 // blocks retired via chip-level erase failures
	SparesUsed    int64 // spare blocks activated to replace retirements
	Degraded      bool  // spare pool exhausted; drive is read-only
}

// Stats returns a snapshot of the counters.
func (f *FTL) Stats() Stats {
	st := f.stats
	st.MappedPages = int64(f.l2p.len())
	return st
}

// ResetStats zeroes the activity counters (mappings are untouched). Used
// after preconditioning so measurements cover only the workload itself.
func (f *FTL) ResetStats() {
	s := &f.stats
	s.HostWrites, s.GCWrites, s.GCReads, s.GCErases, s.GCRuns, s.Invalidated = 0, 0, 0, 0, 0, 0
}

// WriteAmplification returns (host+gc)/host writes, the standard WA metric.
func (f *FTL) WriteAmplification() float64 {
	if f.stats.HostWrites == 0 {
		return 1
	}
	return float64(f.stats.HostWrites+f.stats.GCWrites) / float64(f.stats.HostWrites)
}

// CheckInvariants verifies internal consistency; tests call it after
// workloads. It returns the first violation found.
//
// The mapping checks make the L2P map a bijection onto the valid pages:
// every mapped page is valid and its reverse entry names its LPN (so no
// two LPNs share a page), and there are as many mappings as valid pages
// (so no valid page is unmapped).
func (f *FTL) CheckInvariants() error {
	var ierr error
	f.l2p.forEach(func(lpn, p int64) bool {
		pi, b, pg := f.pageAt(p)
		if !f.planes[pi].valid(b).Get(pg) {
			ierr = fmt.Errorf("ftl: mapped page %v not marked valid", f.addrOf(p))
			return false
		}
		if back := f.p2l.get(p); back != lpn {
			ierr = fmt.Errorf("ftl: mapping lpn %d -> ppn %d has reverse entry %d", lpn, p, back)
			return false
		}
		return true
	})
	if ierr != nil {
		return ierr
	}
	var validPages int
	for i, ps := range f.planes {
		for b := range ps.blocks {
			blk := &ps.blocks[b]
			validPages += int(blk.validCount)
			if got := ps.valid(b).Count(); got != int(blk.validCount) {
				return fmt.Errorf("ftl: plane %d block %d validCount %d != bitmap %d", i, b, blk.validCount, got)
			}
			if blk.validCount > blk.written {
				return fmt.Errorf("ftl: plane %d block %d valid %d > written %d", i, b, blk.validCount, blk.written)
			}
		}
		free := map[int]bool{}
		for _, b := range ps.free {
			if free[b] {
				return fmt.Errorf("ftl: plane %d free list duplicates block %d", i, b)
			}
			free[b] = true
			if ps.blocks[b].written != 0 || ps.blocks[b].validCount != 0 {
				return fmt.Errorf("ftl: plane %d free block %d not erased", i, b)
			}
			if ps.blocks[b].bad {
				return fmt.Errorf("ftl: plane %d free list contains bad block %d", i, b)
			}
		}
		for _, b := range ps.spare {
			if free[b] {
				return fmt.Errorf("ftl: plane %d block %d is both free and spare", i, b)
			}
			free[b] = true
			if ps.blocks[b].written != 0 || ps.blocks[b].validCount != 0 {
				return fmt.Errorf("ftl: plane %d spare block %d not erased", i, b)
			}
			if ps.blocks[b].bad {
				return fmt.Errorf("ftl: plane %d spare pool contains bad block %d", i, b)
			}
		}
		// The allocator writes on past the active block's write pointer
		// until it is full, so it must be neither pooled nor bad.
		if a := ps.active; a >= 0 && (free[a] || ps.blocks[a].bad) {
			return fmt.Errorf("ftl: plane %d active block %d is also free, spare or bad", i, a)
		}
		for b := range ps.blocks {
			if ps.blocks[b].bad && ps.blocks[b].validCount != 0 {
				return fmt.Errorf("ftl: plane %d bad block %d holds live data", i, b)
			}
		}
	}
	if validPages != f.l2p.len() {
		return fmt.Errorf("ftl: %d valid pages, %d mappings", validPages, f.l2p.len())
	}
	return nil
}
