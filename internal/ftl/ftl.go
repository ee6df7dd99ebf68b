// Package ftl implements the flash translation layer running on the SSD's
// embedded core (§2.1): a pure page-level address map (§5.1), a striped
// dynamic page allocator that spreads consecutive logical pages across
// channels, chips, dies and planes, and a greedy garbage collector whose
// live-data migrations drive the §4.3 readdressing callback.
package ftl

import (
	"fmt"
	"sort"

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

// MigrationFunc observes one live-page migration: lpn moved from old to new.
// The SSD layer forwards this to the scheduler's readdressing callback.
type MigrationFunc func(lpn req.LPN, old, new flash.Addr)

// blockMeta tracks one erase block. The counters are int32 and the flags
// grouped so the record packs into 40 bytes: a default-geometry device
// carries a million of them.
type blockMeta struct {
	valid      req.Bitmap // live pages
	validCount int32
	written    int32 // next free page index (write pointer when active)
	erases     int32 // wear counter
	full       bool  // no more free pages
	bad        bool  // retired (erase failure)
	dirty      bool  // left the erased state since the last Reset (listed in FTL.dirtyBlocks)
}

// scrub returns the block to the factory (erased, unworn) state.
func (blk *blockMeta) scrub() {
	for w := range blk.valid {
		blk.valid[w] = 0
	}
	blk.validCount, blk.written, blk.erases = 0, 0, 0
	blk.full, blk.bad, blk.dirty = false, false, false
}

// planeState is the per-plane allocation state.
type planeState struct {
	blocks []blockMeta
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

// FTL is the translation layer. It is not safe for concurrent use; the
// simulator is single-threaded by design.
type FTL struct {
	cfg     Config
	geo     flash.Geometry
	l2p     *boundedTable // LPN -> PPN
	l2pSpan int64         // sizing hint l2p was built for (Reset reuse check)
	p2l     *boundedTable // PPN -> LPN
	planes  []*planeState

	// cursor implements the channel-first stripe for write allocation:
	// consecutive writes go to consecutive chips across channels, then
	// advance die and plane round-robin within each chip.
	cursor int64

	onMigrate MigrationFunc

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

	// Counters.
	hostWrites    int64
	gcWrites      int64
	gcReads       int64
	gcErases      int64
	gcRuns        int64
	invalidated   int64
	retiredBlocks int64
	sparesUsed    int64
	degraded      bool
}

// New builds an FTL with every block erased and the logical space unmapped.
func New(cfg Config) (*FTL, error) {
	if err := cfg.Geo.Validate(); err != nil {
		return nil, err
	}
	if cfg.GCFreeTarget < 1 {
		return nil, fmt.Errorf("ftl: GCFreeTarget %d < 1", cfg.GCFreeTarget)
	}
	nSpare, err := spareBlocks(cfg)
	if err != nil {
		return nil, err
	}
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
		p2l:     newTable(g.TotalPages()),
		planes:  make([]*planeState, nPlanes),
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
		for b := range ps.blocks {
			off := (lo + b) * words
			ps.blocks[b].valid = req.Bitmap(bitmapPool[off : off+words : off+words])
		}
		ps.spare = sparePool[lo:lo:hi]
		ps.free = freePool[lo:lo:hi]
		ps.layoutPools(nSpare, 0)
		f.planes[i] = ps
	}
	return f, nil
}

// spareBlocks returns the per-plane spare-pool size for cfg, or an error
// when the fraction is out of range or would starve the usable block budget
// the garbage collector needs.
func spareBlocks(cfg Config) (int, error) {
	if cfg.SpareBlockFrac < 0 || cfg.SpareBlockFrac >= 1 {
		return 0, fmt.Errorf("ftl: SpareBlockFrac %g outside [0, 1)", cfg.SpareBlockFrac)
	}
	n := int(cfg.SpareBlockFrac * float64(cfg.Geo.BlocksPerPlane))
	if n > 0 && cfg.Geo.BlocksPerPlane-n <= cfg.GCFreeTarget+1 {
		return 0, fmt.Errorf("ftl: SpareBlockFrac %g leaves %d usable blocks per plane, need more than GCFreeTarget+1 = %d",
			cfg.SpareBlockFrac, cfg.Geo.BlocksPerPlane-n, cfg.GCFreeTarget+1)
	}
	return n, nil
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
	if cfg.GCFreeTarget < 1 {
		return fmt.Errorf("ftl: GCFreeTarget %d < 1", cfg.GCFreeTarget)
	}
	nSpare, err := spareBlocks(cfg)
	if err != nil {
		return err
	}
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
				ps.blocks[b].scrub()
			}
			ps.layoutPools(nSpare, 0)
		}
	} else {
		bpp := f.geo.BlocksPerPlane
		for _, gb := range f.dirtyBlocks {
			f.planes[gb/bpp].blocks[gb%bpp].scrub()
		}
		for _, pi := range f.dirtyPlanes {
			ps := f.planes[pi]
			ps.layoutPools(nSpare, ps.freeLow)
		}
	}
	f.dirtyBlocks = f.dirtyBlocks[:0]
	f.dirtyPlanes = f.dirtyPlanes[:0]
	f.nSpare, f.restored = nSpare, false
	f.cfg = cfg
	f.cursor = 0
	f.onMigrate = nil
	f.hostWrites, f.gcWrites, f.gcReads, f.gcErases, f.gcRuns = 0, 0, 0, 0, 0
	f.invalidated, f.retiredBlocks, f.sparesUsed, f.degraded = 0, 0, 0, false
	return nil
}

// Geometry returns the configured geometry.
func (f *FTL) Geometry() flash.Geometry { return f.geo }

// OnMigrate installs the migration observer (the readdressing callback
// plumbing). Passing nil removes it.
func (f *FTL) OnMigrate(fn MigrationFunc) { f.onMigrate = fn }

// planeIndex linearizes (chip, die, plane).
func (f *FTL) planeIndex(chip flash.ChipID, die, plane int) int {
	return (int(chip)*f.geo.DiesPerChip+die)*f.geo.PlanesPerDie + plane
}

// planeAddr recovers (chip, die, plane) from a plane index.
func (f *FTL) planeAddr(idx int) (flash.ChipID, int, int) {
	plane := idx % f.geo.PlanesPerDie
	idx /= f.geo.PlanesPerDie
	die := idx % f.geo.DiesPerChip
	chip := flash.ChipID(idx / f.geo.DiesPerChip)
	return chip, die, plane
}

// stripeTarget returns the plane index the next write allocation should
// use, following the configured allocation scheme. The default
// (channel-first) walks chips across channels (chip offset 0 on every
// channel, then offset 1, ...), maximizing channel striping, and advances
// die/plane round-robin on each full sweep so planes fill in lockstep —
// which keeps page offsets aligned for plane sharing.
func (f *FTL) stripeTarget() int {
	g := f.geo
	n := f.cursor
	f.cursor++
	var chip flash.ChipID
	var die, plane int
	switch f.cfg.Allocation {
	case AllocWayFirst:
		// Chips within a channel first, then the next channel.
		chipStep := n % int64(g.NumChips())
		offset := int(chipStep) % g.ChipsPerChan
		channel := int(chipStep) / g.ChipsPerChan
		chip = g.ChipAt(channel, offset)
		rest := n / int64(g.NumChips())
		plane = int(rest) % g.PlanesPerDie
		die = (int(rest) / g.PlanesPerDie) % g.DiesPerChip
	case AllocPlaneFirst:
		// Planes, then dies of one chip, then the next chip.
		flp := int64(g.MaxFLP())
		plane = int(n % int64(g.PlanesPerDie))
		die = int((n / int64(g.PlanesPerDie)) % int64(g.DiesPerChip))
		chipStep := (n / flp) % int64(g.NumChips())
		channel := int(chipStep) % g.Channels
		offset := int(chipStep) / g.Channels
		chip = g.ChipAt(channel, offset)
	default: // AllocChannelFirst
		chipStep := n % int64(g.NumChips())
		channel := int(chipStep) % g.Channels
		offset := int(chipStep) / g.Channels
		chip = g.ChipAt(channel, offset)
		rest := n / int64(g.NumChips())
		plane = int(rest) % g.PlanesPerDie
		die = (int(rest) / g.PlanesPerDie) % g.DiesPerChip
	}
	return f.planeIndex(chip, die, plane)
}

// allocate takes the next free page in the plane's active block, refusing
// to dip below reserve free blocks (host writes keep one block in reserve
// so garbage collection always has somewhere to migrate; GC itself
// allocates with reserve 0). It returns an error when the plane is out of
// space (GC must run first).
func (f *FTL) allocate(planeIdx, reserve int) (flash.Addr, error) {
	ps := f.planes[planeIdx]
	if ps.active < 0 || ps.blocks[ps.active].full {
		if len(ps.free) <= reserve {
			chip, die, plane := f.planeAddr(planeIdx)
			return flash.Addr{}, fmt.Errorf("ftl: plane c%d/d%d/p%d out of free blocks", chip, die, plane)
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
	chip, die, plane := f.planeAddr(planeIdx)
	a := flash.Addr{Chip: chip, Die: die, Plane: plane, Block: ps.active, Page: int(blk.written)}
	blk.written++
	if int(blk.written) >= f.geo.PagesPerBlock {
		blk.full = true
	}
	return a, nil
}

// markValid records that a holds live data for lpn.
func (f *FTL) markValid(a flash.Addr, lpn req.LPN) {
	ps := f.planes[f.planeIndex(a.Chip, a.Die, a.Plane)]
	blk := &ps.blocks[a.Block]
	if blk.valid.Get(a.Page) {
		panic(fmt.Sprintf("ftl: page %v already valid", a))
	}
	blk.valid.Set(a.Page)
	blk.validCount++
	p := f.geo.ToPPN(a)
	f.l2p.set(int64(lpn), int64(p))
	f.p2l.set(int64(p), int64(lpn))
}

// invalidate drops the live mapping at a.
func (f *FTL) invalidate(a flash.Addr) {
	ps := f.planes[f.planeIndex(a.Chip, a.Die, a.Plane)]
	blk := &ps.blocks[a.Block]
	if !blk.valid.Get(a.Page) {
		panic(fmt.Sprintf("ftl: invalidating non-valid page %v", a))
	}
	blk.valid.Clear(a.Page)
	blk.validCount--
	f.p2l.del(int64(f.geo.ToPPN(a)))
	f.invalidated++
}

// Lookup returns the physical address currently mapped for lpn.
func (f *FTL) Lookup(lpn req.LPN) (flash.Addr, bool) {
	p, ok := f.l2p.get(int64(lpn))
	if !ok {
		return flash.Addr{}, false
	}
	return f.geo.FromPPN(flash.PPN(p)), true
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
		// Allocate before invalidating so a failed allocation leaves the
		// old mapping intact (the caller may GC and retry).
		a, err := f.allocate(f.stripeTarget(), 1)
		if err != nil {
			return err
		}
		if old, ok := f.Lookup(m.LPN); ok {
			f.invalidate(old)
		}
		f.markValid(a, m.LPN)
		f.hostWrites++
		m.Addr = a
		return nil
	default:
		return fmt.Errorf("ftl: unknown kind %v", m.IO.Kind)
	}
}

// NeedGC reports the plane indices whose free-block count is at or below
// the GC threshold, most urgent first.
func (f *FTL) NeedGC() []int {
	var idx []int
	for i, ps := range f.planes {
		if len(ps.free) <= f.cfg.GCFreeTarget {
			idx = append(idx, i)
		}
	}
	sort.Slice(idx, func(a, b int) bool {
		fa, fb := len(f.planes[idx[a]].free), len(f.planes[idx[b]].free)
		if fa != fb {
			return fa < fb
		}
		return idx[a] < idx[b]
	})
	return idx
}

// PlaneUnderPressure reports whether the given plane needs GC.
func (f *FTL) PlaneUnderPressure(chip flash.ChipID, die, plane int) bool {
	return len(f.planes[f.planeIndex(chip, die, plane)].free) <= f.cfg.GCFreeTarget
}

// Migration is one live-page move in a GC job.
type Migration struct {
	LPN req.LPN
	Src flash.Addr
	Dst flash.Addr
}

// GCJob is a planned collection of one victim block: read the live pages,
// program them at Dst, erase the victim. The SSD layer simulates the
// corresponding flash transactions and then calls Commit.
type GCJob struct {
	Victim     flash.Addr // Block field identifies the victim; Page is 0
	Migrations []Migration
	committed  bool
}

// PlanGC selects a victim in the plane (greedy: fewest valid pages among
// full blocks) and pre-allocates migration destinations. It returns nil if
// the plane has no collectable block — including when every candidate is
// fully valid: erasing such a block reclaims nothing, and collecting it
// anyway would turn GC into an endless migration storm.
func (f *FTL) PlanGC(planeIdx int) (*GCJob, error) {
	ps := f.planes[planeIdx]
	chip, die, plane := f.planeAddr(planeIdx)
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
		return nil, nil
	}
	job := &GCJob{Victim: flash.Addr{Chip: chip, Die: die, Plane: plane, Block: victim}}
	blk := &ps.blocks[victim]
	for pg := 0; pg < f.geo.PagesPerBlock; pg++ {
		if !blk.valid.Get(pg) {
			continue
		}
		src := flash.Addr{Chip: chip, Die: die, Plane: plane, Block: victim, Page: pg}
		rawLPN, ok := f.p2l.get(int64(f.geo.ToPPN(src)))
		if !ok {
			panic(fmt.Sprintf("ftl: valid page %v with no reverse mapping", src))
		}
		lpn := req.LPN(rawLPN)
		dstPlane := planeIdx
		if f.cfg.MigrateCrossPlane {
			dstPlane = f.bestPlaneOnChip(chip, planeIdx)
		}
		dst, err := f.allocate(dstPlane, 0)
		if err != nil {
			return nil, fmt.Errorf("ftl: no room for GC migration: %w", err)
		}
		job.Migrations = append(job.Migrations, Migration{LPN: lpn, Src: src, Dst: dst})
	}
	return job, nil
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
// the job was in flight), the victim is erased, and the migration observer
// fires once per applied move. The erased victim returns to the free list,
// unless the chip-level fault model reported its erase as failed
// (eraseFailed): then the block is retired and a spare activated in its
// place.
//
// It returns the migrations actually applied.
func (f *FTL) CommitGC(job *GCJob, eraseFailed bool) []Migration {
	if job.committed {
		panic("ftl: GC job committed twice")
	}
	job.committed = true
	f.gcRuns++
	var applied []Migration
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
		f.gcReads++
		f.gcWrites++
		applied = append(applied, mg)
		if f.onMigrate != nil {
			f.onMigrate(mg.LPN, mg.Src, mg.Dst)
		}
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
	f.gcErases++
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
	f.retiredBlocks++
	if n := len(ps.spare); n > 0 {
		sp := ps.spare[n-1]
		ps.spare = ps.spare[:n-1]
		ps.free = append(ps.free, sp)
		f.sparesUsed++
	} else {
		f.degraded = true
	}
}

// Degraded reports whether a block retirement found the spare pool empty:
// the drive can no longer guarantee its usable capacity and should be
// treated as read-only. The flag is sticky until Reset.
func (f *FTL) Degraded() bool { return f.degraded }

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
	return Stats{
		HostWrites:    f.hostWrites,
		GCWrites:      f.gcWrites,
		GCReads:       f.gcReads,
		GCErases:      f.gcErases,
		GCRuns:        f.gcRuns,
		Invalidated:   f.invalidated,
		MappedPages:   int64(f.l2p.len()),
		RetiredBlocks: f.retiredBlocks,
		SparesUsed:    f.sparesUsed,
		Degraded:      f.degraded,
	}
}

// ResetStats zeroes the activity counters (mappings are untouched). Used
// after preconditioning so measurements cover only the workload itself.
func (f *FTL) ResetStats() {
	f.hostWrites, f.gcWrites, f.gcReads, f.gcErases, f.gcRuns, f.invalidated = 0, 0, 0, 0, 0, 0
}

// WriteAmplification returns (host+gc)/host writes, the standard WA metric.
func (f *FTL) WriteAmplification() float64 {
	if f.hostWrites == 0 {
		return 1
	}
	return float64(f.hostWrites+f.gcWrites) / float64(f.hostWrites)
}

// CheckInvariants verifies internal consistency; tests call it after
// workloads. It returns the first violation found.
func (f *FTL) CheckInvariants() error {
	if f.l2p.len() != f.p2l.len() {
		return fmt.Errorf("ftl: l2p has %d entries, p2l has %d", f.l2p.len(), f.p2l.len())
	}
	var ierr error
	f.l2p.forEach(func(lpn, p int64) bool {
		if back, ok := f.p2l.get(p); !ok || back != lpn {
			ierr = fmt.Errorf("ftl: mapping lpn %d -> ppn %d not mirrored", lpn, p)
			return false
		}
		a := f.geo.FromPPN(flash.PPN(p))
		ps := f.planes[f.planeIndex(a.Chip, a.Die, a.Plane)]
		if !ps.blocks[a.Block].valid.Get(a.Page) {
			ierr = fmt.Errorf("ftl: mapped page %v not marked valid", a)
			return false
		}
		return true
	})
	if ierr != nil {
		return ierr
	}
	for i, ps := range f.planes {
		for b := range ps.blocks {
			blk := &ps.blocks[b]
			if got := blk.valid.Count(); got != int(blk.validCount) {
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
		for b := range ps.blocks {
			if ps.blocks[b].bad && ps.blocks[b].validCount != 0 {
				return fmt.Errorf("ftl: plane %d bad block %d holds live data", i, b)
			}
		}
	}
	return nil
}
