// Package flash models NAND flash memory at the microarchitecture level:
// chip/die/plane/block/page geometry, physical addresses, the ONFI-style
// operation set with its timing sequences, flash transactions with their
// flash-level-parallelism (FLP) classes, and a per-chip state machine that
// executes transactions on a shared channel bus.
//
// The model follows §2.2 and §5.1 of the Sprinkler paper (Jung & Kandemir,
// HPCA 2014): each chip exposes several dies behind one multiplexed
// interface and a chip-enable; dies operate independently (die
// interleaving); planes within a die share the wordline drivers and can be
// activated together only for same-page-offset accesses (plane sharing).
package flash

import "fmt"

// Geometry describes the physical layout of the flash array in an SSD.
// The zero value is not useful; use DefaultGeometry or fill every field.
type Geometry struct {
	Channels       int // independent I/O channels
	ChipsPerChan   int // chips (targets) per channel, sharing the bus
	DiesPerChip    int // independently operating dies behind one interface
	PlanesPerDie   int // planes sharing a die's wordline drivers
	BlocksPerPlane int // erase blocks per plane
	PagesPerBlock  int // program/read pages per block
	PageSize       int // bytes per page, the atomic flash I/O unit
}

// DefaultGeometry mirrors the configuration in §5.1 of the paper: 2 dies per
// chip, 4 planes per die, 8192 blocks per die (2048 per plane), 128 pages
// per block, 2 KB pages. Channel/chip counts default to the smallest
// platform evaluated (8 channels × 8 chips = 64 chips).
func DefaultGeometry() Geometry {
	return Geometry{
		Channels:       8,
		ChipsPerChan:   8,
		DiesPerChip:    2,
		PlanesPerDie:   4,
		BlocksPerPlane: 2048,
		PagesPerBlock:  128,
		PageSize:       2048,
	}
}

// MaxPlanesPerDie bounds the planes a die may have: Occupancy, the
// coalescing rule that forms transactions, holds a die's planes in a 32-bit
// mask. Real dies have a handful (the paper's: 4).
const MaxPlanesPerDie = 32

// MaxPagesPerBlock and MaxPageSize bound the page dimensions a geometry may
// name. PagesPerBlock sizes the per-block validity bitmaps and PageSize
// feeds byte counts, so a configuration read from a file must not be able
// to ask for gigabytes of bitmaps or overflow bandwidth arithmetic. Real
// NAND stays far below both (the paper's platform: 128 pages of 2 KB).
const (
	MaxPagesPerBlock = 1 << 14
	MaxPageSize      = 1 << 20
)

// Validate reports an error when any dimension is non-positive, or
// PlanesPerDie or a page dimension exceeds its bound.
func (g Geometry) Validate() error {
	type dim struct {
		name string
		v    int
	}
	for _, d := range []dim{
		{"Channels", g.Channels},
		{"ChipsPerChan", g.ChipsPerChan},
		{"DiesPerChip", g.DiesPerChip},
		{"PlanesPerDie", g.PlanesPerDie},
		{"BlocksPerPlane", g.BlocksPerPlane},
		{"PagesPerBlock", g.PagesPerBlock},
		{"PageSize", g.PageSize},
	} {
		if d.v <= 0 {
			return fmt.Errorf("flash: geometry %s = %d, must be positive", d.name, d.v)
		}
	}
	if g.PlanesPerDie > MaxPlanesPerDie {
		return fmt.Errorf("flash: geometry PlanesPerDie = %d exceeds the limit of %d", g.PlanesPerDie, MaxPlanesPerDie)
	}
	if g.PagesPerBlock > MaxPagesPerBlock {
		return fmt.Errorf("flash: geometry PagesPerBlock = %d exceeds the limit of %d", g.PagesPerBlock, MaxPagesPerBlock)
	}
	if g.PageSize > MaxPageSize {
		return fmt.Errorf("flash: geometry PageSize = %d exceeds the limit of %d", g.PageSize, MaxPageSize)
	}
	return nil
}

// NumChips returns the total number of flash chips.
func (g Geometry) NumChips() int { return g.Channels * g.ChipsPerChan }

// PagesPerPlane returns pages in one plane.
func (g Geometry) PagesPerPlane() int { return g.BlocksPerPlane * g.PagesPerBlock }

// PagesPerDie returns pages in one die.
func (g Geometry) PagesPerDie() int { return g.PlanesPerDie * g.PagesPerPlane() }

// PagesPerChip returns pages in one chip.
func (g Geometry) PagesPerChip() int { return g.DiesPerChip * g.PagesPerDie() }

// TotalPages returns the number of physical pages in the SSD.
func (g Geometry) TotalPages() int64 {
	return int64(g.NumChips()) * int64(g.PagesPerChip())
}

// MaxFLP returns the maximum flash-level parallelism degree of one chip:
// dies × planes memory requests can be served by a single transaction.
func (g Geometry) MaxFLP() int { return g.DiesPerChip * g.PlanesPerDie }

// ChipID identifies a chip globally. Chips are numbered channel-major:
// chip = channel*ChipsPerChan + offsetWithinChannel.
type ChipID int

// Channel returns the channel index of chip c.
func (g Geometry) Channel(c ChipID) int { return int(c) / g.ChipsPerChan }

// ChipOffset returns c's position within its channel (the "chip offset"
// used by RIOS's traversal order).
func (g Geometry) ChipOffset(c ChipID) int { return int(c) % g.ChipsPerChan }

// ChipAt returns the ChipID at (channel, offset).
func (g Geometry) ChipAt(channel, offset int) ChipID {
	return ChipID(channel*g.ChipsPerChan + offset)
}

// Addr is a fully resolved physical flash address.
type Addr struct {
	Chip  ChipID
	Die   int
	Plane int
	Block int // block index within the plane
	Page  int // page index within the block
}

// String renders the address in a compact diagnostic form.
func (a Addr) String() string {
	return fmt.Sprintf("c%d/d%d/p%d/b%d/pg%d", a.Chip, a.Die, a.Plane, a.Block, a.Page)
}

// Valid reports whether a lies inside geometry g.
func (g Geometry) ValidAddr(a Addr) bool {
	return a.Chip >= 0 && int(a.Chip) < g.NumChips() &&
		a.Die >= 0 && a.Die < g.DiesPerChip &&
		a.Plane >= 0 && a.Plane < g.PlanesPerDie &&
		a.Block >= 0 && a.Block < g.BlocksPerPlane &&
		a.Page >= 0 && a.Page < g.PagesPerBlock
}

// PPN (physical page number) linearizes an Addr. The encoding is
// chip-major, then die, plane, block, page, matching the geometry loops
// used throughout the simulator.
type PPN int64

// ToPPN linearizes a.
func (g Geometry) ToPPN(a Addr) PPN {
	n := int64(a.Chip)
	n = n*int64(g.DiesPerChip) + int64(a.Die)
	n = n*int64(g.PlanesPerDie) + int64(a.Plane)
	n = n*int64(g.BlocksPerPlane) + int64(a.Block)
	n = n*int64(g.PagesPerBlock) + int64(a.Page)
	return PPN(n)
}

// FromPPN recovers the Addr encoded in p. The FTL decodes PPNs its own
// way, with a plane's recorded location; FromPPN, written independently,
// is the tests' reference for it.
func (g Geometry) FromPPN(p PPN) Addr {
	n := int64(p)
	var a Addr
	a.Page = int(n % int64(g.PagesPerBlock))
	n /= int64(g.PagesPerBlock)
	a.Block = int(n % int64(g.BlocksPerPlane))
	n /= int64(g.BlocksPerPlane)
	a.Plane = int(n % int64(g.PlanesPerDie))
	n /= int64(g.PlanesPerDie)
	a.Die = int(n % int64(g.DiesPerChip))
	n /= int64(g.DiesPerChip)
	a.Chip = ChipID(n)
	return a
}
