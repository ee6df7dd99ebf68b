package flash

import (
	"testing"
	"testing/quick"
)

func TestDefaultGeometryValid(t *testing.T) {
	g := DefaultGeometry()
	if err := g.Validate(); err != nil {
		t.Fatalf("default geometry invalid: %v", err)
	}
	if g.NumChips() != 64 {
		t.Fatalf("NumChips = %d, want 64", g.NumChips())
	}
	if g.MaxFLP() != 8 {
		t.Fatalf("MaxFLP = %d, want 8", g.MaxFLP())
	}
}

func TestGeometryValidateRejectsZeroDims(t *testing.T) {
	mut := []func(*Geometry){
		func(g *Geometry) { g.Channels = 0 },
		func(g *Geometry) { g.ChipsPerChan = -1 },
		func(g *Geometry) { g.DiesPerChip = 0 },
		func(g *Geometry) { g.PlanesPerDie = 0 },
		func(g *Geometry) { g.BlocksPerPlane = 0 },
		func(g *Geometry) { g.PagesPerBlock = 0 },
		func(g *Geometry) { g.PageSize = 0 },
	}
	for i, m := range mut {
		g := DefaultGeometry()
		m(&g)
		if err := g.Validate(); err == nil {
			t.Errorf("mutation %d: Validate accepted invalid geometry", i)
		}
	}
}

func TestGeometryValidateBoundsPageDims(t *testing.T) {
	g := DefaultGeometry()
	g.PagesPerBlock, g.PageSize = MaxPagesPerBlock, MaxPageSize
	if err := g.Validate(); err != nil {
		t.Fatalf("rejected the largest page dimensions: %v", err)
	}
	for _, m := range []func(*Geometry){
		func(g *Geometry) { g.PagesPerBlock = MaxPagesPerBlock + 1 },
		func(g *Geometry) { g.PagesPerBlock = 1 << 27 },
		func(g *Geometry) { g.PageSize = MaxPageSize + 1 },
		func(g *Geometry) { g.PageSize = 1 << 62 },
	} {
		g := DefaultGeometry()
		m(&g)
		if err := g.Validate(); err == nil {
			t.Errorf("Validate accepted PagesPerBlock %d, PageSize %d", g.PagesPerBlock, g.PageSize)
		}
	}
}

func TestGeometryValidateBoundsPlanes(t *testing.T) {
	g := DefaultGeometry()
	g.PlanesPerDie = MaxPlanesPerDie
	if err := g.Validate(); err != nil {
		t.Fatalf("rejected %d planes: %v", MaxPlanesPerDie, err)
	}
	for _, planes := range []int{MaxPlanesPerDie + 1, 40, 64, 100} {
		g.PlanesPerDie = planes
		if err := g.Validate(); err == nil {
			t.Errorf("Validate accepted %d planes per die", planes)
		}
	}
}

func TestGeometryCapacity(t *testing.T) {
	g := DefaultGeometry()
	// 64 chips * 2 dies * 4 planes * 2048 blocks * 128 pages = 134,217,728 pages.
	if got := g.TotalPages(); got != 134217728 {
		t.Fatalf("TotalPages = %d, want 134217728", got)
	}
}

func TestChannelChipMapping(t *testing.T) {
	g := DefaultGeometry() // 8 channels x 8 chips
	for ch := 0; ch < g.Channels; ch++ {
		for off := 0; off < g.ChipsPerChan; off++ {
			c := g.ChipAt(ch, off)
			if g.Channel(c) != ch {
				t.Fatalf("Channel(%d) = %d, want %d", c, g.Channel(c), ch)
			}
			if g.ChipOffset(c) != off {
				t.Fatalf("ChipOffset(%d) = %d, want %d", c, g.ChipOffset(c), off)
			}
		}
	}
}

func TestPPNRoundTrip(t *testing.T) {
	g := DefaultGeometry()
	addrs := []Addr{
		{},
		{Chip: 63, Die: 1, Plane: 3, Block: 2047, Page: 127},
		{Chip: 17, Die: 0, Plane: 2, Block: 100, Page: 64},
	}
	for _, a := range addrs {
		p := g.ToPPN(a)
		back := g.FromPPN(p)
		if back != a {
			t.Fatalf("round trip %v -> %d -> %v", a, p, back)
		}
	}
}

func TestPPNRoundTripProperty(t *testing.T) {
	g := Geometry{
		Channels: 4, ChipsPerChan: 4, DiesPerChip: 2, PlanesPerDie: 4,
		BlocksPerPlane: 64, PagesPerBlock: 16, PageSize: 2048,
	}
	prop := func(chip, die, plane, block, page uint16) bool {
		a := Addr{
			Chip:  ChipID(int(chip) % g.NumChips()),
			Die:   int(die) % g.DiesPerChip,
			Plane: int(plane) % g.PlanesPerDie,
			Block: int(block) % g.BlocksPerPlane,
			Page:  int(page) % g.PagesPerBlock,
		}
		return g.FromPPN(g.ToPPN(a)) == a && g.ValidAddr(a)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPPNDense(t *testing.T) {
	// PPNs must be a bijection onto [0, TotalPages): check density on a
	// small geometry by enumerating everything.
	g := Geometry{
		Channels: 2, ChipsPerChan: 2, DiesPerChip: 2, PlanesPerDie: 2,
		BlocksPerPlane: 3, PagesPerBlock: 4, PageSize: 512,
	}
	seen := make(map[PPN]bool)
	for chip := 0; chip < g.NumChips(); chip++ {
		for die := 0; die < g.DiesPerChip; die++ {
			for plane := 0; plane < g.PlanesPerDie; plane++ {
				for blk := 0; blk < g.BlocksPerPlane; blk++ {
					for pg := 0; pg < g.PagesPerBlock; pg++ {
						p := g.ToPPN(Addr{ChipID(chip), die, plane, blk, pg})
						if p < 0 || int64(p) >= g.TotalPages() {
							t.Fatalf("PPN %d out of range", p)
						}
						if seen[p] {
							t.Fatalf("PPN %d duplicated", p)
						}
						seen[p] = true
					}
				}
			}
		}
	}
	if int64(len(seen)) != g.TotalPages() {
		t.Fatalf("enumerated %d PPNs, want %d", len(seen), g.TotalPages())
	}
}

func TestValidAddrRejects(t *testing.T) {
	g := DefaultGeometry()
	bad := []Addr{
		{Chip: -1},
		{Chip: ChipID(g.NumChips())},
		{Die: g.DiesPerChip},
		{Plane: g.PlanesPerDie},
		{Block: g.BlocksPerPlane},
		{Page: g.PagesPerBlock},
	}
	for _, a := range bad {
		if g.ValidAddr(a) {
			t.Errorf("ValidAddr(%v) = true, want false", a)
		}
	}
}

func TestAddrString(t *testing.T) {
	a := Addr{Chip: 3, Die: 1, Plane: 2, Block: 17, Page: 9}
	if got, want := a.String(), "c3/d1/p2/b17/pg9"; got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}
