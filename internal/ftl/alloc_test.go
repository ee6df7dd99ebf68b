package ftl

import (
	"testing"

	"sprinkler/internal/flash"
	"sprinkler/internal/req"
)

func allocFTL(t *testing.T, a Allocation) *FTL {
	t.Helper()
	cfg := DefaultConfig(tinyGeo())
	cfg.Allocation = a
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// firstAddrs writes n pages and returns their placements.
func firstAddrs(t *testing.T, f *FTL, n int) []flash.Addr {
	t.Helper()
	out := make([]flash.Addr, n)
	for i := range out {
		io := req.NewIO(0, req.Write, req.LPN(i), 1, 0)
		if err := f.Preprocess(io.Mem[0]); err != nil {
			t.Fatal(err)
		}
		out[i] = io.Mem[0].Addr
	}
	return out
}

func TestAllocChannelFirstAlternatesChannels(t *testing.T) {
	f := allocFTL(t, AllocChannelFirst)
	g := f.geo // 2 channels x 2 chips
	a := firstAddrs(t, f, 4)
	// Consecutive writes must alternate channel: ch0, ch1, ch0, ch1.
	if g.Channel(a[0].Chip) == g.Channel(a[1].Chip) {
		t.Fatalf("channel-first placed writes 0,1 on one channel: %v %v", a[0], a[1])
	}
	if a[0].Chip == a[2].Chip && g.ChipOffset(a[2].Chip) == g.ChipOffset(a[0].Chip) {
		// Third write should be the other chip offset on channel 0.
		t.Fatalf("channel-first did not advance chip offset: %v %v", a[0], a[2])
	}
}

func TestAllocWayFirstFillsChannelWays(t *testing.T) {
	f := allocFTL(t, AllocWayFirst)
	g := f.geo
	a := firstAddrs(t, f, 4)
	// Way-first: first two writes on the SAME channel, different chips.
	if g.Channel(a[0].Chip) != g.Channel(a[1].Chip) {
		t.Fatalf("way-first split writes 0,1 across channels: %v %v", a[0], a[1])
	}
	if a[0].Chip == a[1].Chip {
		t.Fatalf("way-first reused a chip: %v %v", a[0], a[1])
	}
	// Third write moves to the next channel.
	if g.Channel(a[2].Chip) == g.Channel(a[0].Chip) {
		t.Fatalf("way-first never advanced channel: %v", a[2])
	}
}

func TestAllocPlaneFirstStaysOnChip(t *testing.T) {
	f := allocFTL(t, AllocPlaneFirst)
	g := f.geo
	flp := g.MaxFLP() // 2 dies x 2 planes = 4
	a := firstAddrs(t, f, flp+1)
	for i := 1; i < flp; i++ {
		if a[i].Chip != a[0].Chip {
			t.Fatalf("plane-first left the chip early at %d: %v", i, a[i])
		}
	}
	// All flp placements on distinct (die, plane).
	seen := map[[2]int]bool{}
	for i := 0; i < flp; i++ {
		k := [2]int{a[i].Die, a[i].Plane}
		if seen[k] {
			t.Fatalf("plane-first reused die/plane: %v", a[i])
		}
		seen[k] = true
	}
	if a[flp].Chip == a[0].Chip {
		t.Fatalf("plane-first never advanced chip: %v", a[flp])
	}
}

func TestAllocationSchemesCoverAllPlanes(t *testing.T) {
	for _, scheme := range []Allocation{AllocChannelFirst, AllocWayFirst, AllocPlaneFirst} {
		f := allocFTL(t, scheme)
		g := f.geo
		n := g.NumChips() * g.DiesPerChip * g.PlanesPerDie
		seen := map[int]bool{}
		for _, a := range firstAddrs(t, f, n) {
			seen[f.planeIndex(a.Chip, a.Die, a.Plane)] = true
		}
		if len(seen) != n {
			t.Errorf("%v: one stripe sweep touched %d/%d planes", scheme, len(seen), n)
		}
		if err := f.CheckInvariants(); err != nil {
			t.Errorf("%v: %v", scheme, err)
		}
	}
}

func TestAllocationString(t *testing.T) {
	if AllocChannelFirst.String() != "channel-first" ||
		AllocWayFirst.String() != "way-first" ||
		AllocPlaneFirst.String() != "plane-first" {
		t.Fatal("allocation labels wrong")
	}
}
