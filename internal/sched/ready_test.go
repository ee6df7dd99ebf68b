package sched

import (
	"slices"
	"testing"

	"sprinkler/internal/flash"
	"sprinkler/internal/req"
	"sprinkler/internal/sim"
)

// TestReadyIndexLiveChips drives seeded random Add/Remove/Readdress/Reset
// sequences through a 128-chip index (two bitset words, 8 channels of 16
// chips) and checks after every operation that LiveChips lists exactly
// the chips that hold an indexed request, ordered by (offset, channel). Adds favour a few
// hot chips so their lists pass 64 entries and Remove compacts them.
func TestReadyIndexLiveChips(t *testing.T) {
	g := flash.Geometry{
		Channels: 8, ChipsPerChan: 16, DiesPerChip: 2, PlanesPerDie: 2,
		BlocksPerPlane: 8, PagesPerBlock: 8, PageSize: 2048,
	}
	n := g.NumChips()
	x := NewReadyIndex(g)
	rng := sim.NewRand(11)
	var indexed []*req.Mem
	var got, want []flash.ChipID
	compacted := false
	for op := 0; op < 20000; op++ {
		switch r := rng.Intn(100); {
		case r < 55:
			c := flash.ChipID(rng.Intn(n))
			if rng.Bool(0.5) {
				c = flash.ChipID(rng.Intn(3) * 37)
			}
			m := makeIO(int64(op), req.Read, c).Mem[0]
			x.Add(m)
			indexed = append(indexed, m)
		case r < 97:
			if len(indexed) == 0 {
				continue
			}
			i := rng.Intn(len(indexed))
			m := indexed[i]
			before := len(x.List(m.Addr.Chip))
			x.Remove(m)
			if len(x.List(m.Addr.Chip)) < before {
				compacted = true
			}
			indexed[i] = indexed[len(indexed)-1]
			indexed = indexed[:len(indexed)-1]
		case r < 99:
			if len(indexed) == 0 {
				continue
			}
			m := indexed[rng.Intn(len(indexed))]
			x.Readdress(m, flash.Addr{Chip: m.Addr.Chip, Die: 1, Plane: 1, Block: 3, Page: 5})
		default:
			x.Reset()
			indexed = indexed[:0]
		}

		want = want[:0]
		for _, m := range indexed {
			if !slices.Contains(want, m.Addr.Chip) {
				want = append(want, m.Addr.Chip)
			}
		}
		slices.SortFunc(want, func(a, b flash.ChipID) int {
			if oa, ob := g.ChipOffset(a), g.ChipOffset(b); oa != ob {
				return oa - ob
			}
			return g.Channel(a) - g.Channel(b)
		})
		got = x.LiveChips(got[:0])
		if !slices.Equal(got, want) {
			t.Fatalf("op %d: LiveChips = %v, want %v", op, got, want)
		}
	}
	if !compacted {
		t.Fatal("no list grew past 64 entries and compacted; the sequence misses compactList")
	}
}
