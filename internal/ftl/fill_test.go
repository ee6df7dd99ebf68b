package ftl

import (
	"fmt"
	"slices"
	"testing"

	"sprinkler/internal/flash"
	"sprinkler/internal/req"
	"sprinkler/internal/sim"
)

// hostWrite makes one host write of lpn through Preprocess and, when its
// plane is out of space, collects garbage the way the device's emergency
// path does: each pressured plane in turn, retrying the write after every
// reclaimed block. It reports whether the first attempt failed.
func hostWrite(t *testing.T, f *FTL, lpn req.LPN) (failed bool) {
	t.Helper()
	m := req.NewIO(0, req.Write, lpn, 1, 0).Mem[0]
	if f.Preprocess(m) == nil {
		return false
	}
	placed := false
	retry := func() bool { placed = f.Preprocess(m) == nil; return placed }
	for attempt := 0; attempt < 16 && !placed; attempt++ {
		collectAll(f, nil, retry)
	}
	if placed {
		return true
	}
	t.Fatalf("write of lpn %d found no space", lpn)
	return true
}

// perWrite makes host writes of LPNs lpn0+from .. lpn0+n-1 one at a time
// and returns the offset of the first write that needed garbage
// collection, or n.
func perWrite(t *testing.T, f *FTL, lpn0 req.LPN, from, n int64) int64 {
	t.Helper()
	first := n
	for j := from; j < n; j++ {
		if hostWrite(t, f, lpn0+req.LPN(j)) && first == n {
			first = j
		}
	}
	return first
}

// sortedInts returns a sorted copy of s.
func sortedInts[T int | int64](s []T) []T {
	return slices.Sorted(slices.Values(s))
}

// requireSameFill asserts got holds want's state: everything
// requireSameFTL compares, the stripe position and, as sets, the Reset
// bookkeeping lists and the mapping tables' touched chunks (the only
// state whose order the fill may change; Reset and CopyFrom only iterate
// them). got must pass CheckInvariants.
func requireSameFill(t *testing.T, label string, got, want *FTL) {
	t.Helper()
	requireSameFTL(t, label, got, want)
	if got.stripePos != want.stripePos {
		t.Fatalf("%s: stripe position %d, per-write %d", label, got.stripePos, want.stripePos)
	}
	for _, l := range []struct {
		name      string
		got, want []int
	}{
		{"dirty blocks", got.dirtyBlocks, want.dirtyBlocks},
		{"dirty planes", got.dirtyPlanes, want.dirtyPlanes},
	} {
		if !slices.Equal(sortedInts(l.got), sortedInts(l.want)) {
			t.Fatalf("%s: %s %v, per-write %v", label, l.name, sortedInts(l.got), sortedInts(l.want))
		}
	}
	for i := range got.planes {
		if got.planes[i].dirty != want.planes[i].dirty || got.planes[i].freeLow != want.planes[i].freeLow {
			t.Fatalf("%s: plane %d recycle flags differ", label, i)
		}
	}
	for _, c := range []struct {
		name      string
		got, want *chunkStore
	}{
		{"L2P", &got.l2p.main.chunkStore, &want.l2p.main.chunkStore},
		{"reverse map", &got.p2l.chunkStore, &want.p2l.chunkStore},
	} {
		if !slices.Equal(sortedInts(c.got.used), sortedInts(c.want.used)) {
			t.Fatalf("%s: %s touched chunks differ", label, c.name)
		}
	}
	if err := got.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

// TestFillMatchesPerWrite holds Fill plus the per-write tail to the
// per-write path alone: two FTLs brought to the same state write the
// same sequential run, one through Fill and then one write at a time
// from the offset Fill returns, the other one write at a time throughout.
// The cases cover a fresh FTL, one whose LPNs are already mapped (a
// second preconditioning), a stripe cursor mid-period with partly written
// active blocks, every allocation scheme, and fills that run a plane out
// of space, where Fill must stop exactly at the write the per-write path
// first collects garbage for.
func TestFillMatchesPerWrite(t *testing.T) {
	type tc struct {
		name    string
		prepare func(t *testing.T, f *FTL) // run identically on both FTLs
		lpn0    req.LPN
		n       int64
		runsOut bool // the fill must stop short and the tail collect
	}
	geo := gcGeo() // 16 planes of 16 blocks of 64 pages
	total := geo.TotalPages()
	cases := []tc{
		{name: "fresh", n: total * 7 / 10},
		{name: "fresh-offset-lpns", lpn0: 3*tableChunkSize + 17, n: total / 2},
		{name: "nonzero-cursor", prepare: func(t *testing.T, f *FTL) {
			rng := sim.NewRand(5)
			for range 37 {
				hostWrite(t, f, req.LPN(rng.Int63n(total)))
			}
		}, lpn0: 40, n: total * 6 / 10},
		{name: "second-precondition", prepare: func(t *testing.T, f *FTL) {
			perWrite(t, f, 0, 0, total/2)
		}, n: total * 4 / 10},
		{name: "runs-out", prepare: func(t *testing.T, f *FTL) {
			perWrite(t, f, 0, 0, total/2)
		}, n: total * 3 / 4, runsOut: true},
		{name: "runs-out-aged", prepare: func(t *testing.T, f *FTL) {
			perWrite(t, f, 0, 0, total/2)
			rng := sim.NewRand(9)
			for range total / 4 {
				hostWrite(t, f, req.LPN(rng.Int63n(total/2)))
			}
		}, lpn0: 11, n: total * 3 / 5, runsOut: true},
		{name: "empty", n: 0},
	}
	for _, alloc := range []Allocation{AllocChannelFirst, AllocWayFirst, AllocPlaneFirst} {
		for _, c := range cases {
			label := fmt.Sprintf("%v/%s", alloc, c.name)
			t.Run(label, func(t *testing.T) {
				cfg := DefaultConfig(geo)
				cfg.Allocation = alloc
				fill, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				want, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if c.prepare != nil {
					c.prepare(t, fill)
					c.prepare(t, want)
					requireSameFill(t, "prepared", fill, want)
				}
				k := fill.Fill(c.lpn0, c.n)
				if stop := perWrite(t, fill, c.lpn0, k, c.n); k < c.n && stop != k {
					t.Fatalf("Fill stopped at %d, but the tail first collected at %d", k, stop)
				}
				first := perWrite(t, want, c.lpn0, 0, c.n)
				if k != first {
					t.Fatalf("Fill wrote %d of %d, the per-write path first collects at write %d", k, c.n, first)
				}
				if c.runsOut != (k < c.n) {
					t.Fatalf("test premise broken: Fill wrote %d of %d (runs out: %v)", k, c.n, c.runsOut)
				}
				if c.runsOut && want.stats.GCRuns == 0 {
					t.Fatal("test premise broken: the tail collected no garbage")
				}
				requireSameFill(t, label, fill, want)
			})
		}
	}
}

// TestStripeTableFollowsScheme pins the stripe table to stripePlane: the
// plane each write goes to is stripePlane of its cursor, across several
// periods, after RestoreState puts the cursor far into the stream, and
// after Reset switches the allocation scheme.
func TestStripeTableFollowsScheme(t *testing.T) {
	geo := flash.Geometry{
		Channels: 3, ChipsPerChan: 2, DiesPerChip: 2, PlanesPerDie: 4,
		BlocksPerPlane: 16, PagesPerBlock: 8, PageSize: 2048,
	}
	schemes := []Allocation{AllocChannelFirst, AllocWayFirst, AllocPlaneFirst}
	check := func(t *testing.T, f *FTL, a Allocation, writes int) {
		t.Helper()
		for range writes {
			n := f.cursor
			if got, want := f.stripeTarget(), stripePlane(geo, a, n); got != want {
				t.Fatalf("%v: write %d went to plane %d, stripePlane says %d", a, n, got, want)
			}
		}
	}
	f, err := New(DefaultConfig(geo))
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range schemes {
		cfg := DefaultConfig(geo)
		cfg.Allocation = a
		if err := f.Reset(cfg); err != nil {
			t.Fatal(err)
		}
		seen := map[int]bool{}
		for _, pi := range f.stripe {
			seen[pi] = true
		}
		if len(f.stripe) != len(f.planes) || len(seen) != len(f.planes) {
			t.Fatalf("%v: stripe table of %d entries covers %d of %d planes", a, len(f.stripe), len(seen), len(f.planes))
		}
		check(t, f, a, 3*len(f.planes)+5)

		st := f.CaptureState()
		st.Cursor = 1e12 + 7
		g, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.RestoreState(st); err != nil {
			t.Fatal(err)
		}
		check(t, g, a, 2*len(g.planes))
	}
}

// TestLookupDecodesLikeFromPPN holds Lookup's decoding (pageAt plus the
// plane's recorded location) to Geometry.FromPPN, written independently,
// on every page of a geometry with every dimension above one.
func TestLookupDecodesLikeFromPPN(t *testing.T) {
	geo := flash.Geometry{
		Channels: 3, ChipsPerChan: 2, DiesPerChip: 2, PlanesPerDie: 3,
		BlocksPerPlane: 5, PagesPerBlock: 7, PageSize: 2048,
	}
	f, err := New(DefaultConfig(geo))
	if err != nil {
		t.Fatal(err)
	}
	for p := range geo.TotalPages() {
		if got, want := f.addrOf(p), geo.FromPPN(flash.PPN(p)); got != want {
			t.Fatalf("ppn %d decodes to %v, FromPPN says %v", p, got, want)
		}
	}
}

// stripePlane is the reference for the stripe table: the plane index
// write allocation n goes to under allocation scheme a, worked out from n
// alone by arithmetic, for any n, not only within the first period.
func stripePlane(g flash.Geometry, a Allocation, n int64) int {
	var chip flash.ChipID
	var die, plane int
	switch a {
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
	return (int(chip)*g.DiesPerChip+die)*g.PlanesPerDie + plane
}
