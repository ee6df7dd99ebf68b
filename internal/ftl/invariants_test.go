package ftl

import (
	"testing"

	"sprinkler/internal/flash"
	"sprinkler/internal/req"
	"sprinkler/internal/sim"
)

// mappedFTL returns a tiny FTL with LPNs 0..7 written once each.
func mappedFTL(t *testing.T) *FTL {
	t.Helper()
	f := newTestFTL(t)
	for lpn := req.LPN(0); lpn < 8; lpn++ {
		writeMem(t, f, lpn)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return f
}

// ppnOf returns the PPN lpn is mapped to.
func ppnOf(t *testing.T, f *FTL, lpn req.LPN) int64 {
	t.Helper()
	a, ok := f.Lookup(lpn)
	if !ok {
		t.Fatalf("lpn %d unmapped", lpn)
	}
	return int64(f.geo.ToPPN(a))
}

// TestCheckInvariantsCatchesWrongReverseEntry: a valid page whose
// reverse entry names another LPN would send GC's migration to the wrong
// logical page.
func TestCheckInvariantsCatchesWrongReverseEntry(t *testing.T) {
	f := mappedFTL(t)
	f.p2l.set(ppnOf(t, f, 3), 5)
	if err := f.CheckInvariants(); err == nil {
		t.Fatal("wrong reverse entry on a valid page passed")
	}
}

// TestCheckInvariantsCatchesSharedPPN: two LPNs mapped to one PPN break
// the bijection, whether the map is tampered with in place or a snapshot
// asks for it.
func TestCheckInvariantsCatchesSharedPPN(t *testing.T) {
	f := mappedFTL(t)
	f.l2p.set(1, ppnOf(t, f, 0))
	if err := f.CheckInvariants(); err == nil {
		t.Fatal("two LPNs sharing a PPN passed")
	}

	f = mappedFTL(t)
	st := f.CaptureState()
	st.L2P[1].PPN = st.L2P[0].PPN
	fresh := newTestFTL(t)
	if err := fresh.RestoreState(st); err == nil {
		t.Fatal("restored a snapshot mapping two LPNs to one PPN")
	}
}

// TestCheckInvariantsCatchesUnmarkedMapping: a mapped page whose valid
// bit (and count) was dropped would be erased under live data.
func TestCheckInvariantsCatchesUnmarkedMapping(t *testing.T) {
	f := mappedFTL(t)
	a := f.geo.FromPPN(flash.PPN(ppnOf(t, f, 2)))
	ps := f.planes[f.planeIndex(a.Chip, a.Die, a.Plane)]
	ps.valid(a.Block).Clear(a.Page)
	ps.blocks[a.Block].validCount--
	if err := f.CheckInvariants(); err == nil {
		t.Fatal("mapped page without its valid bit passed")
	}
}

// TestCheckInvariantsCatchesUnmappedValidPage: a valid bit no mapping
// accounts for (here an overwritten page marked valid again, its count
// kept in step with the bitmap) would make GC migrate dead data under a
// stale owner. Only the count of mappings against valid pages sees it.
func TestCheckInvariantsCatchesUnmappedValidPage(t *testing.T) {
	f := newTestFTL(t)
	a := writeMem(t, f, 0).Addr
	writeMem(t, f, 0)
	ps := f.planes[f.planeIndex(a.Chip, a.Die, a.Plane)]
	ps.valid(a.Block).Set(a.Page)
	ps.blocks[a.Block].validCount++
	if err := f.CheckInvariants(); err == nil {
		t.Fatal("valid page with no mapping passed")
	}
}

// gcGeo spans four reverse-map chunks (16,384 pages) on 16 planes of 16
// blocks, small enough for random writes to drive every plane into GC.
func gcGeo() flash.Geometry {
	return flash.Geometry{
		Channels: 2, ChipsPerChan: 2, DiesPerChip: 2, PlanesPerDie: 2,
		BlocksPerPlane: 16, PagesPerBlock: 64, PageSize: 2048,
	}
}

// TestReverseMapStaleEntriesNeverLeak: Reset recycles the reverse map's
// chunks without clearing them, and invalidation leaves entries behind,
// so after a first run the map is full of LPNs that no longer own their
// pages. A second run that forces GC must still plan every migration
// under the LPN that owns its source page, and the invariants must hold
// after every commit — including commits that skip a migration because
// the host overwrote its LPN while the job was in flight.
func TestReverseMapStaleEntriesNeverLeak(t *testing.T) {
	cfg := DefaultConfig(gcGeo())
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	span := f.geo.TotalPages() * 6 / 10
	var jobs, moves, skipped int
	var job GCJob
	run := func(seed uint64, writes int) {
		rng := sim.NewRand(seed)
		write := func(lpn req.LPN) error {
			return f.Preprocess(req.NewIO(0, req.Write, lpn, 1, 0).Mem[0])
		}
		for i := 0; i < writes; i++ {
			lpn := req.LPN(rng.Int63n(span))
			for attempt := 0; write(lpn) != nil; attempt++ {
				if attempt == 64 {
					t.Fatalf("seed %d write %d: no reclaimable space", seed, i)
				}
				for _, pi := range f.NeedGC(nil) {
					if ok, err := f.PlanGC(pi, &job); err != nil {
						t.Fatal(err)
					} else if !ok {
						continue
					}
					for _, mg := range job.Migrations {
						if mg.LPN < 0 {
							t.Fatalf("seed %d: migration from %v has lpn %d", seed, mg.Src, mg.LPN)
						}
						if cur, ok := f.Lookup(mg.LPN); !ok || cur != mg.Src {
							t.Fatalf("seed %d: migration of lpn %d from %v, but it is mapped at %v (%v)", seed, mg.LPN, mg.Src, cur, ok)
						}
					}
					if len(job.Migrations) > 0 && rng.Intn(4) == 0 {
						// A host overwrite mid-job strands its
						// pre-allocated destination with a stale entry.
						_ = write(job.Migrations[0].LPN)
					}
					applied := f.CommitGC(&job, false)
					jobs++
					moves += len(applied)
					skipped += len(job.Migrations) - len(applied)
					if err := f.CheckInvariants(); err != nil {
						t.Fatalf("seed %d after GC commit %d: %v", seed, jobs, err)
					}
				}
			}
		}
	}
	run(1, 30_000)
	footprint := f.p2l.footprint()
	if err := f.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	jobs, moves, skipped = 0, 0, 0
	run(2, 30_000)
	if jobs == 0 || moves == 0 || skipped == 0 {
		t.Fatalf("second run: %d GC jobs, %d moves, %d skipped; want all > 0", jobs, moves, skipped)
	}
	if got := f.p2l.footprint(); got != footprint {
		t.Fatalf("reverse map footprint %d -> %d entries: the second run did not reuse the first run's chunks", footprint, got)
	}
}
