package ftl

import (
	"reflect"
	"testing"

	"sprinkler/internal/flash"
	"sprinkler/internal/req"
	"sprinkler/internal/sim"
)

// overflowLPN is far past every test table's ceiling, so its mapping
// lives in the L2P overflow map.
const overflowLPN = req.LPN(1 << 40)

// requireSameFTL asserts got holds want's state: the captured
// state, every bitmap word, every block's valid count, the reverse entry
// of every valid page, the mapping count, the pools, the cursor and the
// counters.
func requireSameFTL(t *testing.T, label string, got, want *FTL) {
	t.Helper()
	if !reflect.DeepEqual(got.CaptureState(), want.CaptureState()) {
		t.Fatalf("%s: captured state differs from the reference's", label)
	}
	if got.l2p.len() != want.l2p.len() {
		t.Fatalf("%s: %d mappings, the reference has %d", label, got.l2p.len(), want.l2p.len())
	}
	if got.cursor != want.cursor || got.stats != want.stats {
		t.Fatalf("%s: cursor %d stats %+v, the reference has %d %+v", label, got.cursor, got.stats, want.cursor, want.stats)
	}
	for i, ps := range got.planes {
		in := want.planes[i]
		if !reflect.DeepEqual(ps.bits, in.bits) {
			t.Fatalf("%s: plane %d bitmaps differ", label, i)
		}
		if !reflect.DeepEqual(ps.free, in.free) || !reflect.DeepEqual(ps.spare, in.spare) || ps.active != in.active {
			t.Fatalf("%s: plane %d pools differ", label, i)
		}
		loc := got.locs[i]
		chip, die, plane := loc.chip, loc.die, loc.plane
		for b := range ps.blocks {
			if ps.blocks[b].validCount != in.blocks[b].validCount {
				t.Fatalf("%s: plane %d block %d validCount %d, the reference has %d",
					label, i, b, ps.blocks[b].validCount, in.blocks[b].validCount)
			}
			valid := ps.valid(b)
			for pg := 0; pg < got.geo.PagesPerBlock; pg++ {
				if !valid.Get(pg) {
					continue
				}
				p := int64(got.geo.ToPPN(flash.Addr{Chip: chip, Die: die, Plane: plane, Block: b, Page: pg}))
				if got.p2l.get(p) != want.p2l.get(p) {
					t.Fatalf("%s: valid ppn %d reverse entry %d, the reference has %d", label, p, got.p2l.get(p), want.p2l.get(p))
				}
			}
		}
	}
}

// TestCopyFromMatchesRestore copies a restored image into a fresh FTL and
// into one that was Reset after a run of its own, which left stale chunks
// in both mapping tables and an overflow-map LPN. Each copy must equal
// RestoreState of the same State, pass CheckInvariants, and Reset to a
// fresh FTL. The image is aged with GC, retirements into the spare pool
// and an overflow-map LPN of its own.
func TestCopyFromMatchesRestore(t *testing.T) {
	cfg := DefaultConfig(gcGeo())
	cfg.SpareBlockFrac = 0.125
	src, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	span := src.geo.TotalPages() * 6 / 10
	driveRandom(src, sim.NewRand(3), span, 20_000, 0.05)
	writeMem(t, src, overflowLPN)
	st := src.CaptureState()
	if st.GCErases == 0 || st.RetiredBlocks == 0 || st.Degraded {
		t.Fatalf("test premise broken: %d erases, %d retired, degraded %v", st.GCErases, st.RetiredBlocks, st.Degraded)
	}

	restored := func() *FTL {
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.RestoreState(st); err != nil {
			t.Fatal(err)
		}
		return f
	}
	img, want := restored(), restored()

	fresh, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recycled, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// LPNs shifted past the image's keep this run in other L2P chunks.
	rng := sim.NewRand(4)
	for i := 0; i < 3000; i++ {
		writeMem(t, recycled, req.LPN(3*tableChunkSize+rng.Int63n(span/4)))
	}
	writeMem(t, recycled, overflowLPN+1)
	if err := recycled.Reset(cfg); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		label string
		f     *FTL
	}{{"fresh", fresh}, {"recycled", recycled}} {
		if err := tc.f.CopyFrom(img); err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		requireSameFTL(t, tc.label, tc.f, want)
		if err := tc.f.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		if _, ok := tc.f.Lookup(overflowLPN + 1); ok {
			t.Fatalf("%s: the recycled run's overflow LPN is still mapped", tc.label)
		}
		if err := tc.f.Reset(cfg); err != nil {
			t.Fatal(err)
		}
		requireMatchesNew(t, tc.label+" after reset", tc.f, cfg)
	}
	// Copying read the image only.
	requireSameFTL(t, "image", img, want)

	other := cfg
	other.GCFreeTarget++
	f, err := New(other)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.CopyFrom(img); err == nil {
		t.Fatal("copied an image built on another config")
	}
}

// benchAgedState ages a 64-chip FTL (the default geometry cut to 16
// blocks per plane, 1M pages) the way preconditioning does — a
// sequential fill of 80% of the pages, then random overwrites of a
// quarter of them with GC — and captures it.
func benchAgedState(b *testing.B) (Config, State) {
	g := flash.DefaultGeometry()
	g.BlocksPerPlane = 16
	cfg := DefaultConfig(g)
	f, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	logical := g.TotalPages() * 8 / 10
	io := req.NewIO(0, req.Write, 0, 1, 0)
	for lpn := int64(0); lpn < logical; lpn++ {
		io.Reset(0, req.Write, req.LPN(lpn), 1, 0)
		if err := f.Preprocess(io.Mem[0]); err != nil {
			b.Fatal(err)
		}
	}
	driveRandom(f, sim.NewRand(1), logical, int(logical/4), 0)
	if err := f.CheckInvariants(); err != nil {
		b.Fatal(err)
	}
	return cfg, f.CaptureState()
}

// BenchmarkFTLRestore prices the one validated restore a snapshot pays:
// New plus RestoreState (bounds checks and CheckInvariants) of an aged
// 64-chip FTL.
func BenchmarkFTLRestore(b *testing.B) {
	cfg, st := benchAgedState(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := f.RestoreState(st); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFTLCopy prices every hydration's FTL work after the first:
// CopyFrom of BenchmarkFTLRestore's restored image into a warmed FTL,
// one that has held two copies already, so its tables and their spare
// stacks have grown and the copy allocates nothing.
func BenchmarkFTLCopy(b *testing.B) {
	cfg, st := benchAgedState(b)
	img, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := img.RestoreState(st); err != nil {
		b.Fatal(err)
	}
	f, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for range 2 {
		if err := f.CopyFrom(img); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.CopyFrom(img); err != nil {
			b.Fatal(err)
		}
	}
}
