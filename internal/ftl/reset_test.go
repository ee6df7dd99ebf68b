package ftl

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"sprinkler/internal/flash"
	"sprinkler/internal/req"
	"sprinkler/internal/sim"
)

// randomResetConfig draws a per-run configuration on tinyGeo, varying
// every knob Reset accepts — including the spare-pool size and the
// logical-space hint, which select Reset's full pass and a table rebuild.
func randomResetConfig(rng *sim.Rand) Config {
	cfg := DefaultConfig(tinyGeo())
	cfg.GCFreeTarget = 1 + rng.Intn(3)
	cfg.MigrateCrossPlane = rng.Intn(2) == 0
	cfg.Allocation = Allocation(rng.Intn(3))
	cfg.SpareBlockFrac = []float64{0, 0.125, 0.25}[rng.Intn(3)]
	cfg.LogicalPages = []int64{0, 1200, 5000}[rng.Intn(3)]
	return cfg
}

// driveRandom issues random single-page host writes over [0, logical),
// collecting garbage whenever allocation fails; chip-level erase failures
// are injected at failP so spares drain toward degraded mode. It stops
// early once the FTL degrades or runs out of space it can reclaim.
func driveRandom(f *FTL, rng *sim.Rand, logical int64, writes int, failP float64) {
	for i := 0; i < writes && !f.Degraded(); i++ {
		m := req.NewIO(0, req.Write, req.LPN(rng.Int63n(logical)), 1, 0).Mem[0]
		for attempt := 0; f.Preprocess(m) != nil; attempt++ {
			if attempt == 64 || !collectOnce(f, rng, failP) {
				return
			}
		}
	}
}

// collectOnce runs one GC pass over every plane under pressure, reporting
// whether any block was reclaimed.
func collectOnce(f *FTL, rng *sim.Rand, failP float64) bool {
	n, err := collectAll(f, func(*GCJob) bool { return rng.Float64() < failP }, nil)
	return err == nil && n > 0
}

// requireMatchesNew asserts f is indistinguishable from New(cfg): the
// captured state, the raw block records (recycle flags included) and the
// recycle bookkeeping must all match, and the invariants must hold.
func requireMatchesNew(t *testing.T, label string, f *FTL, cfg Config) {
	t.Helper()
	fresh, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if got, want := f.CaptureState(), fresh.CaptureState(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: captured state differs from New", label)
	}
	for i, ps := range f.planes {
		if !reflect.DeepEqual(ps.blocks, fresh.planes[i].blocks) {
			t.Fatalf("%s: plane %d block records differ from New", label, i)
		}
		if ps.dirty {
			t.Fatalf("%s: plane %d still flagged dirty", label, i)
		}
	}
	if !slices.Equal(f.stripe, fresh.stripe) || f.stripePos != fresh.stripePos {
		t.Fatalf("%s: stripe table or position differs from New", label)
	}
	if len(f.dirtyBlocks) != 0 || len(f.dirtyPlanes) != 0 {
		t.Fatalf("%s: %d dirty blocks, %d dirty planes listed", label, len(f.dirtyBlocks), len(f.dirtyPlanes))
	}
	if f.l2p.len() != 0 {
		t.Fatalf("%s: mapping table holds %d entries", label, f.l2p.len())
	}
	// The reverse map keeps stale entries; what must be empty is the set
	// of valid pages that would let anything read them.
	var valid int32
	for i, ps := range f.planes {
		for b := range ps.blocks {
			valid += ps.blocks[b].validCount
		}
		for w, word := range ps.bits {
			if word != 0 {
				t.Fatalf("%s: plane %d bitmap word %d is %#x", label, i, w, word)
			}
		}
	}
	if valid != 0 {
		t.Fatalf("%s: %d pages still counted valid", label, valid)
	}
}

// TestFTLResetMatchesNew drives one FTL through randomized runs — host
// writes, GC with injected erase failures, spare retirement into degraded
// mode, warm-state restores, spare-fraction and logical-space changes —
// and requires every Reset to leave it equal to a freshly built FTL, on
// both the dirty-tracked path and the full-pass fallback.
func TestFTLResetMatchesNew(t *testing.T) {
	rng := sim.NewRand(2024)
	cfg := randomResetConfig(rng)
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var prev *State
	var fastResets, fullResets, restores, degraded, erases, retired int
	for round := 0; round < 60; round++ {
		logical := cfg.LogicalPages
		if logical == 0 {
			logical = f.geo.TotalPages()
		}
		if prev != nil && rng.Intn(4) == 0 {
			if err := f.RestoreState(*prev); err != nil {
				t.Fatalf("round %d: restore: %v", round, err)
			}
			restores++
		}
		// Short runs leave most planes clean, so a spare-count change must
		// still reach them; long runs age the drive into GC and retirement.
		writes := 400 + rng.Intn(2000)
		if rng.Intn(3) == 0 {
			writes = rng.Intn(8)
		}
		driveRandom(f, rng, logical*6/10, writes, []float64{0, 0.2, 0.6}[rng.Intn(3)])
		if err := f.CheckInvariants(); err != nil {
			t.Fatalf("round %d: after run: %v", round, err)
		}
		st := f.CaptureState()
		prev = &st
		if st.Degraded {
			degraded++
		}
		erases += int(st.GCErases)
		retired += int(st.RetiredBlocks)

		next := randomResetConfig(rng)
		nSpare := spareBlocks(next)
		if f.restored || nSpare != f.nSpare {
			fullResets++
		} else {
			fastResets++
		}
		if err := f.Reset(next); err != nil {
			t.Fatalf("round %d: reset: %v", round, err)
		}
		cfg = next
		requireMatchesNew(t, "after reset", f, cfg)
	}
	if fastResets == 0 || fullResets == 0 || restores == 0 || degraded == 0 || erases == 0 || retired == 0 {
		t.Fatalf("coverage gap: fast %d full %d restores %d degraded %d erases %d retired %d",
			fastResets, fullResets, restores, degraded, erases, retired)
	}
}

// TestRestoreStateRejectsOversizedErases: per-block erase counts are
// stored as int32, so a snapshot claiming more must be refused rather
// than silently truncated.
func TestRestoreStateRejectsOversizedErases(t *testing.T) {
	f := newTestFTL(t)
	st := f.CaptureState()
	st.Planes[1].Blocks[3].Erases = 1 << 40
	if err := f.RestoreState(st); err == nil {
		t.Fatal("accepted an erase count past int32")
	}
}

// TestRestoreStateRejectsNegativeCursor: a negative write cursor would
// index the stripe table below zero on the first host write.
func TestRestoreStateRejectsNegativeCursor(t *testing.T) {
	f := newTestFTL(t)
	writeMem(t, f, 3)
	st := f.CaptureState()
	st.Cursor = -7
	g := newTestFTL(t)
	if err := g.RestoreState(st); err == nil || err.Error() != "ftl: snapshot write cursor -7 is negative" {
		t.Fatalf("RestoreState of a negative cursor: %v", err)
	}
}

// TestRestoreStateRejectsBrokenActiveBlock: the allocator writes the
// active block from its write pointer until the block is full, then
// pops a free one. A snapshot whose active block was written through but
// not marked full, or is also on the free list, or is bad, would have a
// later host write take a page past a block's end (an index panic when
// the block's pages fill whole bitmap words) or write into a retired
// block, so RestoreState refuses each.
func TestRestoreStateRejectsBrokenActiveBlock(t *testing.T) {
	cfg := DefaultConfig(gcGeo())
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	writeMem(t, f, 3)
	for _, tc := range []struct {
		name string
		edit func(ps *PlaneState)
		want string
	}{
		{"written through, not full", func(ps *PlaneState) {
			blk := &ps.Blocks[ps.Active]
			blk.Written, blk.Full = f.geo.PagesPerBlock, false
		}, "not marked full"},
		{"also free", func(ps *PlaneState) {
			ps.Free = append(ps.Free, ps.Active)
			ps.Blocks[ps.Active] = BlockState{}
		}, "also free, spare or bad"},
		{"bad", func(ps *PlaneState) {
			ps.Blocks[ps.Active] = BlockState{Full: true, Bad: true}
		}, "also free, spare or bad"},
	} {
		st := f.CaptureState()
		pi := slices.IndexFunc(st.Planes, func(ps PlaneState) bool { return ps.Active >= 0 })
		st.L2P = nil // the mapped page sits in the edited block
		tc.edit(&st.Planes[pi])
		g, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.RestoreState(st); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: RestoreState: %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// BenchmarkFTLReset prices recycling a default-geometry (§5.1, 64-chip)
// FTL after one small run: 64 host write requests of 8 pages each, the
// shape of a short served session. Only Reset is timed.
func BenchmarkFTLReset(b *testing.B) {
	cfg := DefaultConfig(flash.DefaultGeometry())
	f, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	rng := sim.NewRand(1)
	logical := f.geo.TotalPages()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for r := 0; r < 64; r++ {
			io := req.NewIO(0, req.Write, req.LPN(rng.Int63n(logical-8)), 8, 0)
			for _, m := range io.Mem {
				if err := f.Preprocess(m); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StartTimer()
		if err := f.Reset(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFTLFirstTouch prices the writes of a short session on a
// recycled default-geometry FTL: BenchmarkFTLReset's 64 host write
// requests of 8 pages, issued right after a Reset. Only the writes are
// timed, so the row measures the mapping tables' first touch of every
// chunk the session stripes across.
func BenchmarkFTLFirstTouch(b *testing.B) {
	cfg := DefaultConfig(flash.DefaultGeometry())
	f, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	rng := sim.NewRand(1)
	logical := f.geo.TotalPages()
	ios := make([]*req.IO, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := f.Reset(cfg); err != nil {
			b.Fatal(err)
		}
		for r := range ios {
			ios[r] = req.NewIO(0, req.Write, req.LPN(rng.Int63n(logical-8)), 8, 0)
		}
		b.StartTimer()
		for _, io := range ios {
			for _, m := range io.Mem {
				if err := f.Preprocess(m); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}
