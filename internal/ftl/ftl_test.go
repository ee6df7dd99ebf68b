package ftl

import (
	"slices"
	"testing"
	"testing/quick"

	"sprinkler/internal/flash"
	"sprinkler/internal/req"
)

func tinyGeo() flash.Geometry {
	return flash.Geometry{
		Channels: 2, ChipsPerChan: 2, DiesPerChip: 2, PlanesPerDie: 2,
		BlocksPerPlane: 16, PagesPerBlock: 8, PageSize: 2048,
	}
}

func newTestFTL(t *testing.T) *FTL {
	t.Helper()
	f, err := New(DefaultConfig(tinyGeo()))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func writeMem(t *testing.T, f *FTL, lpn req.LPN) *req.Mem {
	t.Helper()
	io := req.NewIO(0, req.Write, lpn, 1, 0)
	if err := f.Preprocess(io.Mem[0]); err != nil {
		t.Fatalf("preprocess write lpn %d: %v", lpn, err)
	}
	return io.Mem[0]
}

// collectAll plans and commits one GC job on every plane under pressure,
// most urgent first, in one reused job as the device's untimed loops do.
// eraseFailed (nil: never) gives each commit's erase outcome; done (nil:
// never), asked after each commit, ends the pass early. A plane whose plan
// fails is skipped. It returns the jobs committed and the first PlanGC
// error.
func collectAll(f *FTL, eraseFailed func(*GCJob) bool, done func() bool) (int, error) {
	var job GCJob
	var first error
	n := 0
	for _, pi := range f.NeedGC(nil) {
		ok, err := f.PlanGC(pi, &job)
		if err != nil && first == nil {
			first = err
		}
		if !ok {
			continue
		}
		f.CommitGC(&job, eraseFailed != nil && eraseFailed(&job))
		n++
		if done != nil && done() {
			break
		}
	}
	return n, first
}

func readMem(t *testing.T, f *FTL, lpn req.LPN) *req.Mem {
	t.Helper()
	io := req.NewIO(0, req.Read, lpn, 1, 0)
	if err := f.Preprocess(io.Mem[0]); err != nil {
		t.Fatalf("preprocess read lpn %d: %v", lpn, err)
	}
	return io.Mem[0]
}

func TestNewValidates(t *testing.T) {
	if _, err := New(Config{Geo: flash.Geometry{}}); err == nil {
		t.Fatal("accepted invalid geometry")
	}
	cfg := DefaultConfig(tinyGeo())
	cfg.GCFreeTarget = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("accepted zero GCFreeTarget")
	}
}

func TestWriteMapsAndRemaps(t *testing.T) {
	f := newTestFTL(t)
	m1 := writeMem(t, f, 42)
	a1, ok := f.Lookup(42)
	if !ok || a1 != m1.Addr {
		t.Fatalf("lookup after write = %v/%v, want %v", a1, ok, m1.Addr)
	}
	m2 := writeMem(t, f, 42)
	if m2.Addr == m1.Addr {
		t.Fatal("overwrite reused the same physical page (in-place update)")
	}
	a2, _ := f.Lookup(42)
	if a2 != m2.Addr {
		t.Fatalf("lookup returns stale address %v, want %v", a2, m2.Addr)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReadMapsOnFirstTouch(t *testing.T) {
	f := newTestFTL(t)
	m := readMem(t, f, 7)
	if !f.geo.ValidAddr(m.Addr) {
		t.Fatalf("first-touch read got invalid addr %v", m.Addr)
	}
	// Second read must hit the same page.
	m2 := readMem(t, f, 7)
	if m2.Addr != m.Addr {
		t.Fatalf("re-read moved: %v -> %v", m.Addr, m2.Addr)
	}
}

func TestStripeSpreadsAcrossChips(t *testing.T) {
	f := newTestFTL(t)
	g := f.geo
	seen := map[flash.ChipID]bool{}
	for i := 0; i < g.NumChips(); i++ {
		m := writeMem(t, f, req.LPN(i))
		seen[m.Addr.Chip] = true
	}
	if len(seen) != g.NumChips() {
		t.Fatalf("first %d writes touched %d chips, want all %d",
			g.NumChips(), len(seen), g.NumChips())
	}
}

func TestStripeChannelFirst(t *testing.T) {
	f := newTestFTL(t)
	g := f.geo
	// Consecutive writes should land on different channels first (channel
	// striping before channel pipelining).
	m0 := writeMem(t, f, 0)
	m1 := writeMem(t, f, 1)
	if g.Channel(m0.Addr.Chip) == g.Channel(m1.Addr.Chip) {
		t.Fatalf("writes 0,1 on same channel: %v %v", m0.Addr, m1.Addr)
	}
}

func TestStripeAlignsPageOffsets(t *testing.T) {
	// Writing NumChips*PlanesPerDie pages in a row must leave sibling
	// planes with aligned write pointers so plane sharing stays possible.
	f := newTestFTL(t)
	g := f.geo
	n := g.NumChips() * g.PlanesPerDie
	addrs := make([]flash.Addr, 0, n)
	for i := 0; i < n; i++ {
		addrs = append(addrs, writeMem(t, f, req.LPN(i)).Addr)
	}
	byChip := map[flash.ChipID][]flash.Addr{}
	for _, a := range addrs {
		byChip[a.Chip] = append(byChip[a.Chip], a)
	}
	for chip, as := range byChip {
		if len(as) != g.PlanesPerDie {
			t.Fatalf("chip %d received %d writes, want %d", chip, len(as), g.PlanesPerDie)
		}
		for _, a := range as[1:] {
			if a.Page != as[0].Page || a.Block != as[0].Block {
				t.Fatalf("chip %d pages not aligned: %v vs %v", chip, as[0], a)
			}
			if a.Plane == as[0].Plane && a.Die == as[0].Die {
				t.Fatalf("chip %d reused die/plane: %v vs %v", chip, as[0], a)
			}
		}
	}
}

func TestAllocateExhaustsPlane(t *testing.T) {
	g := tinyGeo()
	cfg := DefaultConfig(g)
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Host writes may use everything except one reserved block per plane.
	planes := int64(g.NumChips() * g.DiesPerChip * g.PlanesPerDie)
	usable := g.TotalPages() - planes*int64(g.PagesPerBlock)
	for i := int64(0); i < usable; i++ {
		io := req.NewIO(0, req.Write, req.LPN(i), 1, 0)
		if err := f.Preprocess(io.Mem[0]); err != nil {
			t.Fatalf("write %d/%d failed: %v", i, usable, err)
		}
	}
	// Somewhere in the next plane-sweep the reserve must kick in.
	var failed bool
	for i := int64(0); i < planes; i++ {
		io := req.NewIO(0, req.Write, req.LPN(usable+i), 1, 0)
		if err := f.Preprocess(io.Mem[0]); err != nil {
			failed = true
			break
		}
	}
	if !failed {
		t.Fatal("allocation dipped into the per-plane GC reserve")
	}
}

func TestNeedGCOrdering(t *testing.T) {
	g := tinyGeo()
	f, err := New(Config{Geo: g, GCFreeTarget: 16}) // every plane trips immediately
	if err != nil {
		t.Fatal(err)
	}
	planes := g.NumChips() * g.DiesPerChip * g.PlanesPerDie
	need := f.NeedGC(nil)
	if len(need) != planes {
		t.Fatalf("with threshold 16 every plane (%d) should need GC, got %d", planes, len(need))
	}
	// Fewest free blocks first, then lowest index: the two planes that
	// took an active block for a write lead. NeedGC appends after dst.
	var used []int
	for lpn := range req.LPN(2) {
		a := writeMem(t, f, lpn).Addr
		used = append(used, f.planeIndex(a.Chip, a.Die, a.Plane))
	}
	want := append([]int{-1}, slices.Sorted(slices.Values(used))...)
	for i := range planes {
		if !slices.Contains(used, i) {
			want = append(want, i)
		}
	}
	if need = f.NeedGC([]int{-1}); !slices.Equal(need, want) {
		t.Fatalf("NeedGC = %v, want %v", need, want)
	}
}

func TestGCPlanAndCommit(t *testing.T) {
	g := tinyGeo()
	f, err := New(Config{Geo: g, GCFreeTarget: 1, MigrateCrossPlane: false})
	if err != nil {
		t.Fatal(err)
	}
	// Hammer a small LPN working set so old versions accumulate and the
	// free lists run down to the GC threshold (16 planes * 16 blocks * 8
	// pages = 2048 physical pages; 1900 writes leave ~1 free block/plane).
	for i := 0; i < 1900; i++ {
		writeMem(t, f, req.LPN(i%64))
	}
	var migrations int
	need := f.NeedGC(nil)
	if len(need) == 0 {
		t.Fatal("no plane under GC pressure after exhausting free blocks")
	}
	collected := 0
	var job GCJob
	for _, pi := range need {
		ok, err := f.PlanGC(pi, &job)
		if err != nil {
			t.Fatalf("PlanGC: %v", err)
		}
		if !ok {
			continue
		}
		applied := f.CommitGC(&job, false)
		if len(applied) != len(job.Migrations) {
			t.Fatalf("applied %d of %d planned migrations with no interference",
				len(applied), len(job.Migrations))
		}
		migrations += len(applied)
		collected++
	}
	if collected == 0 {
		t.Fatal("no plane was collectable after heavy overwrite")
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.GCErases == 0 || st.GCRuns == 0 {
		t.Fatalf("GC counters not advanced: %+v", st)
	}
	if migrations != int(st.GCWrites) {
		t.Fatalf("CommitGC applied %d migrations, stats say %d", migrations, st.GCWrites)
	}
}

func TestGCSkipsHostOverwrittenPages(t *testing.T) {
	g := tinyGeo()
	f, err := New(Config{Geo: g, GCFreeTarget: 1, MigrateCrossPlane: false})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 600; i++ {
		writeMem(t, f, req.LPN(i%64))
	}
	var job GCJob
	found := false
	for pi := range f.planes {
		ok, err := f.PlanGC(pi, &job)
		if err != nil {
			t.Fatal(err)
		}
		if ok && len(job.Migrations) > 0 {
			found = true
			break
		}
	}
	if !found {
		t.Skip("no job with live migrations; workload too clean")
	}
	// Host overwrites the first migrating LPN mid-flight.
	victimLPN := job.Migrations[0].LPN
	writeMem(t, f, victimLPN)
	applied := f.CommitGC(&job, false)
	for _, mg := range applied {
		if mg.LPN == victimLPN {
			t.Fatal("GC applied a migration for a host-overwritten LPN")
		}
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCommitGCTwicePanics(t *testing.T) {
	f := newTestFTL(t)
	for i := 0; i < 600; i++ {
		writeMem(t, f, req.LPN(i%64))
	}
	var job GCJob
	found := false
	for pi := range f.planes {
		ok, err := f.PlanGC(pi, &job)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no collectable block")
	}
	f.CommitGC(&job, false)
	defer func() {
		if recover() == nil {
			t.Fatal("double CommitGC did not panic")
		}
	}()
	f.CommitGC(&job, false)
}

func TestWriteAmplification(t *testing.T) {
	f := newTestFTL(t)
	if wa := f.WriteAmplification(); wa != 1 {
		t.Fatalf("WA with no writes = %v, want 1", wa)
	}
	for i := 0; i < 600; i++ {
		writeMem(t, f, req.LPN(i%64))
	}
	collectAll(f, nil, nil)
	if wa := f.WriteAmplification(); wa < 1 {
		t.Fatalf("WA = %v, want >= 1", wa)
	}
}

// Property: any interleaving of writes over a small LPN space keeps the
// mapping bijective and invariants intact.
func TestMappingInvariantProperty(t *testing.T) {
	prop := func(ops []uint16) bool {
		f, err := New(DefaultConfig(tinyGeo()))
		if err != nil {
			return false
		}
		for _, op := range ops {
			lpn := req.LPN(op % 128)
			kind := req.Write
			if op%3 == 0 {
				kind = req.Read
			}
			io := req.NewIO(0, kind, lpn, 1, 0)
			if err := f.Preprocess(io.Mem[0]); err != nil {
				return false
			}
		}
		return f.CheckInvariants() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: GC cycles never lose mappings — every LPN written remains
// readable at a consistent address after arbitrary GC activity.
func TestGCDurabilityProperty(t *testing.T) {
	prop := func(seed uint8) bool {
		f, err := New(Config{Geo: tinyGeo(), GCFreeTarget: 2, MigrateCrossPlane: seed%2 == 0})
		if err != nil {
			return false
		}
		live := map[req.LPN]bool{}
		for i := 0; i < 500; i++ {
			lpn := req.LPN((i*7 + int(seed)) % 96)
			io := req.NewIO(0, req.Write, lpn, 1, 0)
			if err := f.Preprocess(io.Mem[0]); err != nil {
				return false
			}
			live[lpn] = true
			if i%50 == 0 {
				collectAll(f, nil, nil)
			}
		}
		for lpn := range live {
			if _, ok := f.Lookup(lpn); !ok {
				return false
			}
		}
		return f.CheckInvariants() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsMappedPages(t *testing.T) {
	f := newTestFTL(t)
	for i := 0; i < 10; i++ {
		writeMem(t, f, req.LPN(i))
	}
	if got := f.Stats().MappedPages; got != 10 {
		t.Fatalf("MappedPages = %d, want 10", got)
	}
}

// TestCaptureStateSortsL2P: CaptureState lists the mappings by LPN, the
// overflow map's after the slice table's, whatever order the writes took.
func TestCaptureStateSortsL2P(t *testing.T) {
	f := newTestFTL(t)
	for _, lpn := range []req.LPN{overflowLPN + 9, 5, overflowLPN + 2, 1, overflowLPN + 5, 3, overflowLPN} {
		writeMem(t, f, lpn)
	}
	var lpns []int64
	for _, e := range f.CaptureState().L2P {
		lpns = append(lpns, e.LPN)
	}
	if want := []int64{1, 3, 5, int64(overflowLPN), int64(overflowLPN + 2), int64(overflowLPN + 5), int64(overflowLPN + 9)}; !slices.Equal(lpns, want) {
		t.Fatalf("captured LPNs %v, want %v", lpns, want)
	}
}
