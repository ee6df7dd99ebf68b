package core

import (
	"testing"

	"sprinkler/internal/flash"
	"sprinkler/internal/nvmhc"
	"sprinkler/internal/req"
	"sprinkler/internal/sched"
)

type fakeFabric struct {
	geo flash.Geometry
	out []int             // outstanding requests per chip
	rx  *sched.ReadyIndex // nil exercises the queue-scan fallback
}

func newFakeFabric() *fakeFabric {
	geo := flash.Geometry{
		Channels: 2, ChipsPerChan: 2, DiesPerChip: 2, PlanesPerDie: 2,
		BlocksPerPlane: 64, PagesPerBlock: 16, PageSize: 2048,
	}
	return &fakeFabric{geo: geo, out: make([]int, geo.NumChips())}
}

func (f *fakeFabric) Geo() flash.Geometry            { return f.geo }
func (f *fakeFabric) Outstanding(c flash.ChipID) int { return f.out[c] }
func (f *fakeFabric) Ready() *sched.ReadyIndex       { return f.rx }

func ioAt(id int64, kind req.Kind, addrs ...flash.Addr) *req.IO {
	io := req.NewIO(id, kind, req.LPN(id*1000), len(addrs), 0)
	for i, a := range addrs {
		io.Mem[i].Addr = a
	}
	return io
}

func TestSPK2TraversalOrder(t *testing.T) {
	// Chips: channel*2+offset on a 2x2 layout. RIOS must visit offset 0
	// across channels (chips 0, 2) before offset 1 (chips 1, 3).
	fab := newFakeFabric()
	q := nvmhc.NewQueue(8)
	q.Enqueue(0, ioAt(1, req.Read,
		flash.Addr{Chip: 3, Block: 1},
		flash.Addr{Chip: 1, Block: 2},
		flash.Addr{Chip: 2, Block: 3},
		flash.Addr{Chip: 0, Block: 4},
	))
	s := NewSPK2()
	got := s.Select(0, q, fab)
	if len(got) != 4 {
		t.Fatalf("selected %d, want 4", len(got))
	}
	wantChips := []flash.ChipID{0, 2, 1, 3}
	for i, w := range wantChips {
		if got[i].Addr.Chip != w {
			order := make([]flash.ChipID, len(got))
			for j := range got {
				order[j] = got[j].Addr.Chip
			}
			t.Fatalf("traversal order %v, want %v", order, wantChips)
		}
	}
}

func TestSPK2CrossesIOBoundaries(t *testing.T) {
	// Two I/Os target the same chip; RIOS composes per chip, so both I/Os'
	// requests are selected regardless of order — no head-of-line block.
	fab := newFakeFabric()
	fab.out[0] = 2 // chip 0 saturated
	q := nvmhc.NewQueue(8)
	q.Enqueue(0, ioAt(1, req.Read, flash.Addr{Chip: 0}, flash.Addr{Chip: 1}))
	q.Enqueue(0, ioAt(2, req.Read, flash.Addr{Chip: 2, Block: 5}))
	s := NewSPK2()
	got := s.Select(0, q, fab)
	ios := map[int64]bool{}
	for _, m := range got {
		ios[m.IO.ID] = true
		if m.Addr.Chip == 0 {
			t.Fatal("selected request for saturated chip")
		}
	}
	if !ios[1] || !ios[2] {
		t.Fatalf("RIOS failed to span I/O boundaries: %v", ios)
	}
}

func TestSPK3OvercommitDepth(t *testing.T) {
	fab := newFakeFabric()
	q := nvmhc.NewQueue(8)
	// 6 requests to chip 0 from different I/Os, all coalescable-ish.
	for id := int64(1); id <= 6; id++ {
		q.Enqueue(0, ioAt(id, req.Read, flash.Addr{
			Chip: 0, Die: int(id) % 2, Plane: int(id/2) % 2, Block: int(id), Page: int(id),
		}))
	}
	s3 := NewSPK3()
	if got := len(s3.Select(0, q, fab)); got != 6 {
		t.Fatalf("SPK3 over-committed %d, want 6 (slots=16)", got)
	}
	s2 := NewSPK2()
	if got := len(s2.Select(0, q, fab)); got != 2 {
		t.Fatalf("SPK2 committed %d, want 2 (slots=2)", got)
	}
}

func TestFAROPriorityPrefersDeepGroups(t *testing.T) {
	g := newFakeFabric().geo
	// Group A: 4 requests forming a PAL3 transaction (2 dies x 2 planes,
	// same page/block offsets per die). Group B: a lone request that
	// conflicts with A (same die/plane as one member, different page).
	lone := ioAt(1, req.Read, flash.Addr{Chip: 0, Die: 0, Plane: 0, Block: 9, Page: 9}).Mem[0]
	var deep []*req.Mem
	io3 := req.NewIO(3, req.Read, 3000, 4, 0)
	addrs := []flash.Addr{
		{Chip: 0, Die: 0, Plane: 0, Block: 5, Page: 7},
		{Chip: 0, Die: 0, Plane: 1, Block: 5, Page: 7},
		{Chip: 0, Die: 1, Plane: 0, Block: 6, Page: 3},
		{Chip: 0, Die: 1, Plane: 1, Block: 6, Page: 3},
	}
	for i, a := range addrs {
		io3.Mem[i].Addr = a
		deep = append(deep, io3.Mem[i])
	}
	// Arrival order: lone first — FIFO would commit it first.
	cands := append([]*req.Mem{lone}, deep...)
	got := NewSPK3().faroOrder(g, cands, len(cands))
	if got[0] == lone {
		t.Fatal("FARO kept FIFO order; deep group should outrank the lone request")
	}
	for i := 0; i < 4; i++ {
		if got[i].IO.ID != 3 {
			t.Fatalf("position %d not from the deep group", i)
		}
	}
	if got[4] != lone {
		t.Fatal("lone request should come last")
	}
}

// TestBuildGroup32Planes checks FARO's group depth at the widest die
// Geometry.Validate allows: requests on the top plane conflict with each
// other like any others, and one request per plane fills the die.
func TestBuildGroup32Planes(t *testing.T) {
	g := flash.Geometry{
		Channels: 1, ChipsPerChan: 1, DiesPerChip: 1, PlanesPerDie: flash.MaxPlanesPerDie,
		BlocksPerPlane: 4, PagesPerBlock: 4, PageSize: 2048,
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	top := flash.Addr{Plane: flash.MaxPlanesPerDie - 1, Block: 2, Page: 3}
	io := ioAt(1, req.Read, top, top, top)
	s := NewSPK3()
	if depth, _ := s.buildGroup(g, io.Mem, 0); depth != 1 {
		t.Fatalf("three requests on plane %d grouped %d deep, want 1", top.Plane, depth)
	}
	var addrs []flash.Addr
	for p := flash.MaxPlanesPerDie - 1; p >= 0; p-- {
		addrs = append(addrs, flash.Addr{Plane: p, Block: 2, Page: 3})
	}
	addrs = append(addrs, top)
	io = ioAt(2, req.Read, addrs...)
	if depth, conn := s.buildGroup(g, io.Mem, 0); depth != flash.MaxPlanesPerDie || conn != flash.MaxPlanesPerDie {
		t.Fatalf("one request per plane grouped (%d, %d), want (%d, %d)", depth, conn, flash.MaxPlanesPerDie, flash.MaxPlanesPerDie)
	}
}

func TestFAROConnectivityBreaksTies(t *testing.T) {
	g := newFakeFabric().geo
	// Two equal-depth groups (2 members each). Group X's members belong to
	// the same I/O (connectivity 2); group Y's to different I/Os
	// (connectivity 1). X must be committed first even though Y arrived
	// earlier.
	yo1 := ioAt(1, req.Read, flash.Addr{Chip: 0, Die: 0, Plane: 0, Block: 1, Page: 1})
	yo2 := ioAt(2, req.Read, flash.Addr{Chip: 0, Die: 0, Plane: 1, Block: 1, Page: 1})
	x := req.NewIO(3, req.Read, 3000, 2, 0)
	x.Mem[0].Addr = flash.Addr{Chip: 0, Die: 1, Plane: 0, Block: 2, Page: 2}
	x.Mem[1].Addr = flash.Addr{Chip: 0, Die: 1, Plane: 1, Block: 2, Page: 2}

	cands := []*req.Mem{yo1.Mem[0], yo2.Mem[0], x.Mem[0], x.Mem[1]}
	got := NewSPK3().faroOrder(g, cands, len(cands))
	// Hmm: Y group {yo1, yo2} and X group {x0, x1} are actually mutually
	// coalescable (different dies) into one PAL3 group of depth 4, so the
	// greedy grouping fuses them; verify the fused group leads with all 4.
	if len(got) != 4 {
		t.Fatalf("lost candidates: %d", len(got))
	}

	// Force a true tie by making X conflict with Y's die/planes pagewise.
	x.Mem[0].Addr = flash.Addr{Chip: 0, Die: 0, Plane: 0, Block: 2, Page: 2}
	x.Mem[1].Addr = flash.Addr{Chip: 0, Die: 0, Plane: 1, Block: 2, Page: 2}
	cands = []*req.Mem{yo1.Mem[0], yo2.Mem[0], x.Mem[0], x.Mem[1]}
	got = NewSPK3().faroOrder(g, cands, len(cands))
	if got[0].IO.ID != 3 || got[1].IO.ID != 3 {
		t.Fatalf("connectivity tie-break failed: first group from io#%d", got[0].IO.ID)
	}
}

func TestFAROReadFirstOnWAR(t *testing.T) {
	// Older read (io 1) and newer write (io 2) to the same LPN; if FARO
	// orders the write ahead, hazard control must restore the read first.
	rd := req.NewIO(1, req.Read, 500, 1, 0)
	rd.Mem[0].Addr = flash.Addr{Chip: 0, Die: 0, Plane: 0, Block: 3, Page: 1}
	wr := req.NewIO(2, req.Write, 500, 1, 0)
	wr.Mem[0].Addr = flash.Addr{Chip: 0, Die: 0, Plane: 0, Block: 8, Page: 0}

	out := []*req.Mem{wr.Mem[0], rd.Mem[0]}
	enforceReadFirst(out)
	if out[0] != rd.Mem[0] {
		t.Fatal("WAR hazard: write ordered before older read of same LPN")
	}
}

func TestEnforceReadFirstLeavesRAWAlone(t *testing.T) {
	// A read from a NEWER I/O than the write (read-after-write) is served
	// from the host buffer (§4.4) and needs no reordering.
	rd := req.NewIO(5, req.Read, 500, 1, 0)
	wr := req.NewIO(2, req.Write, 500, 1, 0)
	out := []*req.Mem{wr.Mem[0], rd.Mem[0]}
	enforceReadFirst(out)
	if out[0] != wr.Mem[0] {
		t.Fatal("RAW case must not be reordered")
	}
}

func TestSPK1WindowLimitsCandidates(t *testing.T) {
	fab := newFakeFabric()
	q := nvmhc.NewQueue(16)
	for id := int64(1); id <= 12; id++ {
		q.Enqueue(0, ioAt(id, req.Read, flash.Addr{Chip: flash.ChipID(id % 4), Block: int(id)}))
	}
	s1 := NewSPK1() // window 8
	got := s1.Select(0, q, fab)
	for _, m := range got {
		if m.IO.ID > 8 {
			t.Fatalf("SPK1 selected io#%d beyond its composition window", m.IO.ID)
		}
	}
	if len(got) != 8 {
		t.Fatalf("SPK1 selected %d, want 8", len(got))
	}
}

func TestVariantNames(t *testing.T) {
	if NewSPK1().Name() != "SPK1" || NewSPK2().Name() != "SPK2" || NewSPK3().Name() != "SPK3" {
		t.Fatal("variant names wrong")
	}
	for _, s := range []*Sprinkler{NewSPK1(), NewSPK2(), NewSPK3()} {
		if !s.NeedsReaddressing() {
			t.Fatalf("%s must subscribe to readdressing", s.Name())
		}
	}
	if (&Sprinkler{}).Name() != "SPK" {
		t.Fatal("zero-variant name wrong")
	}
}

func TestSelectEmptyQueue(t *testing.T) {
	fab := newFakeFabric()
	q := nvmhc.NewQueue(4)
	for _, s := range []*Sprinkler{NewSPK1(), NewSPK2(), NewSPK3()} {
		if got := s.Select(0, q, fab); got != nil {
			t.Fatalf("%s returned %v on empty queue", s.Name(), got)
		}
	}
}

func TestSelectNeverExceedsSlots(t *testing.T) {
	fab := newFakeFabric()
	q := nvmhc.NewQueue(64)
	// 40 requests to chip 0.
	for id := int64(1); id <= 40; id++ {
		q.Enqueue(0, ioAt(id, req.Read, flash.Addr{
			Chip: 0, Die: int(id) % 2, Plane: int(id/2) % 2,
			Block: int(id), Page: int(id) % 16,
		}))
	}
	fab.out[0] = 3
	s := NewSPK3() // slots 16
	got := s.Select(0, q, fab)
	if len(got) != 13 {
		t.Fatalf("selected %d, want 13 (16 slots - 3 outstanding)", len(got))
	}
}
