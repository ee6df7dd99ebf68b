package sched

import (
	"testing"

	"sprinkler/internal/flash"
	"sprinkler/internal/nvmhc"
	"sprinkler/internal/req"
)

// fakeFabric is a scriptable Fabric for scheduler unit tests.
type fakeFabric struct {
	geo flash.Geometry
	out map[flash.ChipID]int
}

func newFakeFabric() *fakeFabric {
	return &fakeFabric{
		geo: flash.Geometry{
			Channels: 2, ChipsPerChan: 2, DiesPerChip: 2, PlanesPerDie: 2,
			BlocksPerPlane: 64, PagesPerBlock: 16, PageSize: 2048,
		},
		out: map[flash.ChipID]int{},
	}
}

func (f *fakeFabric) Geo() flash.Geometry            { return f.geo }
func (f *fakeFabric) Outstanding(c flash.ChipID) int { return f.out[c] }
func (f *fakeFabric) Ready() *ReadyIndex             { return nil }

// makeIO builds an I/O whose memory requests target the given chips, one
// request per chip entry, with distinct die/plane/pages.
func makeIO(id int64, kind req.Kind, chips ...flash.ChipID) *req.IO {
	io := req.NewIO(id, kind, req.LPN(id*1000), len(chips), 0)
	for i, c := range chips {
		io.Mem[i].Addr = flash.Addr{
			Chip: c, Die: i % 2, Plane: (i / 2) % 2, Block: i, Page: i,
		}
	}
	return io
}

func TestVASHeadOfLineBlocking(t *testing.T) {
	fab := newFakeFabric()
	q := nvmhc.NewQueue(8)
	a := makeIO(1, req.Read, 0, 1)
	b := makeIO(2, req.Read, 2, 3)
	q.Enqueue(0, a)
	q.Enqueue(0, b)

	// Chip 0 is saturated: a's first request cannot commit.
	fab.out[0] = 2

	v := NewVAS()
	got := v.Select(0, q, fab)
	// VAS may commit a's chip-1 request but must NOT touch b even though
	// chips 2,3 are idle: that is the head-of-line blocking of Figure 4.
	for _, m := range got {
		if m.IO != a {
			t.Fatalf("VAS selected request of io#%d past a blocked head", m.IO.ID)
		}
	}
	if len(got) != 1 || got[0].Addr.Chip != 1 {
		t.Fatalf("VAS selected %v, want exactly a's chip-1 request", got)
	}
}

func TestVASAdvancesAfterHeadFullySelected(t *testing.T) {
	fab := newFakeFabric()
	q := nvmhc.NewQueue(8)
	a := makeIO(1, req.Read, 0, 1)
	b := makeIO(2, req.Read, 2, 3)
	q.Enqueue(0, a)
	q.Enqueue(0, b)

	v := NewVAS()
	first := v.Select(0, q, fab)
	if len(first) != 2 {
		t.Fatalf("first select got %d, want 2 (all of a)", len(first))
	}
	for _, m := range first {
		m.Compose(0)
	}
	second := v.Select(0, q, fab)
	if len(second) != 2 {
		t.Fatalf("second select got %d, want 2 (all of b)", len(second))
	}
	for _, m := range second {
		if m.IO != b {
			t.Fatal("second select should serve b")
		}
	}
}

func TestVASRespectsSlotBudget(t *testing.T) {
	fab := newFakeFabric()
	q := nvmhc.NewQueue(8)
	// One I/O with 4 requests all to chip 0.
	io := makeIO(1, req.Read, 0, 0, 0, 0)
	q.Enqueue(0, io)
	v := NewVAS() // slots = 1
	got := v.Select(0, q, fab)
	if len(got) != 1 {
		t.Fatalf("VAS committed %d to one chip, budget is 1", len(got))
	}
}

func TestPASSkipsBusyChips(t *testing.T) {
	fab := newFakeFabric()
	q := nvmhc.NewQueue(8)
	a := makeIO(1, req.Read, 0, 1)
	b := makeIO(2, req.Read, 2, 3)
	q.Enqueue(0, a)
	q.Enqueue(0, b)
	fab.out[0] = 4 // chip 0 saturated
	p := NewPAS()
	got := v2ios(p.Select(0, q, fab))
	// PAS must serve a's chip-1 request AND all of b (skip-busy).
	if !got[1] || !got[2] {
		t.Fatalf("PAS failed to reorder around busy chip: %v", got)
	}
}

// v2ios maps selected requests to a set of IO IDs.
func v2ios(ms []*req.Mem) map[int64]bool {
	out := map[int64]bool{}
	for _, m := range ms {
		out[m.IO.ID] = true
	}
	return out
}

func TestPASBudgetAcrossIOs(t *testing.T) {
	fab := newFakeFabric()
	q := nvmhc.NewQueue(8)
	// Three I/Os each with 2 requests to chip 0: budget 4 admits only 4.
	for id := int64(1); id <= 3; id++ {
		q.Enqueue(0, makeIO(id, req.Read, 0, 0))
	}
	p := NewPAS()
	got := p.Select(0, q, fab)
	if len(got) != 4 {
		t.Fatalf("PAS committed %d, budget is 4", len(got))
	}
}

// TestPASOversizedNonHeadIO: a non-head I/O with more requests on one chip
// than an int16 holds must be counted as not fitting. A 16-bit need once
// wrapped to 0 or below, so Fits passed and the Take loop panicked; a
// 2-chip drive with two 65536-page reads reached it.
func TestPASOversizedNonHeadIO(t *testing.T) {
	for _, pages := range []int{32768, 65536} {
		fab := newFakeFabric()
		q := nvmhc.NewQueue(8)
		a := makeIO(1, req.Read, 1)
		b := req.NewIO(2, req.Read, 0, pages, 0)
		q.Enqueue(0, a)
		q.Enqueue(0, b)
		got := NewPAS().Select(0, q, fab)
		if len(got) != 1 || got[0].IO != a {
			t.Fatalf("%d pages on chip 0: PAS selected %d requests, want only the head's one", pages, len(got))
		}
	}
}

func TestCandidateWindowLimitsIOs(t *testing.T) {
	q := nvmhc.NewQueue(8)
	for id := int64(1); id <= 5; id++ {
		q.Enqueue(0, makeIO(id, req.Read, 0))
	}
	if got := len(CandidateWindow(q, 2)); got != 2 {
		t.Fatalf("window 2 returned %d candidates, want 2", got)
	}
	if got := len(CandidateWindow(q, 0)); got != 5 {
		t.Fatalf("window 0 returned %d candidates, want 5", got)
	}
}

func TestCandidateWindowSkipsNonQueued(t *testing.T) {
	q := nvmhc.NewQueue(8)
	io := makeIO(1, req.Read, 0, 1, 2)
	io.Mem[1].State = req.StateCommitted
	q.Enqueue(0, io)
	got := CandidateWindow(q, 0)
	if len(got) != 2 {
		t.Fatalf("got %d candidates, want 2 (one committed)", len(got))
	}
}

func TestCandidateWindowFUABarrier(t *testing.T) {
	q := nvmhc.NewQueue(8)
	a := makeIO(1, req.Read, 0)
	fua := makeIO(2, req.Write, 1)
	fua.FUA = true
	c := makeIO(3, req.Read, 2)
	q.Enqueue(0, a)
	q.Enqueue(0, fua)
	q.Enqueue(0, c)

	got := CandidateWindow(q, 0)
	if len(got) != 1 || got[0].IO != a {
		t.Fatalf("FUA barrier leaked: got %d candidates", len(got))
	}

	// Once a completes and releases its tag, the FUA I/O reaches the head
	// and is served alone (conservative no-reorder semantics).
	a.Mem[0].State = req.StateDone
	q.Release(0, a)
	got = CandidateWindow(q, 0)
	if len(got) != 1 || got[0].IO != fua {
		t.Fatalf("FUA head not served alone: %v", got)
	}

	// After the FUA completes, the rest flows.
	fua.Mem[0].State = req.StateDone
	q.Release(0, fua)
	got = CandidateWindow(q, 0)
	if len(got) != 1 || got[0].IO != c {
		t.Fatalf("post-FUA flow broken: %v", got)
	}
}

func TestSortChipsByOffset(t *testing.T) {
	g := flash.Geometry{
		Channels: 3, ChipsPerChan: 3, DiesPerChip: 1, PlanesPerDie: 1,
		BlocksPerPlane: 1, PagesPerBlock: 1, PageSize: 1,
	}
	// chip = channel*3 + offset
	chips := []flash.ChipID{8, 0, 4, 3, 6, 1}
	SortChipsByOffset(g, chips)
	// offsets: 8->2, 0->0, 4->1, 3->0, 6->0, 1->1
	// order: offset 0 (ch0,ch1,ch2) => 0,3,6; offset 1 => 1,4; offset 2 => 8
	want := []flash.ChipID{0, 3, 6, 1, 4, 8}
	for i, w := range want {
		if chips[i] != w {
			t.Fatalf("order %v, want %v", chips, want)
		}
	}
}

func TestSchedulerNames(t *testing.T) {
	if NewVAS().Name() != "VAS" || NewPAS().Name() != "PAS" {
		t.Fatal("scheduler names wrong")
	}
	if NewVAS().NeedsReaddressing() || NewPAS().NeedsReaddressing() {
		t.Fatal("baselines must not subscribe to readdressing")
	}
}

// TestReadyIndexBoundedUnderChurn: schedulers that never Gather (VAS/PAS)
// still feed the index through admissions and removals; the nil holes left
// by Remove must be compacted so list memory tracks live depth, not total
// admissions.
func TestReadyIndexBoundedUnderChurn(t *testing.T) {
	x := NewReadyIndex(flash.Geometry{Channels: 1, ChipsPerChan: 1})
	for i := 0; i < 10000; i++ {
		io := makeIO(int64(i), req.Read, 0)
		x.Add(io.Mem[0])
		x.Remove(io.Mem[0])
		if n := len(x.List(0)); n > 128 {
			t.Fatalf("iteration %d: index list grew to %d slots with 0 live", i, n)
		}
	}
	if live := x.LiveChips(nil); len(live) != 0 {
		t.Fatalf("live chips = %v, want none", live)
	}
}
