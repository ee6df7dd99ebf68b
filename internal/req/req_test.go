package req

import (
	"testing"
	"testing/quick"

	"sprinkler/internal/flash"
)

func TestNewIOBuildsMemRequests(t *testing.T) {
	io := NewIO(7, Read, 100, 5, 1000)
	if len(io.Mem) != 5 {
		t.Fatalf("built %d mem requests, want 5", len(io.Mem))
	}
	for i, m := range io.Mem {
		if m.LPN != LPN(100+i) {
			t.Fatalf("mem %d LPN = %d, want %d", i, m.LPN, 100+i)
		}
		if m.IO != io || m.Index != i {
			t.Fatalf("mem %d back-pointer wrong", i)
		}
		if m.State != StateQueued {
			t.Fatalf("mem %d state = %v, want queued", i, m.State)
		}
	}
	if io.Bytes(2048) != 5*2048 {
		t.Fatalf("Bytes = %d", io.Bytes(2048))
	}
}

func TestNewIOPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-page IO did not panic")
		}
	}()
	NewIO(1, Write, 0, 0, 0)
}

func TestMarkDoneCompletes(t *testing.T) {
	io := NewIO(1, Write, 0, 3, 0)
	if io.MarkDone(0) {
		t.Fatal("complete after 1/3")
	}
	if io.MarkDone(2) {
		t.Fatal("complete after 2/3")
	}
	if !io.MarkDone(1) {
		t.Fatal("not complete after 3/3")
	}
}

func TestMarkDoneTwicePanics(t *testing.T) {
	io := NewIO(1, Write, 0, 2, 0)
	io.MarkDone(0)
	defer func() {
		if recover() == nil {
			t.Fatal("double MarkDone did not panic")
		}
	}()
	io.MarkDone(0)
}

func TestKindFlashOp(t *testing.T) {
	if Read.FlashOp() != flash.OpRead {
		t.Fatal("Read should map to OpRead")
	}
	if Write.FlashOp() != flash.OpProgram {
		t.Fatal("Write should map to OpProgram")
	}
	if Read.String() != "read" || Write.String() != "write" {
		t.Fatal("Kind strings wrong")
	}
}

func TestLatencyAccounting(t *testing.T) {
	io := NewIO(1, Read, 0, 1, 500)
	io.FirstData = 800
	io.Done = 2500
	if io.Latency() != 2000 {
		t.Fatalf("Latency = %v, want 2000", io.Latency())
	}
	if io.QueueWait() != 300 {
		t.Fatalf("QueueWait = %v, want 300", io.QueueWait())
	}
}

func TestBitmapBasics(t *testing.T) {
	b := NewBitmap(130)
	if len(b) != 3 {
		t.Fatalf("bitmap words = %d, want 3", len(b))
	}
	for _, i := range []int{0, 63, 64, 129} {
		b.Set(i)
		if !b.Get(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if b.Count() != 4 {
		t.Fatalf("Count = %d, want 4", b.Count())
	}
	b.Clear(64)
	if b.Get(64) || b.Count() != 3 {
		t.Fatal("Clear failed")
	}
}

func TestBitmapSetClearProperty(t *testing.T) {
	prop := func(idxs []uint8) bool {
		b := NewBitmap(256)
		ref := map[int]bool{}
		for _, i := range idxs {
			b.Set(int(i))
			ref[int(i)] = true
		}
		for i := 0; i < 256; i++ {
			if b.Get(i) != ref[i] {
				return false
			}
		}
		return b.Count() == len(ref)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStateString(t *testing.T) {
	want := map[State]string{
		StateQueued: "queued", StateComposed: "composed",
		StateCommitted: "committed", StateIssued: "issued", StateDone: "done",
	}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), w)
		}
	}
}

func TestStringers(t *testing.T) {
	io := NewIO(3, Write, 10, 2, 0)
	if io.String() == "" || io.Mem[0].String() == "" {
		t.Fatal("String() should be non-empty")
	}
}

// TestIOResetReuse pins the free-list primitive: a recycled I/O must be
// indistinguishable from a fresh one — state, bitmap, timestamps, member
// identity — and must reuse its member storage when capacity allows.
func TestIOResetReuse(t *testing.T) {
	io := NewIO(1, Write, 100, 8, 50)
	io.FUA = true
	// Dirty every resettable field as a completed run would.
	io.Seq = 99
	io.QSlot = 3
	io.NoteFirstData(60)
	for i := 0; i < 8; i++ {
		io.Mem[i].State = StateDone
		io.Mem[i].Resolved = true
		io.Mem[i].Composed = 55
		io.MarkDone(i)
	}
	io.Done = 70

	before := &io.mems[0]
	io.Reset(2, Read, 500, 4, 80)
	if &io.mems[0] != before {
		t.Fatal("Reset reallocated member storage despite sufficient capacity")
	}
	fresh := NewIO(2, Read, 500, 4, 80)
	if io.ID != fresh.ID || io.Kind != fresh.Kind || io.Start != fresh.Start ||
		io.Pages != fresh.Pages || io.Arrival != fresh.Arrival || io.FUA ||
		io.QSlot != -1 || io.Seq != 0 || io.Done != 0 || io.FirstData != 0 ||
		io.nDone != 0 {
		t.Fatalf("recycled header differs from fresh: %+v", io)
	}
	if len(io.Mem) != 4 {
		t.Fatalf("member count %d, want 4", len(io.Mem))
	}
	for i, m := range io.Mem {
		f := fresh.Mem[i]
		if m.IO != io || m.Index != f.Index || m.LPN != f.LPN ||
			m.State != StateQueued || m.Resolved || m.ReadySlot != -1 ||
			m.Composed != 0 || m.Committed != 0 || m.Finished != 0 {
			t.Fatalf("recycled member %d differs from fresh: %+v", i, m)
		}
	}
	// The done bitmap must have been cleared: completing the recycled
	// request must not trip the double-completion panic.
	for i := 0; i < 4; i++ {
		done := io.MarkDone(i)
		if done != (i == 3) {
			t.Fatalf("MarkDone(%d) = %v", i, done)
		}
	}
}

// TestIOResetGrowsForLargerRequest covers the capacity-miss path and the
// >64-page bitmap reuse.
func TestIOResetGrowsForLargerRequest(t *testing.T) {
	io := NewIO(1, Read, 0, 2, 0)
	io.Reset(2, Read, 0, 100, 0)
	if len(io.Mem) != 100 {
		t.Fatalf("member count %d, want 100", len(io.Mem))
	}
	io.MarkDone(99)
	io.Reset(3, Write, 0, 70, 0)
	if io.doneMask.Get(69) || io.doneMask.Count() != 0 {
		t.Fatal("done bitmap not cleared on >64-page reuse")
	}
	for i := 0; i < 70; i++ {
		if done := io.MarkDone(i); done != (i == 69) {
			t.Fatalf("recycled 70-page I/O: MarkDone(%d) = %v", i, done)
		}
	}
}

// TestQueuedCount checks the queued count schedulers skip I/Os on: every
// member starts queued, Compose moves one member out and drops the count
// by one, and Reset counts the new request's members as queued again.
func TestQueuedCount(t *testing.T) {
	io := NewIO(1, Write, 0, 3, 0)
	if io.Queued() != 3 {
		t.Fatalf("new I/O has %d queued, want 3", io.Queued())
	}
	io.Mem[1].Compose(50)
	if m := io.Mem[1]; m.State != StateComposed || m.Composed != 50 {
		t.Fatalf("composed member reads %v at %d, want composed at 50", m.State, m.Composed)
	}
	if io.Queued() != 2 {
		t.Fatalf("%d queued after one Compose, want 2", io.Queued())
	}
	io.Mem[0].Compose(60)
	io.Mem[2].Compose(60)
	if io.Queued() != 0 {
		t.Fatalf("%d queued after every member composed, want 0", io.Queued())
	}
	io.Reset(2, Read, 8, 5, 0)
	if io.Queued() != 5 {
		t.Fatalf("reset I/O has %d queued, want 5", io.Queued())
	}
}
