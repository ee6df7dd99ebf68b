package sprinkler_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"sprinkler"
)

// TestSessionSnapshotMonotonic interleaves submission, time windows and
// snapshots, checking every cumulative counter is non-decreasing.
func TestSessionSnapshotMonotonic(t *testing.T) {
	sess, err := sprinkler.Open(smallConfig(sprinkler.SPK3))
	if err != nil {
		t.Fatal(err)
	}
	var prev sprinkler.Snapshot
	lpn := int64(0)
	for w := 0; w < 8; w++ {
		for i := 0; i < 40; i++ {
			if err := sess.Submit(sprinkler.Request{LPN: lpn, Pages: 4, Write: w%2 == 0}); err != nil {
				t.Fatal(err)
			}
			lpn += 4
		}
		if err := sess.Advance(2_000_000); err != nil { // 2 ms windows
			t.Fatal(err)
		}
		snap := sess.Snapshot()
		if snap.SimTimeNS < prev.SimTimeNS {
			t.Fatalf("window %d: sim time went backwards: %d < %d", w, snap.SimTimeNS, prev.SimTimeNS)
		}
		if snap.IOsCompleted < prev.IOsCompleted {
			t.Fatalf("window %d: completions went backwards", w)
		}
		if snap.IOsSubmitted < prev.IOsSubmitted {
			t.Fatalf("window %d: submissions went backwards", w)
		}
		if snap.BytesRead < prev.BytesRead || snap.BytesWritten < prev.BytesWritten {
			t.Fatalf("window %d: byte counters went backwards", w)
		}
		if snap.TotalLatencyNS < prev.TotalLatencyNS {
			t.Fatalf("window %d: latency sum went backwards", w)
		}
		if snap.IOsCompleted > snap.IOsSubmitted {
			t.Fatalf("window %d: completed %d > submitted %d", w, snap.IOsCompleted, snap.IOsSubmitted)
		}
		prev = snap
	}

	res, err := sess.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.IOsCompleted != 8*40 {
		t.Fatalf("drained %d/%d I/Os", res.IOsCompleted, 8*40)
	}
	final := sess.Snapshot()
	if final.IOsCompleted != 8*40 || final.Inflight != 0 {
		t.Fatalf("final snapshot inconsistent: %+v", final)
	}
}

// TestSessionWindowSince measures a window with warmup excluded.
func TestSessionWindowSince(t *testing.T) {
	sess, err := sprinkler.Open(smallConfig(sprinkler.SPK2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := sess.Submit(sprinkler.Request{LPN: int64(i * 8), Pages: 8}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.Advance(1_000_000_000); err != nil {
		t.Fatal(err)
	}
	warm := sess.Snapshot()
	if warm.IOsCompleted == 0 {
		t.Fatal("warmup window completed nothing")
	}

	for i := 100; i < 300; i++ {
		if err := sess.Submit(sprinkler.Request{LPN: int64(i * 8), Pages: 8}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sess.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	win := sess.Snapshot().Since(warm)
	if win.IOsCompleted != 300-warm.IOsCompleted {
		t.Fatalf("window completions %d, want %d", win.IOsCompleted, 300-warm.IOsCompleted)
	}
	if win.SimTimeNS <= 0 {
		t.Fatal("window has no duration")
	}
	if win.BandwidthKBps <= 0 || win.IOPS <= 0 || win.AvgLatencyNS <= 0 {
		t.Fatalf("degenerate window rates: %+v", win)
	}
	if win.BytesRead != win.IOsCompleted*8*2048 {
		t.Fatalf("window bytes %d for %d I/Os", win.BytesRead, win.IOsCompleted)
	}
}

// TestSessionFeed streams a source into a session in chunks.
func TestSessionFeed(t *testing.T) {
	cfg := smallConfig(sprinkler.VAS)
	sess, err := sprinkler.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src, err := cfg.NewWorkloadSource(sprinkler.WorkloadSpec{Name: "proj0", Requests: 90, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	for {
		n, err := sess.Feed(src, 25)
		if err != nil {
			t.Fatal(err)
		}
		total += n
		if n == 0 {
			break
		}
		if err := sess.Advance(1_000_000); err != nil {
			t.Fatal(err)
		}
	}
	if total != 90 {
		t.Fatalf("fed %d/90", total)
	}
	res, err := sess.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.IOsCompleted != 90 {
		t.Fatalf("completed %d/90", res.IOsCompleted)
	}
}

// TestSessionUseAfterDrain rejects operations on a drained session.
func TestSessionUseAfterDrain(t *testing.T) {
	sess, err := sprinkler.Open(smallConfig(sprinkler.VAS))
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Submit(sprinkler.Request{Pages: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := sess.Submit(sprinkler.Request{Pages: 2}); err == nil {
		t.Fatal("Submit accepted after Drain")
	}
	if err := sess.Advance(1); err == nil {
		t.Fatal("Advance accepted after Drain")
	}
	if _, err := sess.Drain(context.Background()); err == nil {
		t.Fatal("second Drain accepted")
	}
}

// TestSessionStateAfterDrain: a drained session keeps reporting its own
// final state after its device, recycled through the arena, has served
// another session.
func TestSessionStateAfterDrain(t *testing.T) {
	arena := sprinkler.NewDeviceArena()
	drive := func(n int, advanceNS int64) *sprinkler.Session {
		t.Helper()
		sess, err := sprinkler.Open(smallConfig(sprinkler.SPK3), sprinkler.WithArena(arena))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := sess.Submit(sprinkler.Request{LPN: int64(8 * i), Pages: 4, Write: i%2 == 0}); err != nil {
				t.Fatal(err)
			}
		}
		if err := sess.Advance(advanceNS); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		return sess
	}
	first := drive(4, 0)
	want := first.Snapshot()
	if want.IOsCompleted != 4 || want.Inflight != 0 {
		t.Fatalf("drained snapshot: %+v", want)
	}
	drive(9, 1e9)
	if hits := arena.Stats().DeviceHits; hits != 1 {
		t.Fatalf("%d arena device hits, want 1 (the second session must recycle the device)", hits)
	}
	if got := first.Snapshot(); got != want {
		t.Errorf("drained session's snapshot changed after its device was recycled:\n want %+v\n got  %+v", want, got)
	}
	if got := first.NowNS(); got != want.SimTimeNS {
		t.Errorf("drained session's clock reads %d ns, want %d", got, want.SimTimeNS)
	}
	if got := first.Inflight(); got != 0 {
		t.Errorf("drained session reports %d in flight, want 0", got)
	}
}

// TestSessionRejectsBadRequest validates requests at submission.
func TestSessionRejectsBadRequest(t *testing.T) {
	sess, err := sprinkler.Open(smallConfig(sprinkler.VAS))
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Submit(sprinkler.Request{Pages: 0}); err == nil {
		t.Fatal("accepted zero-page request")
	}
	if err := sess.Submit(sprinkler.Request{Pages: 4, LPN: -1}); err == nil {
		t.Fatal("accepted negative LPN")
	}
}

// TestSessionRejectsLPNOverflow: a request with LPN + Pages past
// MaxInt64, read or write, is refused at submission with an error naming
// it, where it once panicked the FTL on Drain; one with LPN + Pages equal
// to MaxInt64 is served.
func TestSessionRejectsLPNOverflow(t *testing.T) {
	for _, write := range []bool{false, true} {
		sess, err := sprinkler.Open(sprinkler.Platform(4))
		if err != nil {
			t.Fatal(err)
		}
		err = sess.Submit(sprinkler.Request{LPN: math.MaxInt64 - 4, Pages: 8, Write: write})
		if err == nil || !strings.Contains(err.Error(), "request 0 at LPN 9223372036854775803 with 8 pages") {
			t.Fatalf("write=%v: Submit error %v, want one naming request 0's LPN range", write, err)
		}
		if err := sess.Submit(sprinkler.Request{LPN: math.MaxInt64 - 8, Pages: 8, Write: write}); err != nil {
			t.Fatalf("write=%v: request with LPN + Pages = MaxInt64 refused: %v", write, err)
		}
		res, err := sess.Drain(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.IOsCompleted != 1 {
			t.Fatalf("write=%v: %d I/Os completed, want 1", write, res.IOsCompleted)
		}
	}
}

// TestSessionWithArena: sessions check devices out of a DeviceArena and
// return them on Drain; an arena-recycled session renders the identical
// Result JSON a fresh-built one does, on a pristine device and on one
// hydrated WithSnapshot.
func TestSessionWithArena(t *testing.T) {
	cfg := smallConfig(sprinkler.SPK3)
	drive := func(opts ...sprinkler.Option) string {
		t.Helper()
		sess, err := sprinkler.Open(cfg, opts...)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 300; i++ {
			req := sprinkler.Request{LPN: int64(i * 4), Pages: 4, Write: i%3 == 0}
			if err := sess.Submit(req); err != nil {
				t.Fatal(err)
			}
		}
		res, err := sess.Drain(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	snap, err := sprinkler.ReadSnapshot(bytes.NewReader(checkpointOf(t, cfg, 0.8, 0.3, 5)))
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		opts []sprinkler.Option
	}{
		{"pristine", nil},
		{"snapshot", []sprinkler.Option{sprinkler.WithSnapshot(snap)}},
	} {
		want := drive(tc.opts...)
		arena := sprinkler.NewDeviceArena()
		// The first session builds the device and returns it on Drain; the
		// second must recycle it and still match the fresh-built result.
		for round := 0; round < 2; round++ {
			got := drive(append([]sprinkler.Option{sprinkler.WithArena(arena)}, tc.opts...)...)
			if arena.Size() != 1 {
				t.Fatalf("%s round %d: drained session did not return its device: arena holds %d", tc.name, round, arena.Size())
			}
			if got != want {
				t.Fatalf("%s round %d: arena session diverged from fresh:\n want: %s\n got:  %s", tc.name, round, want, got)
			}
		}
		if hits := arena.Stats().DeviceHits; hits != 1 {
			t.Fatalf("%s: %d arena device hits, want 1", tc.name, hits)
		}
	}
}

// TestOpenWithPrecondition fragments the device so GC runs during the
// session workload.
func TestOpenWithPrecondition(t *testing.T) {
	cfg := smallConfig(sprinkler.SPK3)
	cfg.BlocksPerPlane = 12
	cfg.PagesPerBlock = 16
	sess, err := sprinkler.Open(cfg, sprinkler.WithPrecondition(sprinkler.Precondition{
		FillFrac: 0.95, ChurnFrac: 0.5, Seed: 1,
	}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := sess.Submit(sprinkler.Request{Write: true, LPN: int64((i * 37) % 2000), Pages: 4}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sess.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.GCRuns == 0 {
		t.Fatal("preconditioned session never ran GC under write pressure")
	}
}
