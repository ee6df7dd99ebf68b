package ssd

import (
	"testing"
	"testing/quick"

	"sprinkler/internal/core"
	"sprinkler/internal/ftl"
	"sprinkler/internal/req"
	"sprinkler/internal/sched"
	"sprinkler/internal/sim"
)

// TestLifecycleTimestampsOrdered verifies the Figure 3 service routine
// ordering for every I/O: arrival <= enqueue <= first data <= done, and
// per memory request composed <= committed <= finished.
func TestLifecycleTimestampsOrdered(t *testing.T) {
	for _, s := range allSchedulers() {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			d, err := New(smallConfig(), s)
			if err != nil {
				t.Fatal(err)
			}
			rng := sim.NewRand(31)
			var ios []*req.IO
			for i := 0; i < 40; i++ {
				kind := req.Read
				if rng.Bool(0.4) {
					kind = req.Write
				}
				ios = append(ios, req.NewIO(int64(i), kind,
					req.LPN(rng.Intn(4096)), 1+rng.Intn(10), sim.Time(i)*3*sim.Microsecond))
			}
			if _, err := d.Run(&SliceSource{IOs: ios}); err != nil {
				t.Fatal(err)
			}
			for _, io := range ios {
				if !(io.Arrival <= io.Enqueued && io.Enqueued <= io.FirstData && io.FirstData <= io.Done) {
					t.Fatalf("io %v timestamps disordered: arr=%v enq=%v first=%v done=%v",
						io, io.Arrival, io.Enqueued, io.FirstData, io.Done)
				}
				for _, m := range io.Mem {
					if m.State != req.StateDone {
						t.Fatalf("%v not done", m)
					}
					if !(m.Composed <= m.Committed && m.Committed <= m.Finished) {
						t.Fatalf("%v phases disordered: %v %v %v", m, m.Composed, m.Committed, m.Finished)
					}
					if m.Finished > io.Done {
						t.Fatalf("%v finished after its I/O completed", m)
					}
				}
			}
		})
	}
}

// TestRequestConservation: the flash level must serve exactly the host's
// page count when GC is off.
func TestRequestConservation(t *testing.T) {
	cfg := smallConfig()
	cfg.DisableGC = true
	for _, s := range allSchedulers() {
		d, err := New(cfg, s)
		if err != nil {
			t.Fatal(err)
		}
		res, err := d.Run(&SliceSource{IOs: seqIOs(30, 7, req.Write)})
		if err != nil {
			t.Fatal(err)
		}
		if res.Requests != 30*7 {
			t.Fatalf("%s: flash served %d requests, host issued %d", s.Name(), res.Requests, 30*7)
		}
		var classSum int64
		for _, v := range res.TxnsByClass {
			classSum += v
		}
		if classSum != res.Transactions {
			t.Fatalf("%s: class counts %d != transactions %d", s.Name(), classSum, res.Transactions)
		}
	}
}

// TestSchedulersCompleteRandomWorkloads is a property test across the
// whole stack: any random workload completes under every scheduler with
// FTL invariants intact, and the result is internally consistent.
func TestSchedulersCompleteRandomWorkloads(t *testing.T) {
	prop := func(seed uint16, nRaw uint8) bool {
		n := 5 + int(nRaw)%30
		for _, s := range allSchedulers() {
			cfg := smallConfig()
			d, err := New(cfg, s)
			if err != nil {
				return false
			}
			rng := sim.NewRand(uint64(seed) + 77)
			var ios []*req.IO
			for i := 0; i < n; i++ {
				kind := req.Read
				if rng.Bool(0.5) {
					kind = req.Write
				}
				ios = append(ios, req.NewIO(int64(i), kind,
					req.LPN(rng.Intn(8192)), 1+rng.Intn(20), sim.Time(rng.Intn(200))*sim.Microsecond))
			}
			res, err := d.Run(&SliceSource{IOs: ios})
			if err != nil {
				return false
			}
			if res.IOsCompleted != int64(n) {
				return false
			}
			if res.Latency.Count != int64(n) {
				return false
			}
			if d.FTL().CheckInvariants() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// TestReaddressingRepointsQueuedReads forces a migration while a read
// waits in the queue and verifies Sprinkler sees the new address.
func TestReaddressingRepointsQueuedReads(t *testing.T) {
	cfg := smallConfig()
	d, err := New(cfg, core.NewSPK3())
	if err != nil {
		t.Fatal(err)
	}
	// Manually place a queued read and index it.
	io := req.NewIO(1, req.Read, 500, 1, 0)
	m := io.Mem[0]
	if !d.preprocess(m) {
		t.Fatal("preprocess failed")
	}
	old := m.Addr
	d.ready.Add(m)

	// Fake a migration to another plane and block of the same chip, as GC
	// makes: a readdressing callback for (old -> new) must fix only
	// matching reads.
	newAddr := old
	newAddr.Plane = (old.Plane + 1) % cfg.Geo.PlanesPerDie
	newAddr.Block = (old.Block + 1) % cfg.Geo.BlocksPerPlane
	d.applyMigrations([]ftl.Migration{{LPN: 500, Src: old, Dst: newAddr}})
	if m.Addr != newAddr {
		t.Fatalf("queued read kept stale address %v, want %v", m.Addr, newAddr)
	}

	// A non-subscribing scheduler must NOT be repointed.
	d2, err := New(cfg, sched.NewVAS())
	if err != nil {
		t.Fatal(err)
	}
	io2 := req.NewIO(1, req.Read, 500, 1, 0)
	m2 := io2.Mem[0]
	if !d2.preprocess(m2) {
		t.Fatal("preprocess failed")
	}
	old2 := m2.Addr
	d2.ready.Add(m2)
	d2.applyMigrations([]ftl.Migration{{LPN: 500, Src: old2, Dst: newAddr}})
	if m2.Addr != old2 {
		t.Fatal("VAS received readdressing it never subscribed to")
	}
}
