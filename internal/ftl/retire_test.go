package ftl

import (
	"testing"

	"sprinkler/internal/req"
	"sprinkler/internal/sim"
)

// churn writes random LPNs of [0, span) and collects whenever pressure
// builds, driving erase counts up. Every planned job is committed with the
// erase outcome eraseFailed reports for it.
func churn(t *testing.T, f *FTL, writes, span int, eraseFailed func(*GCJob) bool) {
	t.Helper()
	rng := sim.NewRand(uint64(span))
	for i := 0; i < writes; i++ {
		io := req.NewIO(0, req.Write, req.LPN(rng.Intn(span)), 1, 0)
		err := f.Preprocess(io.Mem[0])
		for attempts := 0; err != nil && attempts < 64; attempts++ {
			if n, _ := collectAll(f, eraseFailed, nil); n == 0 {
				t.Fatalf("write %d: no reclaimable space: %v", i, err)
			}
			err = f.Preprocess(io.Mem[0])
		}
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
}

// failEvery reports every nth erase as failed.
func failEvery(n int) func(*GCJob) bool {
	erases := 0
	return func(*GCJob) bool {
		erases++
		return erases%n == 0
	}
}

func neverFail(*GCJob) bool { return false }

func TestBadBlockRetirement(t *testing.T) {
	f := newTestFTL(t)
	churn(t, f, 3000, 64, failEvery(5))
	st := f.Stats()
	if st.RetiredBlocks == 0 {
		t.Fatalf("no blocks retired despite %d erases with every fifth failing", st.GCErases)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The device keeps working after retirements: more writes succeed.
	churn(t, f, 500, 64, failEvery(5))
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBadBlockNeverReused(t *testing.T) {
	f := newTestFTL(t)
	churn(t, f, 800, 32, failEvery(1))
	st := f.Stats()
	if st.RetiredBlocks != st.GCErases {
		t.Fatalf("retired %d of %d erases with every erase failing", st.RetiredBlocks, st.GCErases)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestEraseFailureZeroProbIsClean(t *testing.T) {
	f := newTestFTL(t)
	churn(t, f, 2000, 64, neverFail)
	if got := f.Stats().RetiredBlocks; got != 0 {
		t.Fatalf("retired %d blocks with no erase failing", got)
	}
}

// TestGCMigrationsStayOnChip pins the invariant the scheduler's
// readdressing relies on: with cross-plane migration on, a GC job still
// moves live pages only between planes of the victim's chip, under every
// allocation scheme.
func TestGCMigrationsStayOnChip(t *testing.T) {
	for _, alloc := range []Allocation{AllocChannelFirst, AllocWayFirst, AllocPlaneFirst} {
		t.Run(alloc.String(), func(t *testing.T) {
			cfg := DefaultConfig(tinyGeo())
			cfg.MigrateCrossPlane = true
			cfg.Allocation = alloc
			f, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			moves, crossPlane := 0, 0
			churn(t, f, 6000, 1200, func(job *GCJob) bool {
				for _, mg := range job.Migrations {
					if mg.Dst.Chip != job.Victim.Chip {
						t.Fatalf("migration of lpn %d left victim chip %d for %v", mg.LPN, job.Victim.Chip, mg.Dst)
					}
					moves++
					if mg.Dst.Die != mg.Src.Die || mg.Dst.Plane != mg.Src.Plane {
						crossPlane++
					}
				}
				return false
			})
			if moves == 0 || crossPlane == 0 {
				t.Fatalf("churn planned %d migrations, %d across planes; want both nonzero", moves, crossPlane)
			}
		})
	}
}
