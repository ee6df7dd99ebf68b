package ssd

import (
	"testing"

	"sprinkler/internal/flash"
	"sprinkler/internal/sim"
)

func newTestController() (*sim.Engine, *controller) {
	eng := sim.NewEngine()
	geo := flash.Geometry{
		Channels: 1, ChipsPerChan: 2, DiesPerChip: 2, PlanesPerDie: 2,
		BlocksPerPlane: 16, PagesPerBlock: 8, PageSize: 2048,
	}
	return eng, newController(eng, nopHost{}, geo, flash.DefaultTiming(), flash.FaultConfig{}, 0)
}

// nopHost ignores a controller's progress notifications.
type nopHost struct{}

func (nopHost) txnStarted(sim.Time)                    {}
func (nopHost) txnDone(sim.Time)                       {}
func (nopHost) onFlashReqDone(sim.Time, flash.Request) {}

func freq(chip flash.ChipID, die, plane, block, page int, op flash.Op) flash.Request {
	return flash.Request{Op: op, Addr: flash.Addr{Chip: chip, Die: die, Plane: plane, Block: block, Page: page}}
}

func TestControllerCoalescesWithinDecisionWindow(t *testing.T) {
	eng, ctl := newTestController()

	// Two compatible requests committed back-to-back: the build fires
	// after the decision window and must fuse them.
	ctl.commit(0, freq(0, 0, 0, 3, 5, flash.OpRead))
	ctl.commit(0, freq(0, 1, 0, 4, 2, flash.OpRead))

	// Observe via chip stats after the run.
	eng.Run(0)
	st := ctl.chip(0).Stats()
	if st.Txns != 1 {
		t.Fatalf("executed %d transactions, want 1 fused", st.Txns)
	}
	if st.TxnsByClass[flash.PAL2] != 1 {
		t.Fatalf("fusion class wrong: %v", st.TxnsByClass)
	}
}

func TestControllerLateCommitMissesWindow(t *testing.T) {
	eng, ctl := newTestController()
	ctl.commit(0, freq(0, 0, 0, 3, 5, flash.OpRead))
	// Second request arrives after the window (and after the chip went
	// busy): it must be a separate transaction.
	eng.At(ctl.tim.DecisionWindow+1, func(now sim.Time) {
		ctl.commit(now, freq(0, 1, 0, 4, 2, flash.OpRead))
	})
	eng.Run(0)
	st := ctl.chip(0).Stats()
	if st.Txns != 2 {
		t.Fatalf("executed %d transactions, want 2 (late commit)", st.Txns)
	}
}

func TestControllerAccumulatesWhileBusy(t *testing.T) {
	eng, ctl := newTestController()
	// First request occupies the chip; four compatible requests commit
	// while it is busy and must fuse into ONE follow-up transaction.
	ctl.commit(0, freq(0, 0, 0, 1, 1, flash.OpRead))
	eng.At(50*sim.Microsecond, func(now sim.Time) { // mid-execution of txn 1
		ctl.commit(now, freq(0, 0, 0, 2, 2, flash.OpRead))
		ctl.commit(now, freq(0, 0, 1, 2, 2, flash.OpRead))
		ctl.commit(now, freq(0, 1, 0, 3, 4, flash.OpRead))
		ctl.commit(now, freq(0, 1, 1, 3, 4, flash.OpRead))
	})
	eng.Run(0)
	st := ctl.chip(0).Stats()
	if st.Txns != 2 {
		t.Fatalf("executed %d transactions, want 2", st.Txns)
	}
	if st.TxnsByClass[flash.PAL3] != 1 {
		t.Fatalf("accumulated batch should fuse as PAL3: %v", st.TxnsByClass)
	}
}

func TestControllerSeparatesOpKinds(t *testing.T) {
	eng, ctl := newTestController()
	ctl.commit(0, freq(0, 0, 0, 1, 1, flash.OpRead))
	ctl.commit(0, freq(0, 1, 0, 2, 1, flash.OpProgram))
	eng.Run(0)
	st := ctl.chip(0).Stats()
	if st.Txns != 2 {
		t.Fatalf("mixed ops fused: %d txns", st.Txns)
	}
}

func TestControllerIndependentChips(t *testing.T) {
	eng, ctl := newTestController()
	ctl.commit(0, freq(0, 0, 0, 1, 1, flash.OpRead))
	ctl.commit(0, freq(1, 0, 0, 1, 1, flash.OpRead))
	// Both chips busy concurrently (they share only the bus).
	eng.RunUntil(30 * sim.Microsecond)
	if !ctl.chip(0).Busy() || !ctl.chip(1).Busy() {
		t.Fatal("chips did not overlap execution")
	}
	eng.Run(0)
	if ctl.chip(0).Stats().Txns != 1 || ctl.chip(1).Stats().Txns != 1 {
		t.Fatal("per-chip transaction accounting wrong")
	}
}

func TestControllerPendingLen(t *testing.T) {
	eng, ctl := newTestController()
	ctl.commit(0, freq(0, 0, 0, 1, 1, flash.OpRead))
	ctl.commit(0, freq(0, 0, 0, 2, 1, flash.OpRead)) // conflicts: same die/plane
	if got := ctl.pendingLen(0); got != 2 {
		t.Fatalf("pendingLen = %d, want 2 before build", got)
	}
	eng.Run(0)
	if got := ctl.pendingLen(0); got != 0 {
		t.Fatalf("pendingLen = %d after drain", got)
	}
	// Conflicting requests must have run as two transactions.
	if got := ctl.chip(0).Stats().Txns; got != 2 {
		t.Fatalf("txns = %d, want 2", got)
	}
}

func TestControllerForeignChipPanics(t *testing.T) {
	_, ctl := newTestController()
	defer func() {
		if recover() == nil {
			t.Fatal("foreign chip did not panic")
		}
	}()
	ctl.chip(flash.ChipID(99))
}
