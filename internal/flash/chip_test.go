package flash

import (
	"testing"

	"sprinkler/internal/bus"
	"sprinkler/internal/sim"
)

func testRig() (*sim.Engine, *bus.Channel, *Chip) {
	eng := sim.NewEngine()
	ch := bus.New(eng, 0)
	g := smallGeo()
	c := NewChip(eng, ch, 0, g, DefaultTiming())
	return eng, ch, c
}

func TestChipExecutesSingleRead(t *testing.T) {
	eng, _, c := testRig()
	var doneAt sim.Time
	var reqDone []Request
	var tx Transaction
	must(t, tx.Add(c.Geo, req(0, 0, 0, 1, 2, OpRead)))
	c.Execute(&tx, Callbacks{
		RequestDone: func(now sim.Time, r Request) { reqDone = append(reqDone, r) },
		TxnDone:     func(now sim.Time, _ *Transaction) { doneAt = now },
	})
	if !c.Busy() {
		t.Fatal("chip should assert R/B during execution")
	}
	eng.Run(0)
	if c.Busy() {
		t.Fatal("chip should be idle after completion")
	}
	if len(reqDone) != 1 {
		t.Fatalf("RequestDone fired %d times, want 1", len(reqDone))
	}
	want := c.ServiceTime(&tx)
	if doneAt != want {
		t.Fatalf("transaction finished at %v, want %v (uncontended)", doneAt, want)
	}
	// Sanity: a read is dominated by cmd+tR+data-out+status.
	tim := c.Tim
	manual := tim.CommandOverhead(OpRead) + tim.ReadArray +
		tim.DataTransferTime(c.Geo.PageSize) + tim.StatusCycle
	if doneAt != manual {
		t.Fatalf("service time %v != manual %v", doneAt, manual)
	}
}

func TestChipProgramFastSlowPages(t *testing.T) {
	eng, _, c := testRig()
	var fastDone, slowDone sim.Time

	var txFast Transaction
	must(t, txFast.Add(c.Geo, req(0, 0, 0, 1, 2, OpProgram))) // even page: fast
	c.Execute(&txFast, Callbacks{TxnDone: func(now sim.Time, _ *Transaction) { fastDone = now }})
	eng.Run(0)

	var txSlow Transaction
	must(t, txSlow.Add(c.Geo, req(0, 0, 0, 1, 3, OpProgram))) // odd page: slow
	start := eng.Now()
	c.Execute(&txSlow, Callbacks{TxnDone: func(now sim.Time, _ *Transaction) { slowDone = now }})
	eng.Run(0)

	fastDur := fastDone
	slowDur := slowDone - start
	if slowDur-fastDur != c.Tim.ProgramSlow-c.Tim.ProgramFast {
		t.Fatalf("slow-fast delta = %v, want %v", slowDur-fastDur, c.Tim.ProgramSlow-c.Tim.ProgramFast)
	}
}

func TestChipDieInterleaveOverlapsCellTime(t *testing.T) {
	eng, _, c := testRig()

	// Two single-request program transactions, run back-to-back.
	run := func(txs []*Transaction) sim.Time {
		var last sim.Time
		var runNext func(i int)
		runNext = func(i int) {
			if i >= len(txs) {
				return
			}
			c.Execute(txs[i], Callbacks{TxnDone: func(now sim.Time, _ *Transaction) {
				last = now
				runNext(i + 1)
			}})
		}
		runNext(0)
		eng.Run(0)
		return last
	}

	var a, b Transaction
	must(t, a.Add(c.Geo, req(0, 0, 0, 1, 2, OpProgram)))
	must(t, b.Add(c.Geo, req(0, 1, 0, 1, 2, OpProgram)))
	serial := run([]*Transaction{&a, &b})

	// Same two requests coalesced as a die-interleaved transaction.
	eng2 := sim.NewEngine()
	ch2 := bus.New(eng2, 0)
	c2 := NewChip(eng2, ch2, 0, c.Geo, c.Tim)
	var both Transaction
	must(t, both.Add(c.Geo, req(0, 0, 0, 1, 2, OpProgram)))
	must(t, both.Add(c.Geo, req(0, 1, 0, 1, 2, OpProgram)))
	var doneAt sim.Time
	c2.Execute(&both, Callbacks{TxnDone: func(now sim.Time, _ *Transaction) { doneAt = now }})
	eng2.Run(0)

	// Interleaved must save nearly one full cell time.
	saving := serial - doneAt
	if saving < c.Tim.ProgramFast-10*sim.Microsecond {
		t.Fatalf("die interleaving saved only %v; serial=%v interleaved=%v", saving, serial, doneAt)
	}
	if got := both.Class(); got != PAL2 {
		t.Fatalf("class = %v, want PAL2", got)
	}
}

func TestChipPlaneShareSingleCellPhase(t *testing.T) {
	eng, _, c := testRig()
	var tx Transaction
	for p := 0; p < c.Geo.PlanesPerDie; p++ {
		must(t, tx.Add(c.Geo, req(0, 0, p, 5, 4, OpProgram)))
	}
	var doneAt sim.Time
	c.Execute(&tx, Callbacks{TxnDone: func(now sim.Time, _ *Transaction) { doneAt = now }})
	eng.Run(0)
	// One cell phase only: 4 bus-ins + 1 program + status.
	tim := c.Tim
	busIn := sim.Time(4) * (tim.CommandOverhead(OpProgram) + tim.DataTransferTime(c.Geo.PageSize))
	want := busIn + tim.ProgramFast + tim.StatusCycle
	if doneAt != want {
		t.Fatalf("plane-shared program finished at %v, want %v", doneAt, want)
	}
}

func TestChipBusyPanicsOnDoubleExecute(t *testing.T) {
	_, _, c := testRig()
	var tx Transaction
	must(t, tx.Add(c.Geo, req(0, 0, 0, 1, 2, OpRead)))
	c.Execute(&tx, Callbacks{})
	defer func() {
		if recover() == nil {
			t.Fatal("Execute on busy chip did not panic")
		}
	}()
	var tx2 Transaction
	must(t, tx2.Add(c.Geo, req(0, 1, 0, 1, 2, OpRead)))
	c.Execute(&tx2, Callbacks{})
}

func TestChipEmptyTransactionPanics(t *testing.T) {
	_, _, c := testRig()
	defer func() {
		if recover() == nil {
			t.Fatal("empty transaction did not panic")
		}
	}()
	c.Execute(&Transaction{}, Callbacks{})
}

func TestChipStatsAccounting(t *testing.T) {
	eng, _, c := testRig()
	var tx Transaction
	must(t, tx.Add(c.Geo, req(0, 0, 0, 1, 2, OpRead)))
	must(t, tx.Add(c.Geo, req(0, 1, 0, 3, 9, OpRead)))
	c.Execute(&tx, Callbacks{})
	end := eng.Run(0)

	st := c.Stats()
	if st.Txns != 1 || st.Requests != 2 {
		t.Fatalf("txns=%d requests=%d, want 1/2", st.Txns, st.Requests)
	}
	if st.TxnsByClass[PAL2] != 1 {
		t.Fatalf("class accounting wrong: %v", st.TxnsByClass)
	}
	if got := st.CellActive.Total(end); got != c.Tim.ReadArray {
		t.Fatalf("cell active %v, want %v", got, c.Tim.ReadArray)
	}
	busWant := 2*c.Tim.CommandOverhead(OpRead) +
		2*c.Tim.DataTransferTime(c.Geo.PageSize) + c.Tim.StatusCycle
	if got := st.BusActive.Total(end); got != busWant {
		t.Fatalf("bus active %v, want %v", got, busWant)
	}
	if st.BusWait != 0 {
		t.Fatalf("bus wait %v on an uncontended bus, want 0", st.BusWait)
	}
	if got := st.BusyAll.Total(end); got != end {
		t.Fatalf("R/B time %v, want %v (busy the whole run)", got, end)
	}
	// Plane-use integral: degree 2 for the cell phase.
	if got := st.PlaneUse.Integral(end); got != 2*float64(c.Tim.ReadArray) {
		t.Fatalf("plane-use integral %v, want %v", got, 2*float64(c.Tim.ReadArray))
	}
}

func TestTwoChipsShareBusContention(t *testing.T) {
	eng := sim.NewEngine()
	ch := bus.New(eng, 0)
	g := smallGeo()
	tim := DefaultTiming()
	c0 := NewChip(eng, ch, 0, g, tim)
	c1 := NewChip(eng, ch, 1, g, tim)

	var t0, t1 Transaction
	must(t, t0.Add(g, req(0, 0, 0, 1, 2, OpProgram)))
	must(t, t1.Add(g, req(1, 0, 0, 1, 2, OpProgram)))
	c0.Execute(&t0, Callbacks{})
	c1.Execute(&t1, Callbacks{})
	eng.Run(0)

	// Chip 1's bus-in must have waited for chip 0's bus-in to finish.
	busIn := tim.CommandOverhead(OpProgram) + tim.DataTransferTime(g.PageSize)
	if got := c1.Stats().BusWait; got != busIn {
		t.Fatalf("chip1 bus wait = %v, want %v", got, busIn)
	}
	if c0.Stats().BusWait != 0 {
		t.Fatalf("chip0 should not wait, got %v", c0.Stats().BusWait)
	}
	// But their cell phases overlap: total time well under 2x serial.
	if ch.Grants() != 4 { // 2 bus-ins + 2 status
		t.Fatalf("grants = %d, want 4", ch.Grants())
	}
}

func TestChipBusHoldsEndInReleaseEvent(t *testing.T) {
	eng, ch, c := testRig()
	var tx Transaction
	must(t, tx.Add(c.Geo, req(0, 0, 0, 1, 2, OpRead)))
	must(t, tx.Add(c.Geo, req(0, 1, 0, 3, 9, OpRead)))
	var doneAt sim.Time
	c.Execute(&tx, Callbacks{TxnDone: func(now sim.Time, _ *Transaction) { doneAt = now }})
	eng.Run(0)
	if doneAt != c.ServiceTime(&tx) {
		t.Fatalf("finished at %v, want %v", doneAt, c.ServiceTime(&tx))
	}
	// 2 cmd + 2 data-out + status holds, each ended by its release event,
	// plus the one cell-phase event.
	if ch.Grants() != 5 || eng.Fired() != 6 {
		t.Fatalf("grants=%d events=%d, want 5 holds in 6 events", ch.Grants(), eng.Fired())
	}
}

func TestChipHoldEndQueuesBehindWaiters(t *testing.T) {
	eng := sim.NewEngine()
	ch := bus.New(eng, 0)
	g := smallGeo()
	tim := DefaultTiming()
	c0 := NewChip(eng, ch, 0, g, tim)
	c1 := NewChip(eng, ch, 1, g, tim)
	var t0, t1 Transaction
	must(t, t0.Add(g, req(0, 0, 0, 1, 2, OpRead)))
	must(t, t0.Add(g, req(0, 1, 0, 1, 2, OpRead)))
	must(t, t1.Add(g, req(1, 0, 0, 1, 2, OpRead)))
	c0.Execute(&t0, Callbacks{})
	c1.Execute(&t1, Callbacks{})
	// Chip 0's first command ends in the release event, before chip 1
	// (already waiting) is granted, so chip 0's second command queues
	// behind it: each chip waits one command slot.
	cmd := tim.CommandOverhead(OpRead)
	eng.RunUntil(3 * cmd) // all three commands, none of the read-outs
	if w0, w1 := c0.Stats().BusWait, c1.Stats().BusWait; w0 != cmd || w1 != cmd {
		t.Fatalf("bus waits = %v/%v, want %v each", w0, w1, cmd)
	}
}

func TestChipResetDropsHoldInFlight(t *testing.T) {
	eng, ch, c := testRig()
	var tx Transaction
	must(t, tx.Add(c.Geo, req(0, 0, 0, 1, 2, OpProgram)))
	stale := false
	c.Execute(&tx, Callbacks{TxnDone: func(sim.Time, *Transaction) { stale = true }})
	eng.RunUntil(c.Tim.CommandOverhead(OpProgram)) // mid data-in hold
	if !ch.Busy() {
		t.Fatal("bus should be held mid data-in")
	}
	eng.Reset()
	ch.Reset()
	c.Reset(c.Tim)
	var doneAt sim.Time
	c.Execute(&tx, Callbacks{TxnDone: func(now sim.Time, _ *Transaction) { doneAt = now }})
	eng.Run(0)
	if stale {
		t.Fatal("the reset transaction's hold still ended")
	}
	if doneAt != c.ServiceTime(&tx) {
		t.Fatalf("finished at %v, want %v", doneAt, c.ServiceTime(&tx))
	}
}

func TestServiceTimeMatchesSimulated(t *testing.T) {
	for _, op := range []Op{OpRead, OpProgram, OpErase} {
		eng, _, c := testRig()
		var tx Transaction
		must(t, tx.Add(c.Geo, req(0, 0, 0, 2, 4, op)))
		must(t, tx.Add(c.Geo, req(0, 1, 1, 6, 8, op)))
		var doneAt sim.Time
		c.Execute(&tx, Callbacks{TxnDone: func(now sim.Time, _ *Transaction) { doneAt = now }})
		eng.Run(0)
		if doneAt != c.ServiceTime(&tx) {
			t.Errorf("%v: simulated %v != ServiceTime %v", op, doneAt, c.ServiceTime(&tx))
		}
	}
}

func TestTimingValidate(t *testing.T) {
	tim := DefaultTiming()
	if err := tim.Validate(); err != nil {
		t.Fatalf("default timing invalid: %v", err)
	}
	bad := tim
	bad.ReadArray = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("accepted zero ReadArray")
	}
	bad = tim
	bad.ProgramSlow = tim.ProgramFast - 1
	if err := bad.Validate(); err == nil {
		t.Fatal("accepted ProgramSlow < ProgramFast")
	}
	bad = tim
	bad.DecisionWindow = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("accepted negative DecisionWindow")
	}
}

func TestOpString(t *testing.T) {
	if OpRead.String() != "read" || OpProgram.String() != "program" || OpErase.String() != "erase" {
		t.Fatal("op mnemonics wrong")
	}
}
