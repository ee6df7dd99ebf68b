package sim

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("new engine Now() = %v, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("new engine Pending() = %d, want 0", e.Pending())
	}
}

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []Time
	for _, at := range []Time{30, 10, 20} {
		at := at
		e.At(at, func(now Time) { order = append(order, now) })
	}
	e.Run(0)
	want := []Time{10, 20, 30}
	for i, w := range want {
		if order[i] != w {
			t.Fatalf("event %d fired at %v, want %v (order %v)", i, order[i], w, order)
		}
	}
}

func TestEngineTieBreaksByScheduleOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 8; i++ {
		i := i
		e.At(100, func(Time) { order = append(order, i) })
	}
	e.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events fired out of order: %v", order)
		}
	}
}

func TestEngineAfterUsesCurrentTime(t *testing.T) {
	e := NewEngine()
	var fired Time
	e.At(50, func(now Time) {
		e.After(25, func(n Time) { fired = n })
	})
	e.Run(0)
	if fired != 75 {
		t.Fatalf("nested After fired at %v, want 75", fired)
	}
}

func TestEnginePanicsOnPastEvent(t *testing.T) {
	e := NewEngine()
	e.At(100, func(now Time) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(10, func(Time) {})
	})
	e.Run(0)
}

func TestEnginePanicsOnNegativeDelay(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	e.After(-1, func(Time) {})
}

// Reset drops every queued event unfired, makes every timer non-pending
// and restarts the clock, the fired count and the sequence counter, so a
// reset engine breaks same-instant ties exactly like a fresh one.
func TestEngineReset(t *testing.T) {
	var log []string
	timers := make([]*Timer, 4)
	for i, lane := range []int32{1, 0, 1, 0} {
		name := fmt.Sprintf("t%d", i)
		timers[i] = NewTimer(func(Time) { log = append(log, name) })
		timers[i].SetLane(lane)
	}
	// ties fires a same-instant mix of At events and lane timers on e.
	ties := func(e *Engine) []string {
		log = nil
		for i, tm := range timers {
			e.AtTimer(7, tm)
			name := fmt.Sprintf("at%d", i)
			e.At(7, func(Time) { log = append(log, name) })
		}
		e.Run(0)
		return log
	}
	want := ties(NewEngine())

	e := NewEngine()
	fired := 0
	e.At(3, func(Time) { fired++ })
	e.Run(0)
	for i := 0; i < 20; i++ {
		e.At(e.Now()+Time(i), func(Time) { fired++ })
	}
	for i, tm := range timers {
		e.AtTimer(e.Now()+Time(i+1), tm)
	}
	e.Reset()
	if c := e.Clock(); e.Pending() != 0 || c != (EngineClock{}) {
		t.Fatalf("after Reset: Pending %d, clock %+v; want all 0", e.Pending(), c)
	}
	for i, tm := range timers {
		if tm.Pending() {
			t.Fatalf("timer %d still pending after Reset", i)
		}
	}
	if got := ties(e); !reflect.DeepEqual(got, want) {
		t.Fatalf("reset engine fired ties as %v, fresh engine as %v", got, want)
	}
	if fired != 1 {
		t.Fatalf("%d events fired, want only the one run before Reset", fired)
	}
}

// A timer is non-pending inside its own callback, so the callback may re-arm
// it; arming a timer that is already pending panics.
func TestTimerRearm(t *testing.T) {
	e := NewEngine()
	var at []Time
	var tm *Timer
	tm = NewTimer(func(now Time) {
		if tm.Pending() {
			t.Fatal("timer pending inside its own callback")
		}
		at = append(at, now)
		if len(at) < 3 {
			e.AfterTimer(5, tm)
		}
	})
	e.AtTimer(1, tm)
	if !tm.Pending() {
		t.Fatal("armed timer not pending")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("AtTimer on a pending timer did not panic")
			}
		}()
		e.AtTimer(2, tm)
	}()
	e.Run(0)
	if want := []Time{1, 6, 11}; !reflect.DeepEqual(at, want) {
		t.Fatalf("re-armed timer fired at %v, want %v", at, want)
	}
	if tm.Pending() || e.Pending() != 0 {
		t.Fatalf("after drain: timer pending %v, queue %d", tm.Pending(), e.Pending())
	}
}

// Once the heap has grown to the working depth, a schedule/fire cycle
// through After and through AtTimer allocates nothing.
func TestEngineAllocFree(t *testing.T) {
	e := NewEngine()
	fn := func(Time) {}
	tm := NewTimer(fn)
	cycle := func() {
		for i := 0; i < 64; i++ {
			e.After(Time(i%7), fn)
		}
		e.AfterTimer(3, tm)
		e.Run(0)
	}
	cycle() // grow the heap
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("warm schedule/fire cycle allocated %v times, want 0", allocs)
	}
}

func TestEngineBudget(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := Time(1); i <= 100; i++ {
		e.At(i, func(Time) { count++ })
	}
	e.Run(7)
	if count != 7 {
		t.Fatalf("budget run executed %d, want 7", count)
	}
	if e.Fired() != 7 {
		t.Fatalf("Fired() = %d, want 7", e.Fired())
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, at := range []Time{5, 15, 25} {
		e.At(at, func(now Time) { fired = append(fired, now) })
	}
	e.RunUntil(20)
	if len(fired) != 2 {
		t.Fatalf("RunUntil(20) fired %d events, want 2", len(fired))
	}
	if e.Now() != 20 {
		t.Fatalf("clock after RunUntil = %v, want 20", e.Now())
	}
	e.Run(0)
	if len(fired) != 3 {
		t.Fatalf("total fired %d, want 3", len(fired))
	}
}

func TestEngineEventCascade(t *testing.T) {
	// An event chain that schedules its successor should run to completion.
	e := NewEngine()
	const depth = 1000
	n := 0
	var step func(Time)
	step = func(Time) {
		n++
		if n < depth {
			e.After(1, step)
		}
	}
	e.After(1, step)
	end := e.Run(0)
	if n != depth {
		t.Fatalf("cascade ran %d steps, want %d", n, depth)
	}
	if end != Time(depth) {
		t.Fatalf("cascade ended at %v, want %d", end, depth)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500, "500ns"},
		{2 * Microsecond, "2.000µs"},
		{3 * Millisecond, "3.000ms"},
		{4 * Second, "4.000s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

// Property: for any set of (time, id) pairs, the engine pops them in
// nondecreasing time order.
func TestEngineOrderProperty(t *testing.T) {
	prop := func(delays []uint16) bool {
		e := NewEngine()
		var fired []Time
		for _, d := range delays {
			e.At(Time(d), func(now Time) { fired = append(fired, now) })
		}
		e.Run(0)
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(delays)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Same-instant events fire in (lane, seq) order, whatever order their lanes
// were scheduled in: the device relies on this to run host events (lane 0)
// before channel events (lane channel+1) within an instant. An event
// scheduled mid-instant on a lower lane still fires before the higher
// lanes' pending events.
func TestEngineSameInstantLaneOrder(t *testing.T) {
	e := NewEngine()
	var log []string
	note := func(name string) Event {
		return func(now Time) { log = append(log, fmt.Sprintf("%s@%d", name, now)) }
	}
	for i, lane := range []int32{2, 0, 1, 2, 0, 1} {
		tm := NewTimer(note(fmt.Sprintf("L%d.%d", lane, i)))
		tm.SetLane(lane)
		e.AtTimer(10, tm)
	}
	late := NewTimer(note("L1.late"))
	late.SetLane(1)
	e.At(10, func(now Time) {
		log = append(log, fmt.Sprintf("L0.at@%d", now))
		e.AtTimer(now, late)
		e.At(now, note("L0.late"))
	})
	e.At(5, note("L0.early"))
	e.Run(0)
	want := []string{
		"L0.early@5",
		"L0.1@10", "L0.4@10", "L0.at@10", "L0.late@10",
		"L1.2@10", "L1.5@10", "L1.late@10",
		"L2.0@10", "L2.3@10",
	}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("fire order = %v, want %v", log, want)
	}
}
