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

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	h := e.At(10, func(Time) { fired = true })
	h.Cancel()
	e.Run(0)
	if fired {
		t.Fatal("cancelled event fired")
	}
	if e.Pending() != 0 {
		t.Fatal("queue not drained after run")
	}
}

func TestEngineCancelIdempotent(t *testing.T) {
	e := NewEngine()
	h := e.At(10, func(Time) {})
	h.Cancel()
	h.Cancel() // must not panic
	var zero Handle
	zero.Cancel() // zero handle must not panic
	e.Run(0)
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := Time(1); i <= 10; i++ {
		e.At(i, func(Time) {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.Run(0)
	if count != 3 {
		t.Fatalf("ran %d events after Stop, want 3", count)
	}
	// Run again resumes.
	e.Run(0)
	if count != 10 {
		t.Fatalf("resumed run executed %d total, want 10", count)
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

// hookRig is an engine whose end-of-instant hook logs "end@now" into log.
type hookRig struct {
	e   *Engine
	log []string
}

func newHookRig() *hookRig {
	r := &hookRig{e: NewEngine()}
	r.e.SetInstantEnd(func(now Time) { r.note("end", now) })
	return r
}

func (r *hookRig) note(name string, now Time) {
	r.log = append(r.log, fmt.Sprintf("%s@%d", name, now))
}

// arming returns an event that logs name and arms the hook.
func (r *hookRig) arming(name string) Event {
	return func(now Time) {
		r.note(name, now)
		r.e.ArmInstantEnd()
	}
}

func (r *hookRig) want(t *testing.T, want ...string) {
	t.Helper()
	if !reflect.DeepEqual(r.log, want) {
		t.Fatalf("log = %v, want %v", r.log, want)
	}
}

func TestInstantEndAfterLastEventOfEveryLane(t *testing.T) {
	r := newHookRig()
	for lane, name := range []string{"a", "b", "c"} {
		tm := NewTimer(r.arming(name))
		tm.SetLane(int32(2 - lane)) // a on the top lane, c on lane 0
		r.e.AtTimer(10, tm)
	}
	// The lane-0 event schedules another same-instant event; the hook
	// still waits for it.
	r.e.At(10, func(now Time) {
		r.note("d", now)
		r.e.At(now, func(now Time) { r.note("e", now) })
	})
	r.e.At(20, func(now Time) { r.note("f", now) })
	r.e.Run(0)
	r.want(t, "c@10", "d@10", "e@10", "b@10", "a@10", "end@10", "f@20")
	if r.e.Fired() != 6 {
		t.Fatalf("fired = %d, want 6 (the hook is not an event)", r.e.Fired())
	}
}

func TestInstantEndRearmRunsAgainInInstant(t *testing.T) {
	r := newHookRig()
	calls := 0
	r.e.SetInstantEnd(func(now Time) {
		calls++
		r.note("end", now)
		switch calls {
		case 1: // re-arm with nothing else queued at now
			r.e.ArmInstantEnd()
		case 2: // re-arm behind a new same-instant event
			r.e.At(now, func(now Time) { r.note("x", now) })
			r.e.ArmInstantEnd()
		}
	})
	r.e.At(10, r.arming("a"))
	r.e.At(30, func(now Time) { r.note("b", now) })
	r.e.Run(0)
	r.want(t, "a@10", "end@10", "end@10", "x@10", "end@10", "b@30")
}

func TestInstantEndWhenQueueEmpties(t *testing.T) {
	r := newHookRig()
	r.e.At(10, r.arming("a"))
	if end := r.e.Run(0); end != 10 {
		t.Fatalf("Run returned %v, want 10", end)
	}
	r.want(t, "a@10", "end@10")
	if r.e.Pending() != 0 {
		t.Fatal("queue not drained")
	}
}

func TestInstantEndRunUntil(t *testing.T) {
	t.Run("deadline", func(t *testing.T) {
		r := newHookRig()
		r.e.At(10, r.arming("a"))
		r.e.At(20, r.arming("b"))
		r.e.At(30, r.arming("c"))
		r.e.RunUntil(20)
		r.want(t, "a@10", "end@10", "b@20", "end@20")
		if r.e.Now() != 20 || r.e.Pending() != 1 {
			t.Fatalf("now=%v pending=%d, want 20/1", r.e.Now(), r.e.Pending())
		}
	})
	t.Run("cap", func(t *testing.T) {
		r := newHookRig()
		r.e.At(10, func(now Time) {
			r.arming("a")(now)
			r.e.CapRun(now)
		})
		r.e.At(20, r.arming("b"))
		r.e.RunUntil(50)
		r.want(t, "a@10", "end@10")
		if r.e.Now() != 10 || r.e.Pending() != 1 {
			t.Fatalf("now=%v pending=%d, want 10/1", r.e.Now(), r.e.Pending())
		}
	})
}

func TestInstantEndRunBudgetAndStop(t *testing.T) {
	t.Run("budget mid-instant", func(t *testing.T) {
		r := newHookRig()
		r.e.At(10, r.arming("a"))
		r.e.At(10, r.arming("b"))
		r.e.Run(1)
		r.want(t, "a@10") // b is still due at 10
		r.e.Run(0)
		r.want(t, "a@10", "b@10", "end@10")
	})
	t.Run("budget at instant end", func(t *testing.T) {
		r := newHookRig()
		r.e.At(10, r.arming("a"))
		r.e.At(20, r.arming("b"))
		r.e.Run(1)
		r.want(t, "a@10", "end@10")
	})
	t.Run("stop", func(t *testing.T) {
		r := newHookRig()
		r.e.At(10, func(now Time) {
			r.arming("a")(now)
			r.e.Stop()
		})
		r.e.At(20, r.arming("b"))
		r.e.Run(0)
		r.want(t, "a@10", "end@10")
		if r.e.Pending() != 1 {
			t.Fatalf("pending = %d, want 1 after Stop", r.e.Pending())
		}
	})
}

func TestInstantEndResetDisarms(t *testing.T) {
	r := newHookRig()
	r.e.At(10, r.arming("a"))
	r.e.At(10, r.arming("b"))
	r.e.Run(1) // a armed the hook; b keeps the instant open
	r.e.Reset()
	r.e.At(5, func(now Time) { r.note("c", now) })
	r.e.Run(0)
	r.want(t, "a@10", "c@5")
}

func TestSetClockPanicsWhileInstantEndArmed(t *testing.T) {
	r := newHookRig()
	r.e.ArmInstantEnd()
	defer func() {
		if recover() == nil {
			t.Fatal("SetClock with the hook armed did not panic")
		}
	}()
	r.e.SetClock(EngineClock{Now: 100})
}
