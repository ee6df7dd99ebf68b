package bus

import (
	"fmt"
	"reflect"
	"testing"

	"sprinkler/internal/sim"
)

func TestBusGrantsImmediatelyWhenIdle(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng, 0)
	var start sim.Time = -1
	b.Acquire(100, func(s sim.Time) { start = s }, nil)
	if start != 0 {
		t.Fatalf("idle bus granted at %v, want 0", start)
	}
	if !b.Busy() {
		t.Fatal("bus should be busy after grant")
	}
	eng.Run(0)
	if b.Busy() {
		t.Fatal("bus should free itself after duration")
	}
}

func TestBusFIFOOrder(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng, 0)
	var starts []sim.Time
	for i := 0; i < 3; i++ {
		b.Acquire(100, func(s sim.Time) { starts = append(starts, s) }, nil)
	}
	eng.Run(0)
	want := []sim.Time{0, 100, 200}
	for i, w := range want {
		if starts[i] != w {
			t.Fatalf("grant %d at %v, want %v (all %v)", i, starts[i], w, starts)
		}
	}
	if b.Grants() != 3 {
		t.Fatalf("grants = %d, want 3", b.Grants())
	}
}

func TestBusWaitAccounting(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng, 0)
	b.Acquire(100, func(sim.Time) {}, nil)
	b.Acquire(50, func(sim.Time) {}, nil)
	eng.Run(0)
	if got := b.WaitTime(); got != 100 {
		t.Fatalf("wait time = %v, want 100", got)
	}
	if got := b.BusyTime(eng.Now()); got != 150 {
		t.Fatalf("busy time = %v, want 150", got)
	}
}

func TestBusQueueLen(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng, 0)
	b.Acquire(10, func(sim.Time) {}, nil)
	b.Acquire(10, func(sim.Time) {}, nil)
	b.Acquire(10, func(sim.Time) {}, nil)
	if b.QueueLen() != 2 {
		t.Fatalf("queue len = %d, want 2", b.QueueLen())
	}
	eng.Run(0)
	if b.QueueLen() != 0 {
		t.Fatalf("queue len after drain = %d, want 0", b.QueueLen())
	}
}

func TestBusAcquireDuringHold(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng, 0)
	var second sim.Time = -1
	b.Acquire(100, func(s sim.Time) {
		// While holding, another user asks at t=40.
		eng.At(40, func(sim.Time) {
			b.Acquire(10, func(s2 sim.Time) { second = s2 }, nil)
		})
	}, nil)
	eng.Run(0)
	if second != 100 {
		t.Fatalf("second grant at %v, want 100", second)
	}
	if got := b.WaitTime(); got != 60 {
		t.Fatalf("wait = %v, want 60", got)
	}
}

// busLog records bus callbacks as "name@time" in call order.
type busLog []string

func (l *busLog) at(name string) func(sim.Time) {
	return func(now sim.Time) { *l = append(*l, fmt.Sprintf("%s@%d", name, now)) }
}

func (l *busLog) want(t *testing.T, want ...string) {
	t.Helper()
	if !reflect.DeepEqual([]string(*l), want) {
		t.Fatalf("callback order = %v, want %v", *l, want)
	}
}

func TestBusDoneRunsBeforeNextGrant(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng, 0)
	var log busLog
	b.Acquire(100, log.at("grantA"), func(now sim.Time) {
		if !b.Busy() {
			t.Error("bus already free inside the holder's done")
		}
		log.at("doneA")(now)
	})
	b.Acquire(50, log.at("grantB"), log.at("doneB"))
	eng.Run(0)
	log.want(t, "grantA@0", "doneA@100", "grantB@100", "doneB@150")
	// The hold end rides the release event: one event per hold.
	if got := eng.Fired(); got != 2 {
		t.Fatalf("fired %d events for two holds, want 2", got)
	}
}

func TestBusAcquireFromDoneQueuesBehindWaiters(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng, 0)
	var log busLog
	b.Acquire(100, log.at("grantA"), func(now sim.Time) {
		log.at("doneA")(now)
		b.Acquire(10, log.at("grantC"), log.at("doneC"))
	})
	b.Acquire(50, log.at("grantB"), log.at("doneB"))
	eng.Run(0)
	log.want(t, "grantA@0", "doneA@100", "grantB@100", "doneB@150", "grantC@150", "doneC@160")
	if got := b.WaitTime(); got != 100+50 {
		t.Fatalf("wait = %v, want 150", got)
	}
}

func TestBusResetDropsPendingDone(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng, 0)
	var log busLog
	b.Acquire(100, log.at("grantA"), log.at("doneA"))
	b.Acquire(100, log.at("grantB"), log.at("doneB"))
	eng.Reset()
	b.Reset()
	b.Acquire(10, log.at("grantC"), log.at("doneC"))
	eng.Run(0)
	log.want(t, "grantA@0", "grantC@0", "doneC@10")
	if b.Busy() || b.QueueLen() != 0 || b.Grants() != 1 {
		t.Fatalf("after reset and one hold: busy=%v queue=%d grants=%d", b.Busy(), b.QueueLen(), b.Grants())
	}
}

func TestBusZeroDuration(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng, 0)
	var log busLog
	eng.At(30, func(sim.Time) { b.Acquire(0, log.at("grant"), log.at("done")) })
	eng.Run(0)
	log.want(t, "grant@30", "done@30")
	if b.Busy() {
		t.Fatal("bus stuck busy after zero-duration grant")
	}
}

func TestBusNegativeDurationPanics(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("negative duration did not panic")
		}
	}()
	b.Acquire(-1, func(sim.Time) {}, nil)
}

func TestBusUtilizationUnderLoad(t *testing.T) {
	// With back-to-back grants the bus should be 100% busy.
	eng := sim.NewEngine()
	b := New(eng, 0)
	for i := 0; i < 10; i++ {
		b.Acquire(77, func(sim.Time) {}, nil)
	}
	end := eng.Run(0)
	if end != 770 {
		t.Fatalf("end = %v, want 770", end)
	}
	if got := b.BusyTime(end); got != 770 {
		t.Fatalf("busy = %v, want 770", got)
	}
}

func TestBusID(t *testing.T) {
	eng := sim.NewEngine()
	if got := New(eng, 7).ID(); got != 7 {
		t.Fatalf("ID = %d, want 7", got)
	}
}
