package sim

import "testing"

// BenchmarkScheduleFire measures the steady-state schedule+fire cycle: each
// fired event schedules its successor, so the queue stays at a constant
// depth. The target is zero allocations per event once the heap is warm.
func BenchmarkScheduleFire(b *testing.B) {
	e := NewEngine()
	n := 0
	var step Event
	step = func(now Time) {
		n++
		if n < b.N {
			e.After(1, step)
		}
	}
	// Keep a realistic queue depth: 64 chains interleaved.
	const chains = 64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < chains && i < b.N; i++ {
		e.After(Time(i+1), step)
	}
	e.Run(0)
	if n < b.N && b.N > chains {
		b.Fatalf("ran %d events, want %d", n, b.N)
	}
}

// BenchmarkTimerFire is the same steady-state cycle through the reusable
// Timer API — the hot-path pattern model components use.
func BenchmarkTimerFire(b *testing.B) {
	e := NewEngine()
	n := 0
	var t *Timer
	t = NewTimer(func(now Time) {
		n++
		if n < b.N {
			e.AfterTimer(1, t)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.AfterTimer(1, t)
	e.Run(0)
	if n != b.N {
		b.Fatalf("ran %d events, want %d", n, b.N)
	}
}
