package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestTimedCounterBasic(t *testing.T) {
	var c TimedCounter
	c.Set(10, true)
	c.Set(30, false)
	if got := c.Total(100); got != 20 {
		t.Fatalf("Total = %v, want 20", got)
	}
}

func TestTimedCounterOpenInterval(t *testing.T) {
	var c TimedCounter
	c.Set(10, true)
	if got := c.Total(25); got != 15 {
		t.Fatalf("open-interval Total = %v, want 15", got)
	}
	// Reading Total must not close the interval.
	if got := c.Total(35); got != 25 {
		t.Fatalf("second Total = %v, want 25", got)
	}
}

func TestTimedCounterRedundantSet(t *testing.T) {
	var c TimedCounter
	c.Set(10, true)
	c.Set(15, true) // no-op
	c.Set(20, false)
	c.Set(25, false) // no-op
	if got := c.Total(100); got != 10 {
		t.Fatalf("Total = %v, want 10", got)
	}
}

func TestTimedCounterMultipleIntervals(t *testing.T) {
	var c TimedCounter
	for i := Time(0); i < 10; i++ {
		c.Set(i*10, true)
		c.Set(i*10+3, false)
	}
	if got := c.Total(200); got != 30 {
		t.Fatalf("Total = %v, want 30", got)
	}
}

func TestWeightedSumMean(t *testing.T) {
	var w WeightedSum
	w.Set(0, 2)
	w.Set(10, 4)
	w.Set(20, 0)
	// 2 for 10ns + 4 for 10ns = 60 over 40ns => a time-weighted mean of 1.5
	if got := w.Integral(40) / 40; math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("Integral/40 = %v, want 1.5", got)
	}
}

func TestWeightedSumAdd(t *testing.T) {
	var w WeightedSum
	w.Set(0, 0)
	w.Set(5, 3)  // +3
	w.Set(10, 2) // -1
	// 0*5 + 3*5 + 2*10 = 35 over 20
	if got := w.Integral(20); math.Abs(got-35) > 1e-12 {
		t.Fatalf("Integral = %v, want 35", got)
	}
}

func TestWeightedSumIntegral(t *testing.T) {
	var w WeightedSum
	w.Set(5, 2)
	w.Set(15, 4)
	w.Set(25, 0)
	// Integration starts at the first Set: 2 for 10ns + 4 for 10ns + 0 for 15ns.
	if got := w.Integral(40); math.Abs(got-60) > 1e-12 {
		t.Fatalf("Integral = %v, want 60", got)
	}
	// An open interval counts through now without closing it.
	w.Set(40, 3)
	if got := w.Integral(50); math.Abs(got-90) > 1e-12 {
		t.Fatalf("Integral = %v, want 90", got)
	}
}

func TestWeightedSumBeforeFirstSet(t *testing.T) {
	var w WeightedSum
	if w.Integral(100) != 0 {
		t.Fatal("unset WeightedSum should report zero")
	}
}

func TestHistogramStats(t *testing.T) {
	var h Histogram
	for _, v := range []float64{5, 1, 3, 2, 4} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d, want 5", h.Count())
	}
	if h.Mean() != 3 {
		t.Fatalf("Mean = %v, want 3", h.Mean())
	}
	if h.Max() != 5 {
		t.Fatalf("Max = %v, want 5", h.Max())
	}
	if got := h.Percentile(50); got != 3 {
		t.Fatalf("p50 = %v, want 3", got)
	}
	if got := h.Percentile(100); got != 5 {
		t.Fatalf("p100 = %v, want 5", got)
	}
	if got := h.Percentile(0); got != 1 {
		t.Fatalf("p0 = %v, want 1", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Max() != 0 || h.Percentile(0) != 0 || h.Percentile(50) != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestHistogramObserveAfterPercentile(t *testing.T) {
	var h Histogram
	h.Observe(10)
	_ = h.Percentile(50)
	h.Observe(1) // must re-sort
	if got := h.Percentile(0); got != 1 {
		t.Fatalf("p0 after late Observe = %v, want 1", got)
	}
	if got := h.Percentile(50); got != 1 {
		t.Fatalf("p50 after late Observe = %v, want 1", got)
	}
}

// Regression for the sorted-flag interplay: monotone Observe streams
// interleaved with Percentile queries must never invalidate the sorted
// invariant, so no Percentile call after the first pays a re-sort. An
// out-of-order sample must still invalidate it.
func TestHistogramInterleavedObservePercentileKeepsSorted(t *testing.T) {
	var h Histogram
	for i := 0; i < 1000; i++ {
		h.Observe(float64(i))
		if p := h.Percentile(50); p < 0 {
			t.Fatal("bogus percentile")
		}
		if !h.sorted {
			t.Fatalf("sorted invariant lost after in-order sample %d", i)
		}
	}
	h.Observe(-1) // out of order: now a re-sort is genuinely required
	if h.sorted {
		t.Fatal("out-of-order sample left histogram marked sorted")
	}
	if got := h.Percentile(0); got != -1 {
		t.Fatalf("p0 = %v, want -1", got)
	}
	if got := h.Percentile(50); got != 499 {
		t.Fatalf("p50 = %v, want 499", got)
	}
	if !h.sorted {
		t.Fatal("rank percentile did not restore the sorted invariant")
	}
}

// TestHistogramSpillsAtCap pins the hybrid switch: at the cap the
// histogram converts to fixed-memory buckets, keeps exact count/sum/
// min/max, estimates percentiles within the bucket relative error, and
// stops growing.
func TestHistogramSpillsAtCap(t *testing.T) {
	var h Histogram
	h.SetCap(1000)
	rng := NewRand(3)
	var exact []float64
	for i := 0; i < 50_000; i++ {
		v := float64(100 + rng.Int63n(10_000_000))
		exact = append(exact, v)
		h.Observe(v)
	}
	if !h.Bucketed() {
		t.Fatal("histogram did not spill past its cap")
	}
	if h.Count() != len(exact) {
		t.Fatalf("Count = %d, want %d", h.Count(), len(exact))
	}
	var sum, min, max float64
	min, max = exact[0], exact[0]
	for _, v := range exact {
		sum += v
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if h.Sum() != sum || h.Percentile(0) != min || h.Max() != max {
		t.Fatalf("exact scalars drifted: sum %v/%v min %v/%v max %v/%v",
			h.Sum(), sum, h.Percentile(0), min, h.Max(), max)
	}
	sorted := append([]float64(nil), exact...)
	sort.Float64s(sorted)
	for _, p := range []float64{1, 25, 50, 90, 99, 99.9} {
		want := sorted[int(p/100*float64(len(sorted))+0.999)-1]
		got := h.Percentile(p)
		if rel := math.Abs(got-want) / want; rel > 0.01 {
			t.Fatalf("p%v = %v, exact %v (rel err %.4f > 1%%)", p, got, want, rel)
		}
	}
	if fp := h.MemFootprint(); fp > 64*1024 {
		t.Fatalf("bucketed footprint %d bytes, want <= 64 KB", fp)
	}
}

// TestHistogramBucketedRange pins the bucket coverage: multi-second
// latencies (overloaded open-loop runs routinely exceed 4.3e9 ns) must
// estimate within the error bound, not clamp at a range edge.
func TestHistogramBucketedRange(t *testing.T) {
	var h Histogram
	h.SetCap(-1)
	h.Observe(1e3)
	h.Observe(60e9) // 60 s
	h.Observe(60e9)
	if got, want := h.Percentile(99), 60e9; math.Abs(got-want)/want > 0.01 {
		t.Fatalf("p99 = %v, want ~%v (multi-second latency clamped?)", got, want)
	}
	if got := h.Percentile(1); math.Abs(got-1e3)/1e3 > 0.01 {
		t.Fatalf("p1 = %v, want ~1e3", got)
	}
	// Out-of-range values clamp to the exact extremes, not garbage.
	var lo Histogram
	lo.SetCap(-1)
	lo.Observe(0.25)
	if got := lo.Percentile(50); got != 0.25 {
		t.Fatalf("sub-unit sample p50 = %v, want clamped 0.25", got)
	}
}

// TestHistogramNegativeCapStartsBucketed covers the immediate-streaming
// mode used by unbounded soak runs.
func TestHistogramNegativeCapStartsBucketed(t *testing.T) {
	var h Histogram
	h.SetCap(-1)
	h.Observe(42)
	if !h.Bucketed() {
		t.Fatal("negative cap should bucket from the first sample")
	}
	if h.Count() != 1 || h.Sum() != 42 || h.Percentile(0) != 42 || h.Max() != 42 {
		t.Fatal("scalar stats wrong in immediate bucketed mode")
	}
	if got := h.Percentile(50); math.Abs(got-42)/42 > 0.01 {
		t.Fatalf("p50 = %v, want ~42", got)
	}
}

// TestHistogramSetCapAfterObservePanics pins the misuse guard.
func TestHistogramSetCapAfterObservePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SetCap after Observe must panic")
		}
	}()
	var h Histogram
	h.Observe(1)
	h.SetCap(10)
}

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed generators diverged")
		}
	}
}

func TestRandZeroSeed(t *testing.T) {
	r := NewRand(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced degenerate stream")
	}
}

func TestRandIntnRange(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d out of range", v)
		}
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 1000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of range", v)
		}
	}
}

func TestRandPanics(t *testing.T) {
	r := NewRand(1)
	for _, fn := range []func(){
		func() { r.Intn(0) },
		func() { r.Int63n(-5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic on non-positive bound")
				}
			}()
			fn()
		}()
	}
}

// Property: TimedCounter total never exceeds elapsed time and is
// nonnegative, for any sequence of toggles.
func TestTimedCounterBoundsProperty(t *testing.T) {
	prop := func(toggles []bool) bool {
		var c TimedCounter
		now := Time(0)
		for _, on := range toggles {
			now += 7
			c.Set(now, on)
		}
		total := c.Total(now + 100)
		return total >= 0 && total <= now+100
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: histogram percentiles are monotone in p.
func TestHistogramMonotoneProperty(t *testing.T) {
	prop := func(vals []float64, a, b uint8) bool {
		var h Histogram
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			h.Observe(v)
		}
		pa, pb := float64(a%101), float64(b%101)
		if pa > pb {
			pa, pb = pb, pa
		}
		return h.Percentile(pa) <= h.Percentile(pb)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
