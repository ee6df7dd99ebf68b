package sim

import (
	"math"
	"sort"
)

// TimedCounter accumulates the time a boolean condition holds, e.g. "chip
// busy" or "queue full". Callers flip the condition with Set and read the
// total with Total.
type TimedCounter struct {
	on    bool
	since Time
	total Time
}

// Set records a condition transition at time now. Setting the same state
// twice is a no-op, so callers need not track edges themselves.
func (c *TimedCounter) Set(now Time, on bool) {
	if on == c.on {
		return
	}
	if c.on {
		c.total += now - c.since
	}
	c.on = on
	c.since = now
}

// Total returns the accumulated on-time through now.
func (c *TimedCounter) Total(now Time) Time {
	t := c.total
	if c.on {
		t += now - c.since
	}
	return t
}

// WeightedSum integrates a piecewise-constant value over time, e.g. "number
// of active dies". Integral(now) gives the accumulated value·time.
type WeightedSum struct {
	value float64
	since Time
	sum   float64 // ∫ value dt, in value·ns
	start Time
	began bool
}

// Set changes the integrated value at time now.
func (w *WeightedSum) Set(now Time, v float64) {
	if !w.began {
		w.began = true
		w.start = now
		w.since = now
		w.value = v
		return
	}
	w.sum += w.value * float64(now-w.since)
	w.value = v
	w.since = now
}

// Integral returns ∫ value dt from the first Set through now.
func (w *WeightedSum) Integral(now Time) float64 {
	if !w.began {
		return 0
	}
	return w.sum + w.value*float64(now-w.since)
}

// DefaultHistogramCap is the exact-sample retention limit of a Histogram
// whose cap was not set explicitly: runs up to one million samples keep
// every sample (byte-identical order statistics); longer runs switch to the
// fixed-memory bucketed estimator.
const DefaultHistogramCap = 1 << 20

// Bucketed-mode geometry: values are assigned to geometrically spaced
// buckets v ∈ [gamma^i, gamma^(i+1)) with gamma = 2^(1/64), i.e. 64
// buckets per octave — a worst-case relative quantile error of ~0.55%.
// 64 octaves starting at 1 cover [1, 2^64) — every latency a simulation
// can produce, from 1 ns through ~5 centuries in ns — so the bucket
// array is a fixed 4096 counters (32 KB) regardless of run length.
// Values below 1 clamp into bucket 0, values at or above 2^64 into the
// top bucket.
const (
	bucketsPerOctave = 64
	bucketOctaves    = 64
	numBuckets       = bucketsPerOctave * bucketOctaves
	// bucketMinExp is the exponent of octave 0's floor: octave 0 holds
	// values in [1, 2).
	bucketMinExp = 0
)

// Histogram is a scalar sample accumulator with order statistics, designed
// for arbitrarily long runs at bounded memory. Up to Cap samples (default
// DefaultHistogramCap) it retains every sample and reports exact
// nearest-rank percentiles — the mode every golden/determinism test runs
// in. Beyond the cap it spills retained samples into a fixed array of
// log-spaced buckets and reports percentile estimates with ≤0.8% relative
// error; Count, Sum, Mean, Max and the minimum (Percentile(0)) stay exact
// in both modes.
//
// The zero value is ready to use.
type Histogram struct {
	samples []float64
	sum     float64
	sumsq   float64
	sorted  bool

	// cap is the exact-mode retention limit; 0 means DefaultHistogramCap.
	cap int

	// Bucketed-mode state. buckets is nil while exact; count/min/max are
	// maintained in both modes so the switch loses no exact scalar.
	buckets  []uint64
	count    int64
	min, max float64
}

// SetCap sets the exact-sample retention limit: observations beyond cap
// switch the histogram to the fixed-memory bucketed estimator. A zero cap
// selects DefaultHistogramCap; a negative cap switches to bucketed mode on
// the first observation. Must be called before the first Observe.
func (h *Histogram) SetCap(cap int) {
	if h.count != 0 {
		panic("sim: Histogram.SetCap after Observe")
	}
	h.cap = cap
}

// Reset empties the histogram for a new run with the given exact-sample
// cap (same semantics as SetCap), reusing its sample storage. The bucket
// array is dropped: a reset histogram starts in exact mode like a new one.
func (h *Histogram) Reset(cap int) {
	h.samples = h.samples[:0]
	h.sum, h.sumsq = 0, 0
	h.sorted = false
	h.cap = cap
	h.buckets = nil
	h.count = 0
	h.min, h.max = 0, 0
}

// effCap resolves the exact-mode retention limit.
func (h *Histogram) effCap() int {
	if h.cap == 0 {
		return DefaultHistogramCap
	}
	if h.cap < 0 {
		return 0
	}
	return h.cap
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.sumsq += v * v
	if h.buckets != nil {
		h.buckets[bucketIndex(v)]++
		return
	}
	if len(h.samples) >= h.effCap() {
		h.spill()
		h.buckets[bucketIndex(v)]++
		return
	}
	// Keep the sorted invariant when appends arrive in order: a sorted
	// histogram only becomes unsorted when a sample actually lands out of
	// order, so interleaved Observe/Percentile sequences over monotone
	// data never re-sort. len==0 counts as sorted.
	if len(h.samples) == 0 {
		h.sorted = true
	} else if h.sorted && v < h.samples[len(h.samples)-1] {
		h.sorted = false
	}
	h.samples = append(h.samples, v)
}

// spill converts to bucketed mode, folding every retained sample into the
// fixed bucket array and releasing the sample memory.
func (h *Histogram) spill() {
	h.buckets = make([]uint64, numBuckets)
	for _, v := range h.samples {
		h.buckets[bucketIndex(v)]++
	}
	h.samples = nil
	h.sorted = false
}

// Bucketed reports whether the histogram has switched to the fixed-memory
// estimator (percentiles are approximate).
func (h *Histogram) Bucketed() bool { return h.buckets != nil }

// bucketIndex maps a value to its log-spaced bucket. Non-positive values
// (latencies of zero-duration events) land in bucket 0; values beyond the
// covered range clamp to the edge buckets.
func bucketIndex(v float64) int {
	if v <= 0 || math.IsNaN(v) {
		return 0
	}
	frac, exp := math.Frexp(v) // v = frac * 2^exp, frac in [0.5, 1)
	// Sub-octave position from the fraction: log2(2*frac) in [0, 1).
	sub := int(math.Log2(frac*2) * bucketsPerOctave)
	if sub < 0 {
		sub = 0
	} else if sub >= bucketsPerOctave {
		sub = bucketsPerOctave - 1
	}
	oct := exp - 1 - bucketMinExp // exponent of v's octave floor
	if oct < 0 {
		return 0
	}
	if oct >= bucketOctaves {
		return numBuckets - 1
	}
	return oct*bucketsPerOctave + sub
}

// bucketValue returns the representative value (geometric midpoint) of a
// bucket.
func bucketValue(i int) float64 {
	oct := i/bucketsPerOctave + bucketMinExp
	sub := i % bucketsPerOctave
	return math.Exp2(float64(oct) + (float64(sub)+0.5)/bucketsPerOctave)
}

// Count returns the number of samples.
func (h *Histogram) Count() int { return int(h.count) }

// Sum returns the sum of samples.
func (h *Histogram) Sum() float64 { return h.sum }

// Mean returns the sample mean, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Max returns the largest sample, or 0 with no samples. Exact in both
// modes.
func (h *Histogram) Max() float64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Percentile returns the p-th percentile (0 <= p <= 100) by nearest-rank:
// exact while the histogram retains samples, a ≤0.8%-relative-error
// estimate in bucketed mode (clamped to the exact sample range).
func (h *Histogram) Percentile(p float64) float64 {
	if h.count == 0 {
		return 0
	}
	if p <= 0 {
		return h.min
	}
	if p >= 100 {
		return h.max
	}
	rank := int64(math.Ceil(p / 100 * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	if h.buckets == nil {
		h.ensureSorted()
		return h.samples[rank-1]
	}
	var cum int64
	for i, c := range h.buckets {
		cum += int64(c)
		if cum >= rank {
			v := bucketValue(i)
			// The exact extremes bound every estimate.
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

func (h *Histogram) ensureSorted() {
	if h.sorted {
		return
	}
	sort.Float64s(h.samples)
	h.sorted = true
}

// MemFootprint returns the bytes retained for sample storage — the
// quantity the long-run soak test asserts is bounded.
func (h *Histogram) MemFootprint() int {
	return 8 * (cap(h.samples) + len(h.buckets))
}
