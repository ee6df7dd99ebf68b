package sim

// Warm-state export/import accessors. A drained device checkpoints by
// capturing the exact internal state of its statistics and randomness
// primitives, and a restored device re-imports it verbatim, so the
// restored run continues byte-identically to one that replayed the
// warm-up. Each State type is a plain value mirror of the unexported
// fields; no invariants are re-derived on import beyond slice ownership
// (imports copy, so a decoded snapshot buffer can be reused).

// State returns the generator's raw state word.
func (r *Rand) State() uint64 { return r.state }

// SetState rewinds the generator to a previously captured state word.
func (r *Rand) SetState(s uint64) { r.state = s }

// TimedCounterState is the full state of a TimedCounter.
type TimedCounterState struct {
	On    bool
	Since Time
	Total Time
}

// State captures the counter.
func (c *TimedCounter) State() TimedCounterState {
	return TimedCounterState{On: c.on, Since: c.since, Total: c.total}
}

// SetState restores a captured counter.
func (c *TimedCounter) SetState(st TimedCounterState) {
	c.on, c.since, c.total = st.On, st.Since, st.Total
}

// WeightedSumState is the full state of a WeightedSum.
type WeightedSumState struct {
	Value float64
	Since Time
	Sum   float64
	Start Time
	Began bool
}

// State captures the integrator.
func (w *WeightedSum) State() WeightedSumState {
	return WeightedSumState{Value: w.value, Since: w.since, Sum: w.sum, Start: w.start, Began: w.began}
}

// SetState restores a captured integrator.
func (w *WeightedSum) SetState(st WeightedSumState) {
	w.value, w.since, w.sum, w.start, w.began = st.Value, st.Since, st.Sum, st.Start, st.Began
}

// HistogramState is the full state of a Histogram: exact-mode retained
// samples (in observation order is not preserved — exported storage is
// sorted first, which is observationally identical for every Histogram
// read path) or the bucketed estimator's counters, plus the exact
// scalars maintained in both modes.
type HistogramState struct {
	Samples []float64
	Sum     float64
	SumSq   float64
	Cap     int
	Buckets []uint64
	Count   int64
	Min     float64
	Max     float64
}

// ExportState captures the histogram. Exact-mode sample storage is
// sorted in place first so the export is canonical: two
// histograms that observed the same multiset export identical state.
// The returned slices alias the histogram's storage — callers that
// retain the state across further Observes must copy.
func (h *Histogram) ExportState() HistogramState {
	h.ensureSorted()
	return HistogramState{
		Samples: h.samples,
		Sum:     h.sum,
		SumSq:   h.sumsq,
		Cap:     h.cap,
		Buckets: h.buckets,
		Count:   h.count,
		Min:     h.min,
		Max:     h.max,
	}
}

// ImportState restores a captured histogram, copying the slices so the
// histogram owns its storage. Exact-mode samples are assumed sorted
// (ExportState guarantees it); an unsorted import would only cost a
// re-sort on the first percentile read, never a wrong answer, because
// the sorted flag is re-derived here.
func (h *Histogram) ImportState(st HistogramState) {
	h.samples = append(h.samples[:0:0], st.Samples...)
	h.sum, h.sumsq = st.Sum, st.SumSq
	h.cap = st.Cap
	h.buckets = nil
	if st.Buckets != nil {
		h.buckets = append([]uint64(nil), st.Buckets...)
	}
	h.count = st.Count
	h.min, h.max = st.Min, st.Max
	h.sorted = sortedFloat64s(h.samples)
}

func sortedFloat64s(v []float64) bool {
	for i := 1; i < len(v); i++ {
		if v[i] < v[i-1] {
			return false
		}
	}
	return true
}

// EngineClock is the persistent part of an Engine: the simulation time,
// the schedule-order sequence counter (same-instant tie-breaks), and the
// fired-event count. The event queue itself is never part of a
// checkpoint — checkpoints are taken at quiescence, when the queue is
// empty.
type EngineClock struct {
	Now   Time
	Seq   uint64
	Fired uint64
}

// Clock captures the engine's clock state.
func (e *Engine) Clock() EngineClock {
	return EngineClock{Now: e.now, Seq: e.seq, Fired: e.fired}
}

// SetClock restores a captured clock. The engine must be drained: a
// pending event belonging to the old clock would fire out of order under
// the new one.
func (e *Engine) SetClock(c EngineClock) {
	if len(e.heap) != 0 {
		panic("sim: SetClock on an engine with pending events")
	}
	e.now, e.seq, e.fired = c.Now, c.Seq, c.Fired
}
