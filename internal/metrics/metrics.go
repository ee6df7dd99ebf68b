// Package metrics defines the measurement results of a simulation run and
// the derived quantities the paper's evaluation reports: bandwidth, IOPS,
// device-level latency, queue stall time, chip utilization, inter- and
// intra-chip idleness (§5.3), execution-time breakdown (§5.5) and the
// flash-level parallelism breakdown (§5.6).
package metrics

import (
	"fmt"
	"strings"

	"sprinkler/internal/flash"
	"sprinkler/internal/ftl"
	"sprinkler/internal/sim"
)

// ChipSample is one chip's occupancy accounting over a finished run.
type ChipSample struct {
	Busy             sim.Time // R/B asserted
	CellActive       sim.Time // array operations in flight
	BusActive        sim.Time // holding the channel bus
	BusWait          sim.Time // waiting for the channel bus
	PlaneUseIntegral float64  // ∫ active (die,plane) pairs dt during cell phases
	Txns             int64
	TxnsByClass      [4]int64
	ReqsByClass      [4]int64
	Requests         int64

	// Fault-model outcomes (zero when fault injection is disabled).
	ReadRetries       int64
	ReadUncorrectable int64
	ProgramFails      int64
	EraseFails        int64
}

// Breakdown is the §5.5 execution-time decomposition, as fractions of
// total chip-time that sum to 1 with Idle.
type Breakdown struct {
	BusOp         float64
	BusContention float64
	CellOp        float64
	Idle          float64
}

// FLPBreakdown gives the share of served memory requests per FLP class
// (§5.6). Shares sum to 1 when any request was served.
type FLPBreakdown struct {
	Share [4]float64 // indexed by flash.FLPClass
}

// SeriesPoint is one completed I/O in arrival order, for the Figure 12
// time-series analysis.
type SeriesPoint struct {
	Index   int64
	Arrival sim.Time
	Latency sim.Time
}

// Latency summarizes the device-level response time per I/O request
// (§5.2) when the Result is rendered. Estimated marks P50 and P99 read
// off the bucketed estimator; the other fields are always exact.
type Latency struct {
	Count                    int64
	Sum, Mean, P50, P99, Max float64
	Estimated                bool
}

// Result aggregates everything a run measures.
type Result struct {
	Scheduler string

	Duration     sim.Time
	IOsCompleted int64
	BytesRead    int64
	BytesWritten int64

	// Latency is the device-level response time per I/O request (§5.2).
	Latency Latency

	// QueueFullTime is how long the device-level queue was full with the
	// host blocked behind it.
	QueueFullTime sim.Time

	// ChipUtilization is the mean fraction of time chips were busy (R/B
	// asserted) — the "contribution of busy cycles to total execution
	// cycles" of Figure 6.
	ChipUtilization float64

	// InterChipIdleness is the mean fraction of chips sitting fully idle
	// while the device had work outstanding (§5.3).
	InterChipIdleness float64

	// IntraChipIdleness is the unused die/plane share of busy chips' cell
	// time: 1 - (plane-use integral / (maxFLP · cell-active time)).
	IntraChipIdleness float64

	// MemoryLevelIdleness is the idle share of every (die, plane) resource
	// in the SSD while the device had work — the "memory-level idleness"
	// curve of Figure 1b, which grows as chips are added faster than the
	// workload can use them.
	MemoryLevelIdleness float64

	// BusyChipIntegral is ∫(busy chips)dt gated on system-busy time,
	// SysBusyTime the gate's total, and Chips the platform chip count —
	// the raw inputs behind ChipUtilization, exposed so mid-run snapshot
	// deltas can compute windowed utilization.
	BusyChipIntegral float64
	SysBusyTime      sim.Time
	Chips            int

	Exec Breakdown
	FLP  FLPBreakdown

	Transactions int64
	TxnsByClass  [4]int64
	Requests     int64
	// AvgFLPDegree is memory requests per transaction — FARO's
	// transaction-reduction lever (§5.8).
	AvgFLPDegree float64

	StaleRetranslations int64
	GC                  ftl.Stats

	// Fault-injection outcomes: chip-level counters summed over the
	// platform plus the host-visible failed-I/O count. DegradedMode
	// mirrors the FTL's read-only flag (spare pool exhausted, or no space
	// left for a write).
	ReadRetries       int64
	ReadUncorrectable int64
	ProgramFails      int64
	EraseFails        int64
	FailedIOs         int64
	DegradedMode      bool

	Series []SeriesPoint
}

// BandwidthKBps returns completed bytes per second in KB/s (the unit of
// Figures 10a and 17).
func (r *Result) BandwidthKBps() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.BytesRead+r.BytesWritten) / 1024 / r.Duration.Seconds()
}

// IOPS returns completed I/O requests per second.
func (r *Result) IOPS() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.IOsCompleted) / r.Duration.Seconds()
}

// AvgLatency returns the mean device-level latency.
func (r *Result) AvgLatency() sim.Time {
	return sim.Time(r.Latency.Mean)
}

// QueueStallFraction returns queue-full time over run duration.
func (r *Result) QueueStallFraction() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.QueueFullTime) / float64(r.Duration)
}

// Compute fills the chip-derived fields of r from per-chip samples.
// busyChipIntegral is ∫(number of busy chips)dt restricted to system-busy
// time sysBusy; geo supplies chip counts and the max FLP degree.
func (r *Result) Compute(geo flash.Geometry, chips []ChipSample, busyChipIntegral float64, sysBusy sim.Time) {
	n := len(chips)
	if n == 0 || r.Duration <= 0 {
		return
	}
	var busy, cell, busAct, busWait sim.Time
	var planeUse float64
	var reqsByClass [4]int64
	for _, c := range chips {
		busy += c.Busy
		cell += c.CellActive
		busAct += c.BusActive
		busWait += c.BusWait
		planeUse += c.PlaneUseIntegral
		r.Transactions += c.Txns
		r.Requests += c.Requests
		r.ReadRetries += c.ReadRetries
		r.ReadUncorrectable += c.ReadUncorrectable
		r.ProgramFails += c.ProgramFails
		r.EraseFails += c.EraseFails
		for i, v := range c.TxnsByClass {
			r.TxnsByClass[i] += v
		}
		for i, v := range c.ReqsByClass {
			reqsByClass[i] += v
		}
	}
	r.BusyChipIntegral = busyChipIntegral
	r.SysBusyTime = sysBusy
	r.Chips = n
	total := float64(r.Duration) * float64(n)
	// Utilization is the contribution of busy cycles to execution cycles
	// while the device has work (Figure 6's definition): chips sitting
	// idle during host-idle periods are not the scheduler's fault.
	if sysBusy > 0 {
		r.ChipUtilization = busyChipIntegral / (float64(n) * float64(sysBusy))
	} else {
		r.ChipUtilization = float64(busy) / total
	}
	r.Exec = Breakdown{
		BusOp:         float64(busAct) / total,
		BusContention: float64(busWait) / total,
		CellOp:        float64(cell) / total,
	}
	r.Exec.Idle = 1 - r.Exec.BusOp - r.Exec.BusContention - r.Exec.CellOp
	if sysBusy > 0 {
		r.InterChipIdleness = 1 - busyChipIntegral/(float64(n)*float64(sysBusy))
	}
	if cell > 0 {
		r.IntraChipIdleness = 1 - planeUse/(float64(geo.MaxFLP())*float64(cell))
	}
	if sysBusy > 0 {
		r.MemoryLevelIdleness = 1 - planeUse/(float64(geo.MaxFLP())*float64(n)*float64(sysBusy))
	}
	if r.Transactions > 0 {
		r.AvgFLPDegree = float64(r.Requests) / float64(r.Transactions)
	}
	// FLP share: fraction of served memory requests per class (§5.6).
	if r.Requests > 0 {
		for i, v := range reqsByClass {
			r.FLP.Share[i] = float64(v) / float64(r.Requests)
		}
	}
}

// Table formats rows of results as an aligned text table with the given
// header; render is called per result to produce its cells.
func Table(header []string, rows [][]string) string {
	width := make([]int, len(header))
	for i, h := range header {
		width[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(width) && len(cell) > width[i] {
				width[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}
