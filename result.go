package sprinkler

import (
	"sprinkler/internal/metrics"
	"sprinkler/internal/sim"
)

// simTime converts nanoseconds.
func simTime(ns int64) sim.Time { return sim.Time(ns) }

// ExecBreakdown decomposes total chip-time into the four components of
// the paper's Figure 13. Fractions sum to 1.
type ExecBreakdown struct {
	BusOp         float64 `json:"busOp"`
	BusContention float64 `json:"busContention"`
	CellOp        float64 `json:"cellOp"`
	Idle          float64 `json:"idle"`
}

// SeriesPoint is one completed I/O for time-series analysis (Figure 12).
type SeriesPoint struct {
	Index     int64 `json:"index"`
	ArrivalNS int64 `json:"arrivalNS"`
	LatencyNS int64 `json:"latencyNS"`
}

// Result reports everything a simulation run measures.
//
// Result (like Snapshot) carries explicit JSON field tags: the encoding is
// a stable, versioned wire format — the serving daemon's responses and any
// archived result files depend on it — pinned by the golden test in
// wire_test.go. Renaming or re-typing a tagged field is a wire-format
// break; add new fields instead.
type Result struct {
	// Scheduler that produced this result.
	Scheduler string `json:"scheduler"`

	// DurationNS is the simulated run length in nanoseconds.
	DurationNS int64 `json:"durationNS"`

	IOsCompleted int64 `json:"iosCompleted"`
	BytesRead    int64 `json:"bytesRead"`
	BytesWritten int64 `json:"bytesWritten"`

	// BandwidthKBps and IOPS are throughput over the run.
	BandwidthKBps float64 `json:"bandwidthKBps"`
	IOPS          float64 `json:"iops"`

	// Latency statistics over per-I/O device-level response times.
	// Percentiles are exact while the run is within Config's
	// MetricsSampleCap; longer runs report fixed-memory estimates
	// (<= 0.8% relative error) and set LatencyEstimated. Avg and Max are
	// exact in both modes.
	AvgLatencyNS     int64 `json:"avgLatencyNS"`
	P50LatencyNS     int64 `json:"p50LatencyNS"`
	P99LatencyNS     int64 `json:"p99LatencyNS"`
	MaxLatencyNS     int64 `json:"maxLatencyNS"`
	LatencyEstimated bool  `json:"latencyEstimated,omitempty"`

	// QueueStallNS is how long the device-level queue was full with the
	// host blocked behind it; QueueStallFraction normalizes it by the
	// run duration (Figure 10d's quantity).
	QueueStallNS       int64   `json:"queueStallNS"`
	QueueStallFraction float64 `json:"queueStallFraction"`

	// ChipUtilization is the busy-chip fraction while the device had work
	// (Figure 6). InterChipIdleness is its complement; IntraChipIdleness
	// is the unused die/plane share of busy chips (§5.3).
	ChipUtilization   float64 `json:"chipUtilization"`
	InterChipIdleness float64 `json:"interChipIdleness"`
	IntraChipIdleness float64 `json:"intraChipIdleness"`

	// MemoryLevelIdleness is the idle share of every (die, plane)
	// resource while the device had work — the Figure 1b curve that
	// grows as chips are added faster than the workload can use them.
	MemoryLevelIdleness float64 `json:"memoryLevelIdleness"`

	// Exec is the Figure 13 execution-time breakdown.
	Exec ExecBreakdown `json:"exec"`

	// FLPShares gives the fraction of memory requests served at each
	// parallelism level: NON-PAL, PAL1, PAL2, PAL3 (Figure 14).
	FLPShares [4]float64 `json:"flpShares"`

	// Transactions counts executed flash transactions; AvgFLPDegree is
	// memory requests per transaction (Figure 16 / §5.8).
	Transactions int64   `json:"transactions"`
	AvgFLPDegree float64 `json:"avgFLPDegree"`

	// GCRuns counts background garbage collections; GCPageMoves and
	// GCErases its live-page migrations and block erases.
	// WriteAmplification is (host+GC)/host page writes.
	GCRuns             int64   `json:"gcRuns"`
	GCPageMoves        int64   `json:"gcPageMoves"`
	GCErases           int64   `json:"gcErases"`
	WriteAmplification float64 `json:"writeAmplification"`

	// BadBlocks counts blocks retired because the chip-level fault model
	// (Config.Faults.EraseFailProb) failed their GC erase. It always equals
	// RetiredBlocks; unlike that field it is encoded even when zero.
	BadBlocks int64 `json:"badBlocks"`

	// WearLevels is always 0: the simulator has no wear-leveler. The field
	// is kept, and encoded, so the Result JSON and the digests pinned over
	// it do not change; it goes with the next change that moves them.
	WearLevels int64 `json:"wearLevels"`

	// StaleRetranslations counts commit-time address fixups forced by
	// live-data migration under schedulers without the readdressing
	// callback (§4.3).
	StaleRetranslations int64 `json:"staleRetranslations"`

	// Fault-injection outcomes, all zero (and omitted from the wire
	// encoding, so pre-fault clients are unaffected) when Config.Faults is
	// the zero value and the drive never fills up: read-retry ladder
	// entries, uncorrectable reads, program and erase failures at the
	// chips, blocks retired to the spare pool, host I/Os failed
	// unrecoverably, and whether the drive ended the run degraded to
	// read-only mode (spare pool exhausted, or no space left for a write).
	ReadRetries       int64 `json:"readRetries,omitempty"`
	ReadUncorrectable int64 `json:"readUncorrectable,omitempty"`
	ProgramFails      int64 `json:"programFails,omitempty"`
	EraseFails        int64 `json:"eraseFails,omitempty"`
	RetiredBlocks     int64 `json:"retiredBlocks,omitempty"`
	FailedIOs         int64 `json:"failedIOs,omitempty"`
	DegradedMode      bool  `json:"degradedMode,omitempty"`

	// Series is the per-I/O latency series when CollectSeries was set.
	Series []SeriesPoint `json:"series,omitempty"`
}

// publicResult flattens the internal result.
func publicResult(r *metrics.Result) *Result {
	out := &Result{
		Scheduler:           r.Scheduler,
		DurationNS:          int64(r.Duration),
		IOsCompleted:        r.IOsCompleted,
		BytesRead:           r.BytesRead,
		BytesWritten:        r.BytesWritten,
		BandwidthKBps:       r.BandwidthKBps(),
		IOPS:                r.IOPS(),
		AvgLatencyNS:        int64(r.AvgLatency()),
		P50LatencyNS:        int64(r.Latency.P50),
		P99LatencyNS:        int64(r.Latency.P99),
		MaxLatencyNS:        int64(r.Latency.Max),
		LatencyEstimated:    r.Latency.Estimated,
		QueueStallNS:        int64(r.QueueFullTime),
		QueueStallFraction:  r.QueueStallFraction(),
		ChipUtilization:     r.ChipUtilization,
		InterChipIdleness:   r.InterChipIdleness,
		IntraChipIdleness:   r.IntraChipIdleness,
		MemoryLevelIdleness: r.MemoryLevelIdleness,
		Exec: ExecBreakdown{
			BusOp:         r.Exec.BusOp,
			BusContention: r.Exec.BusContention,
			CellOp:        r.Exec.CellOp,
			Idle:          r.Exec.Idle,
		},
		Transactions:        r.Transactions,
		AvgFLPDegree:        r.AvgFLPDegree,
		GCRuns:              r.GC.GCRuns,
		GCPageMoves:         r.GC.GCWrites,
		GCErases:            r.GC.GCErases,
		BadBlocks:           r.GC.RetiredBlocks,
		StaleRetranslations: r.StaleRetranslations,
		ReadRetries:         r.ReadRetries,
		ReadUncorrectable:   r.ReadUncorrectable,
		ProgramFails:        r.ProgramFails,
		EraseFails:          r.EraseFails,
		RetiredBlocks:       r.GC.RetiredBlocks,
		FailedIOs:           r.FailedIOs,
		DegradedMode:        r.DegradedMode,
	}
	out.FLPShares = r.FLP.Share
	if r.GC.HostWrites > 0 {
		out.WriteAmplification = float64(r.GC.HostWrites+r.GC.GCWrites) / float64(r.GC.HostWrites)
	} else {
		out.WriteAmplification = 1
	}
	for _, p := range r.Series {
		out.Series = append(out.Series, SeriesPoint{
			Index: p.Index, ArrivalNS: int64(p.Arrival), LatencyNS: int64(p.Latency),
		})
	}
	return out
}
