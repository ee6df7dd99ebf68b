package serve

import (
	"fmt"

	"sprinkler"
)

// This file is sprinklerd's request wire format. Like Result and Snapshot
// in the root package, every struct carries explicit JSON tags: clients
// are built against these names, so renaming or re-typing a tagged field
// is a wire-format break — add new fields instead. Submit and feed bodies
// carry the root package's Request, WorkloadSpec and FixedSpec, whose
// tags belong to this format too (TestRequestWireNames pins them).

// OpenRequest opens a named session. The platform knobs mirror the shared
// CLI flags (cliutil.Platform): the daemon starts from its own base
// platform and applies the non-zero fields here.
type OpenRequest struct {
	// Name labels the session; the server generates one when empty.
	// Opening a name that is already open is a conflict.
	Name string `json:"name,omitempty"`

	// Chips/Queue/Scheduler/GCStress override the daemon's base platform
	// (zero values keep the base). GCStress also preconditions the device
	// so garbage collection runs under the session's workload. Negative
	// values, Chips past 1024 and Queue past 65536 are rejected with 400.
	Chips     int    `json:"chips,omitempty"`
	Queue     int    `json:"queue,omitempty"`
	Scheduler string `json:"scheduler,omitempty"`
	GCStress  bool   `json:"gcStress,omitempty"`

	// Seed feeds preconditioning and server-built workload sources.
	Seed uint64 `json:"seed,omitempty"`

	// MaxBacklog bounds this session's submitted-but-not-completed I/Os;
	// zero accepts the server budget. Requests beyond the bound are
	// rejected with 429 until the session advances. Values above the
	// server budget are clamped to it.
	MaxBacklog int `json:"maxBacklog,omitempty"`

	// CollectSeries records the per-I/O latency series in the final
	// Result; SeriesWindow bounds it (zero/oversized values are clamped
	// to the server budget).
	CollectSeries bool `json:"collectSeries,omitempty"`
	SeriesWindow  int  `json:"seriesWindow,omitempty"`

	// Faults, when present, replaces the daemon's base fault-injection
	// spec for this session (sprinkler.FaultSpec on the wire). Invalid
	// specs — probabilities outside [0, 1], degenerate outage windows,
	// spare fractions outside [0, 1) — are rejected with 400.
	Faults *sprinkler.FaultSpec `json:"faults,omitempty"`

	// WarmState names a warm-state snapshot file in the daemon's snapshot
	// directory (-snapshot-dir); the session's device hydrates from it
	// instead of preconditioning, so an aged-drive session opens at
	// fresh-drive cost. The snapshot supplies the platform — only
	// Scheduler and the observation budgets (MaxBacklog, CollectSeries,
	// SeriesWindow) apply on top; combining it with the platform knobs or
	// GCStress is rejected with 400.
	WarmState string `json:"warmState,omitempty"`
}

// OpenResponse reports the admitted session and its resolved budgets.
type OpenResponse struct {
	ID           string `json:"id"`
	Chips        int    `json:"chips"`
	Scheduler    string `json:"scheduler"`
	MaxBacklog   int    `json:"maxBacklog"`
	SeriesWindow int    `json:"seriesWindow,omitempty"`

	// WarmState echoes the snapshot the session hydrated from, if any.
	WarmState string `json:"warmState,omitempty"`
}

// SubmitRequest admits one or more I/Os into a session.
type SubmitRequest struct {
	Requests []sprinkler.Request `json:"requests"`
}

// SubmitResponse reports the admission and the session backlog after it.
type SubmitResponse struct {
	Submitted int64 `json:"submitted"`
	Backlog   int64 `json:"backlog"`
}

// WorkloadSpec is the root type under the name this package's clients
// have used for it.
type WorkloadSpec = sprinkler.WorkloadSpec

// FeedSpec asks the server to build a workload source from the declarative
// combinators and feed it into the session. Exactly one of Workload/Fixed
// selects the base stream on the first feed; later feeds may omit both to
// continue pulling from the session's current source.
type FeedSpec struct {
	Workload *sprinkler.WorkloadSpec `json:"workload,omitempty"`
	Fixed    *sprinkler.FixedSpec    `json:"fixed,omitempty"`

	// Combinators, applied in this order when set: Poisson arrival
	// rewrite, Zipf address skew, read-ratio redraw, transfer-size
	// redraw, burst modulation, request-count limit.
	PoissonRate float64  `json:"poissonRate,omitempty"`
	ZipfTheta   float64  `json:"zipfTheta,omitempty"`
	ReadRatio   *float64 `json:"readRatio,omitempty"`
	MinPages    int      `json:"minPages,omitempty"`
	MaxPages    int      `json:"maxPages,omitempty"`
	BurstOnNS   int64    `json:"burstOnNS,omitempty"`
	BurstOffNS  int64    `json:"burstOffNS,omitempty"`
	Limit       int64    `json:"limit,omitempty"`

	// Seed drives the built source; zero uses the session's seed.
	Seed uint64 `json:"seed,omitempty"`

	// Count feeds at most this many requests now; zero drains the source
	// (rejected unless the source is bounded).
	Count int64 `json:"count,omitempty"`
}

// FeedResponse reports how many requests the feed admitted.
type FeedResponse struct {
	Fed     int64 `json:"fed"`
	Backlog int64 `json:"backlog"`
}

// AdvanceRequest runs the session forward by DNS simulated nanoseconds.
type AdvanceRequest struct {
	DNS int64 `json:"dNS"`
}

// SessionInfo is one row of the session listing.
type SessionInfo struct {
	ID         string `json:"id"`
	SimTimeNS  int64  `json:"simTimeNS"`
	WallNS     int64  `json:"wallNS"`
	Backlog    int64  `json:"backlog"`
	IdleNS     int64  `json:"idleNS"`
	MaxBacklog int    `json:"maxBacklog"`

	// Fault-injection counters, zero (and omitted) when the session runs
	// fault-free. Degraded reports the drive's read-only state.
	ReadRetries   int64 `json:"readRetries,omitempty"`
	ProgramFails  int64 `json:"programFails,omitempty"`
	RetiredBlocks int64 `json:"retiredBlocks,omitempty"`
	FailedIOs     int64 `json:"failedIOs,omitempty"`
	Degraded      bool  `json:"degraded,omitempty"`
}

// ListResponse is the session listing.
type ListResponse struct {
	Sessions []SessionInfo `json:"sessions"`
	Draining bool          `json:"draining"`
}

// SnapshotConfigSummary condenses the configuration a warm-state image
// was captured under to what a client needs for choosing one: the
// platform shape, whether collection and faults were live during aging,
// and the scheduler (hydration may override it).
type SnapshotConfigSummary struct {
	Scheduler    string `json:"scheduler"`
	Channels     int    `json:"channels"`
	ChipsPerChan int    `json:"chipsPerChan"`
	QueueDepth   int    `json:"queueDepth"`
	LogicalPages int64  `json:"logicalPages,omitempty"`
	GCEnabled    bool   `json:"gcEnabled"`
	FaultsArmed  bool   `json:"faultsArmed,omitempty"`
}

// SnapshotInfo is one row of the snapshot catalog: a warm-state image in
// the daemon's -snapshot-dir, named as OpenRequest.WarmState accepts it.
// A file that fails to parse as a snapshot is still listed, with Error
// set and no config or stats — the catalog surfaces a corrupt image
// rather than hiding it.
type SnapshotInfo struct {
	Name   string                   `json:"name"`
	Config *SnapshotConfigSummary   `json:"config,omitempty"`
	Stats  *sprinkler.SnapshotStats `json:"stats,omitempty"`
	Error  string                   `json:"error,omitempty"`
}

// ListSnapshotsResponse is the snapshot catalog, sorted by name.
type ListSnapshotsResponse struct {
	Snapshots []SnapshotInfo `json:"snapshots"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// buildSource constructs the feed's workload source for cfg: the base
// stream, then every set combinator in the order FeedSpec documents. A
// base stream's own non-zero Seed pins it; otherwise it follows the feed
// seed (Seed, else the session's), and so does every seeded combinator.
// It also reports whether the stream is bounded (a zero Count may only
// drain a bounded source).
func (f FeedSpec) buildSource(cfg sprinkler.Config, seed uint64) (sprinkler.Source, bool, error) {
	if f.Seed != 0 {
		seed = f.Seed
	}
	follow := func(own uint64) uint64 {
		if own != 0 {
			return own
		}
		return seed
	}
	var src sprinkler.Source
	var err error
	bounded := f.Limit > 0
	switch {
	case f.Workload != nil && f.Fixed != nil:
		return nil, false, fmt.Errorf("feed spec names both a workload and a fixed stream")
	case f.Workload != nil:
		spec := *f.Workload
		spec.Seed = follow(spec.Seed)
		src, err = cfg.NewWorkloadSource(spec)
		bounded = bounded || spec.Requests > 0
	case f.Fixed != nil:
		spec := *f.Fixed
		spec.Seed = follow(spec.Seed)
		src, err = cfg.NewFixedSource(spec)
		bounded = bounded || spec.Requests > 0
	default:
		return nil, false, fmt.Errorf("feed spec needs a workload or fixed stream")
	}
	span := cfg.LogicalSpan()
	if err == nil && f.PoissonRate > 0 {
		src = sprinkler.Poisson(src, f.PoissonRate, seed)
	}
	if err == nil && f.ZipfTheta > 0 {
		src, err = sprinkler.Zipf(src, f.ZipfTheta, span, seed)
	}
	if err == nil && f.ReadRatio != nil {
		src, err = sprinkler.ReadRatio(src, *f.ReadRatio, seed)
	}
	if err == nil && (f.MinPages > 0 || f.MaxPages > 0) {
		src, err = sprinkler.Resize(src, f.MinPages, f.MaxPages, span, seed)
	}
	if err == nil && (f.BurstOnNS > 0 || f.BurstOffNS > 0) {
		src, err = sprinkler.Burst(src, f.BurstOnNS, f.BurstOffNS)
	}
	if err != nil {
		return nil, false, err
	}
	if f.Limit > 0 {
		src = sprinkler.Limit(src, f.Limit)
	}
	return src, bounded, nil
}
