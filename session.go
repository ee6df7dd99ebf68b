package sprinkler

import (
	"context"
	"errors"
	"fmt"

	"sprinkler/internal/metrics"
)

// Session is an online simulation: callers submit requests while the run
// is in progress, advance simulated time in windows, observe mid-run
// metrics with Snapshot, and finish with Drain. Unlike Device.Run — which
// replays a complete workload — a Session interleaves admission and
// observation, which is how warmup/measurement-window experiments and
// live dashboards drive the simulator.
//
// A Session is not safe for concurrent use; it advances a single
// deterministic event loop.
type Session struct {
	dev       *Device
	nextID    int64
	submitted int64
	closed    bool

	// final is the state at close: a closed session reports only this,
	// since a drained device may already serve another session.
	final Snapshot

	// arena is where the device was checked out (nil without WithArena);
	// Drain hands the device back to it.
	arena *DeviceArena
}

// Open builds a Session from the configuration, validating it first. With
// WithArena, the session's device is checked out of the arena (recycled
// from a previous run or session on the same topology) and returned to it
// on Drain.
func Open(cfg Config, opts ...Option) (*Session, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if o.snapshot != nil && o.precondition != nil {
		return nil, fmt.Errorf("sprinkler: Open with both WithSnapshot and WithPrecondition (the snapshot already embodies a warm-up)")
	}
	dev, err := o.snapshot.checkout(o.arena, cfg)
	if err != nil {
		return nil, err
	}
	if p := o.precondition; p != nil {
		dev.Precondition(p.FillFrac, p.ChurnFrac, p.Seed)
	}
	// Completed request objects recycle into the device's own free list,
	// so consecutive sessions on one recycled device warm from a hot pool
	// and long-lived sessions admit at zero steady-state allocations.
	dev.inner.SetIORetire(dev.adapter.pool.put)
	return &Session{dev: dev, arena: o.arena}, nil
}

// errClosed reports use after Drain.
var errClosed = errors.New("sprinkler: session already drained")

// Submit admits one request into the running simulation. Arrival times in
// the simulated past are clamped to the current simulation time, so
// callers may submit with ArrivalNS zero and let submission order decide.
func (s *Session) Submit(r Request) error {
	if s.closed {
		return errClosed
	}
	io, err := s.dev.adapter.pool.build(s.nextID, r)
	if err != nil {
		return err
	}
	s.nextID++
	s.submitted++
	s.dev.inner.Submit(io)
	return nil
}

// Feed pulls up to n requests from src into the session (all of them when
// n <= 0), returning how many were admitted. Feeding schedules arrivals;
// interleave with Advance to bound the number outstanding.
func (s *Session) Feed(src Source, n int64) (int64, error) {
	if s.closed {
		return 0, errClosed
	}
	var fed int64
	for n <= 0 || fed < n {
		r, ok := src.Next()
		if !ok {
			if err := sourceErr(src); err != nil {
				return fed, err
			}
			return fed, nil
		}
		if err := s.Submit(r); err != nil {
			return fed, err
		}
		fed++
	}
	return fed, nil
}

// Advance runs the simulation for dNS more nanoseconds of simulated time,
// then returns with later events still queued. The windowing primitive:
// submit, advance, snapshot, repeat. The clock may not pass 2^62 ns.
func (s *Session) Advance(dNS int64) error {
	if s.closed {
		return errClosed
	}
	if dNS < 0 {
		return fmt.Errorf("sprinkler: Advance by negative duration %d", dNS)
	}
	now := int64(s.dev.inner.Now())
	if dNS > maxSimTimeNS-now {
		return fmt.Errorf("sprinkler: Advance by %d ns from %d ns passes the simulated-time horizon of %d ns", dNS, now, int64(maxSimTimeNS))
	}
	s.dev.inner.Advance(simTime(now + dNS))
	return nil
}

// NowNS returns the current simulation time in nanoseconds.
func (s *Session) NowNS() int64 {
	if s.closed {
		return s.final.SimTimeNS
	}
	return int64(s.dev.inner.Now())
}

// Inflight reports how many submitted I/Os have arrived but not yet
// completed.
func (s *Session) Inflight() int {
	if s.closed {
		return s.final.Inflight
	}
	return s.dev.inner.Inflight()
}

// Drain runs every outstanding event to completion and returns the final
// measurements. The session cannot be used afterwards. On context
// cancellation it returns the snapshot so far with ctx's error, and the
// session stays open.
func (s *Session) Drain(ctx context.Context) (*Result, error) {
	if s.closed {
		return nil, errClosed
	}
	res, err := s.dev.inner.Drain(ctx)
	if err != nil {
		if res != nil {
			return publicResult(res), err
		}
		return nil, err
	}
	out := publicResult(res)
	s.close()
	// The run drained: the device is pristine after its next Reset.
	// Without an arena Put drops it.
	s.arena.Put(s.dev)
	return out, nil
}

// Discard abandons the session without draining: the session is closed
// immediately and its device is dropped rather than recycled — a device
// abandoned mid-run holds live simulation state no arena may reuse. The
// forced-reclamation path for servers expiring a session whose Drain did
// not complete in time; prefer Drain, which finishes the run and returns
// an arena-checked-out device to its pool.
func (s *Session) Discard() {
	if s.closed {
		return
	}
	s.close()
}

// close keeps the final state and uninstalls the retire hook, so a device
// recycled after the session never calls into it.
func (s *Session) close() {
	s.final = s.Snapshot()
	s.closed = true
	s.dev.inner.SetIORetire(nil)
}

// Snapshot reports the measurements accumulated so far without advancing
// the simulation. Successive snapshots are monotone in SimTimeNS,
// IOsSubmitted, IOsCompleted and byte counts; windowed rates come from
// Since. A closed session reports its state when it closed.
func (s *Session) Snapshot() Snapshot {
	if s.closed {
		return s.final
	}
	r := s.dev.inner.Snapshot()
	return snapshotOf(r, s.submitted, s.dev.inner.Inflight())
}

// Snapshot is a cheap point-in-time view of a running simulation.
// Cumulative counters are exact; rates are averaged from simulation start.
// Subtract two snapshots with Since for warmup-excluded measurement
// windows.
//
// Snapshot (like Result) carries explicit JSON field tags: the encoding is
// a stable wire format — the serving daemon streams windowed snapshots
// over it — pinned by the golden test in wire_test.go. The raw window
// integrals are part of the format so a decoded Snapshot still supports
// Since on the client side.
type Snapshot struct {
	// SimTimeNS is the simulation clock.
	SimTimeNS int64 `json:"simTimeNS"`

	IOsSubmitted int64 `json:"iosSubmitted"`
	IOsCompleted int64 `json:"iosCompleted"`
	Inflight     int   `json:"inflight"`

	BytesRead    int64 `json:"bytesRead"`
	BytesWritten int64 `json:"bytesWritten"`

	// TotalLatencyNS sums device-level response times over completed
	// I/Os, so windowed average latency is derivable from deltas.
	TotalLatencyNS int64 `json:"totalLatencyNS"`

	// BandwidthKBps, IOPS and AvgLatencyNS are cumulative averages.
	BandwidthKBps float64 `json:"bandwidthKBps"`
	IOPS          float64 `json:"iops"`
	AvgLatencyNS  int64   `json:"avgLatencyNS"`

	// ChipUtilization and QueueStallFraction are cumulative fractions.
	ChipUtilization    float64 `json:"chipUtilization"`
	QueueStallFraction float64 `json:"queueStallFraction"`

	GCRuns int64 `json:"gcRuns"`

	// Raw integrals for windowed utilization/stall arithmetic (Since).
	BusyChipIntegral float64 `json:"rawBusyChipIntegral"`
	SysBusyNS        int64   `json:"rawSysBusyNS"`
	QueueFullNS      int64   `json:"rawQueueFullNS"`
	Chips            int     `json:"chips"`

	// Fault-injection counters, all zero (and omitted on the wire) when
	// fault injection is disabled. DegradedMode reports the drive's
	// current read-only state, not a delta.
	ReadRetries   int64 `json:"readRetries,omitempty"`
	ProgramFails  int64 `json:"programFails,omitempty"`
	RetiredBlocks int64 `json:"retiredBlocks,omitempty"`
	FailedIOs     int64 `json:"failedIOs,omitempty"`
	DegradedMode  bool  `json:"degradedMode,omitempty"`
}

// snapshotOf flattens an internal mid-run result.
func snapshotOf(r *metrics.Result, submitted int64, inflight int) Snapshot {
	snap := Snapshot{
		SimTimeNS:          int64(r.Duration),
		IOsSubmitted:       submitted,
		IOsCompleted:       r.IOsCompleted,
		Inflight:           inflight,
		BytesRead:          r.BytesRead,
		BytesWritten:       r.BytesWritten,
		TotalLatencyNS:     int64(r.Latency.Sum),
		BandwidthKBps:      r.BandwidthKBps(),
		IOPS:               r.IOPS(),
		AvgLatencyNS:       int64(r.AvgLatency()),
		ChipUtilization:    r.ChipUtilization,
		QueueStallFraction: r.QueueStallFraction(),
		GCRuns:             r.GC.GCRuns,
		BusyChipIntegral:   r.BusyChipIntegral,
		SysBusyNS:          int64(r.SysBusyTime),
		QueueFullNS:        int64(r.QueueFullTime),
		Chips:              r.Chips,
		ReadRetries:        r.ReadRetries,
		ProgramFails:       r.ProgramFails,
		RetiredBlocks:      r.GC.RetiredBlocks,
		FailedIOs:          r.FailedIOs,
		DegradedMode:       r.DegradedMode,
	}
	return snap
}

// Since returns the measurement window between prev and s: counters are
// deltas, rates and fractions are recomputed over the window. Use it to
// discard warmup:
//
//	warm := sess.Snapshot()          // after the warmup window
//	...                              // measured work
//	win := sess.Snapshot().Since(warm)
func (s Snapshot) Since(prev Snapshot) Snapshot {
	w := Snapshot{
		SimTimeNS:        s.SimTimeNS - prev.SimTimeNS,
		IOsSubmitted:     s.IOsSubmitted - prev.IOsSubmitted,
		IOsCompleted:     s.IOsCompleted - prev.IOsCompleted,
		Inflight:         s.Inflight,
		BytesRead:        s.BytesRead - prev.BytesRead,
		BytesWritten:     s.BytesWritten - prev.BytesWritten,
		TotalLatencyNS:   s.TotalLatencyNS - prev.TotalLatencyNS,
		GCRuns:           s.GCRuns - prev.GCRuns,
		BusyChipIntegral: s.BusyChipIntegral - prev.BusyChipIntegral,
		SysBusyNS:        s.SysBusyNS - prev.SysBusyNS,
		QueueFullNS:      s.QueueFullNS - prev.QueueFullNS,
		Chips:            s.Chips,
		ReadRetries:      s.ReadRetries - prev.ReadRetries,
		ProgramFails:     s.ProgramFails - prev.ProgramFails,
		RetiredBlocks:    s.RetiredBlocks - prev.RetiredBlocks,
		FailedIOs:        s.FailedIOs - prev.FailedIOs,
		DegradedMode:     s.DegradedMode,
	}
	if w.SimTimeNS > 0 {
		secs := float64(w.SimTimeNS) / 1e9
		w.BandwidthKBps = float64(w.BytesRead+w.BytesWritten) / 1024 / secs
		w.IOPS = float64(w.IOsCompleted) / secs
		w.QueueStallFraction = float64(w.QueueFullNS) / float64(w.SimTimeNS)
	}
	if w.IOsCompleted > 0 {
		w.AvgLatencyNS = w.TotalLatencyNS / w.IOsCompleted
	}
	if w.SysBusyNS > 0 && w.Chips > 0 {
		w.ChipUtilization = w.BusyChipIntegral / (float64(w.Chips) * float64(w.SysBusyNS))
	}
	return w
}
