// Package serve is sprinklerd's core: a simulation-as-a-service server
// exposing named sprinkler Sessions over HTTP/JSON. Clients open sessions
// against a shared bounded DeviceArena of warm devices, stream requests in
// (directly or by naming a server-built workload), advance simulated time,
// and stream windowed Snapshot deltas out. The server's job beyond
// plumbing is robustness: admission control with per-session memory
// budgets, backpressure with Retry-After when the arena is exhausted,
// idle-session reclamation back into the arena, and graceful drain on
// shutdown — every accepted session still produces its final Result.
package serve

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sprinkler"
)

// Options configures a Server. The zero value is unusable; start from
// DefaultOptions.
type Options struct {
	// BaseConfig is the platform sessions start from; OpenRequest knobs
	// override it per session.
	BaseConfig sprinkler.Config

	// MaxSessions caps concurrently open sessions; opens beyond it are
	// rejected with 429 and a Retry-After. Every open session also holds
	// a checked-out device, so the effective concurrency bound is
	// min(MaxSessions, MaxDevices).
	MaxSessions int

	// MaxDevices caps live simulated devices — checked out by sessions
	// plus warm in the arena. Opens that would exceed it are rejected
	// with 503 and a Retry-After: the memory backstop when sessions are
	// large and the cap is below MaxSessions.
	MaxDevices int

	// MaxBacklog is the per-session budget for submitted-but-uncompleted
	// I/Os: sessions may ask for less, never more. Zero means unbounded.
	MaxBacklog int

	// SeriesWindow is the per-session budget for retained latency-series
	// points when a session collects a series. Zero disables collection.
	SeriesWindow int

	// IdleExpiry reclaims sessions with no requests for this long: the
	// session is drained (its Result checkpointed) and the device returns
	// to the arena. Zero disables expiry.
	IdleExpiry time.Duration

	// RequestTimeout bounds how long a request waits for a busy session
	// before giving up with 503 + Retry-After (a session executes one
	// request at a time; the simulation is single-threaded).
	RequestTimeout time.Duration

	// DrainTimeout bounds one session's final drain during idle expiry
	// and shutdown; a session that cannot finish in time is discarded.
	DrainTimeout time.Duration

	// SnapshotDir, when set, lets OpenRequest.WarmState name a warm-state
	// snapshot file (written by Device.Checkpoint / the CLI -save-state
	// flags) inside this directory. The session's device hydrates from it
	// instead of preconditioning, so an aged-drive session opens at
	// fresh-drive cost. Snapshots are decoded once and cached for the
	// server's lifetime.
	SnapshotDir string
}

// DefaultOptions returns the daemon defaults: the paper's 64-chip
// platform, 8 live devices, 64Ki-request session backlogs. The device
// budget is the operative concurrency bound at these defaults — 8
// concurrent sessions, each holding a checked-out device; opens beyond
// it get 503 + Retry-After. MaxSessions = 64 is admission headroom that
// only binds when -max-devices is raised past it.
func DefaultOptions() Options {
	return Options{
		BaseConfig:     sprinkler.DefaultConfig(),
		MaxSessions:    64,
		MaxDevices:     8,
		MaxBacklog:     64 << 10,
		SeriesWindow:   4096,
		IdleExpiry:     2 * time.Minute,
		RequestTimeout: 30 * time.Second,
		DrainTimeout:   10 * time.Second,
	}
}

// Counters is the server's monotonic event counters, readable without
// locks for /metrics.
type Counters struct {
	SessionsOpened    atomic.Uint64
	SessionsDrained   atomic.Uint64
	SessionsExpired   atomic.Uint64
	SessionsDiscarded atomic.Uint64

	Admitted        atomic.Uint64 // requests accepted into a session
	RejectedSession atomic.Uint64 // opens refused at MaxSessions (429)
	RejectedDevice  atomic.Uint64 // opens refused at MaxDevices (503)
	RejectedBacklog atomic.Uint64 // submits refused at the backlog budget (429)
	RejectedBusy    atomic.Uint64 // requests timed out waiting for a busy session (503)

	IOsSubmitted atomic.Uint64
}

// Server owns the arena, the open sessions and the reclamation janitor.
type Server struct {
	opts  Options
	arena *sprinkler.DeviceArena

	mu       sync.Mutex
	sessions map[string]*session
	results  []finishedSession // checkpointed Results of closed sessions
	seq      int64
	draining bool

	counters Counters

	// snapMu guards the decoded warm-state snapshot cache. Decoding is a
	// cold path (once per name); holding the lock across it keeps two
	// racing opens from decoding the same file twice.
	snapMu    sync.Mutex
	snapCache map[string]*sprinkler.DeviceSnapshot

	janitorStop chan struct{}
	janitorDone chan struct{}
}

// finishedSession checkpoints a closed session's final measurements.
type finishedSession struct {
	id  string
	res *sprinkler.Result
	err error
}

// maxRetainedResults bounds the checkpoint buffer; older results fall off.
const maxRetainedResults = 256

// session is one open simulation. The sprinkler Session is single-
// threaded, so sem serializes every simulation-touching operation; nmu
// guards only the cheap observation state (last snapshot, idle clock,
// watcher notification), so watchers and the janitor never wait behind a
// long Advance.
type session struct {
	id         string
	cfg        sprinkler.Config
	seed       uint64
	maxBacklog int

	sem         chan struct{} // capacity 1: the simulation lock
	sess        *sprinkler.Session
	src         sprinkler.Source // current feed source, nil until first feed
	feedBounded bool

	wallStart time.Time

	nmu      sync.Mutex
	last     sprinkler.Snapshot
	lastUsed time.Time
	notify   chan struct{}
	closed   bool
	result   *sprinkler.Result
	closeErr error
}

// lock acquires the simulation lock, giving up when ctx expires.
func (s *session) lock(ctx context.Context) error {
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *session) unlock() { <-s.sem }

// tryLock acquires the simulation lock only if it is free.
func (s *session) tryLock() bool {
	select {
	case s.sem <- struct{}{}:
		return true
	default:
		return false
	}
}

// publish refreshes the observation state and wakes watchers. Call with
// the simulation lock held.
func (s *session) publish(snap sprinkler.Snapshot) {
	s.nmu.Lock()
	s.last = snap
	s.lastUsed = time.Now()
	close(s.notify)
	s.notify = make(chan struct{})
	s.nmu.Unlock()
}

// finish marks the session closed with its final result and wakes
// watchers for the last time. Call with the simulation lock held.
func (s *session) finish(res *sprinkler.Result, err error) {
	s.nmu.Lock()
	s.closed = true
	s.result = res
	s.closeErr = err
	close(s.notify)
	s.notify = make(chan struct{})
	s.nmu.Unlock()
}

// observe returns the current observation state and the channel that
// signals its next change.
func (s *session) observe() (snap sprinkler.Snapshot, closed bool, changed <-chan struct{}) {
	s.nmu.Lock()
	defer s.nmu.Unlock()
	return s.last, s.closed, s.notify
}

// finished returns the session's terminal state, if reached. Under the
// simulation lock the answer is authoritative: every path that closes a
// session holds the lock while doing so.
func (s *session) finished() (res *sprinkler.Result, err error, done bool) {
	s.nmu.Lock()
	defer s.nmu.Unlock()
	return s.result, s.closeErr, s.closed
}

// idleFor reports how long the session has gone without a request.
func (s *session) idleFor(now time.Time) time.Duration {
	s.nmu.Lock()
	defer s.nmu.Unlock()
	return now.Sub(s.lastUsed)
}

// NewServer builds a Server over a fresh arena sized to opts and starts
// the idle-expiry janitor (when IdleExpiry is set). Close stops it.
func NewServer(opts Options) *Server {
	arena := sprinkler.NewDeviceArena()
	arena.MaxDevices = opts.MaxDevices
	s := &Server{
		opts:     opts,
		arena:    arena,
		sessions: make(map[string]*session),
	}
	if opts.IdleExpiry > 0 {
		s.janitorStop = make(chan struct{})
		s.janitorDone = make(chan struct{})
		interval := opts.IdleExpiry / 4
		if interval < 10*time.Millisecond {
			interval = 10 * time.Millisecond
		}
		go s.janitor(interval)
	}
	return s
}

// Counters exposes the server's event counters.
func (s *Server) Counters() *Counters { return &s.counters }

// ArenaStats exposes the shared arena's hit/miss/eviction counters.
func (s *Server) ArenaStats() sprinkler.ArenaStats { return s.arena.Stats() }

// errRejected carries an HTTP-mappable admission failure.
type errRejected struct {
	status     int // 429 or 503
	retryAfter time.Duration
	msg        string
}

func (e *errRejected) Error() string { return e.msg }

// errConflict reports a duplicate session name or misuse of a session
// state (e.g. feeding before naming a workload).
var errNotFound = errors.New("no such session")

// loadSnapshot resolves a WarmState name to a decoded snapshot, reading
// and caching <SnapshotDir>/<name> on first use. Names are bare file
// names — path separators (a client reaching outside the directory) are
// rejected.
func (s *Server) loadSnapshot(name string) (*sprinkler.DeviceSnapshot, error) {
	if s.opts.SnapshotDir == "" {
		return nil, fmt.Errorf("warmState: server has no snapshot directory (start sprinklerd with -snapshot-dir)")
	}
	if name != filepath.Base(name) || name == "." || name == ".." {
		return nil, fmt.Errorf("warmState: invalid snapshot name %q", name)
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	if snap, ok := s.snapCache[name]; ok {
		return snap, nil
	}
	f, err := os.Open(filepath.Join(s.opts.SnapshotDir, name))
	if err != nil {
		return nil, fmt.Errorf("warmState %q: %w", name, err)
	}
	defer f.Close()
	snap, err := sprinkler.ReadSnapshot(f)
	if err != nil {
		return nil, fmt.Errorf("warmState %q: %w", name, err)
	}
	if s.snapCache == nil {
		s.snapCache = make(map[string]*sprinkler.DeviceSnapshot)
	}
	s.snapCache[name] = snap
	return snap, nil
}

// listSnapshots builds the snapshot catalog from SnapshotDir. Every
// regular file in the directory is listed; ones that parse as snapshots
// carry a config summary and aged stats (decoded through the same cache
// the open path hydrates from, so a catalogued image opens for free),
// damaged ones carry the parse error. With no directory configured the
// catalog does not exist, which surfaces as 404 — not an empty list.
func (s *Server) listSnapshots() ([]SnapshotInfo, error) {
	if s.opts.SnapshotDir == "" {
		return nil, fmt.Errorf("%w: server has no snapshot directory (start sprinklerd with -snapshot-dir)", errNotFound)
	}
	entries, err := os.ReadDir(s.opts.SnapshotDir)
	if err != nil {
		return nil, fmt.Errorf("snapshot directory: %w", err)
	}
	infos := make([]SnapshotInfo, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		info := SnapshotInfo{Name: e.Name()}
		snap, err := s.loadSnapshot(e.Name())
		if err != nil {
			info.Error = err.Error()
		} else {
			cfg := snap.Config()
			stats := snap.Stats()
			info.Config = &SnapshotConfigSummary{
				Scheduler:    string(cfg.Scheduler),
				Channels:     cfg.Channels,
				ChipsPerChan: cfg.ChipsPerChan,
				QueueDepth:   cfg.QueueDepth,
				LogicalPages: cfg.LogicalPages,
				GCEnabled:    !cfg.DisableGC,
				FaultsArmed:  cfg.Faults != (sprinkler.FaultSpec{}),
			}
			info.Stats = &stats
		}
		infos = append(infos, info)
	}
	return infos, nil
}

// Bounds on the platform knobs an open may set. Both size allocations
// from untrusted input: maxOpenChips is the largest platform Platform
// documents (32 × 32 chips), maxOpenQueue NVMe's per-queue entry limit.
const (
	maxOpenChips = 1024
	maxOpenQueue = 65536
)

// sessionCfg resolves an OpenRequest against the server's base platform
// and series budget. With a warm-state snapshot the platform comes from the
// snapshot itself — only the scheduler choice and the series budget apply
// on top — so the platform knobs are rejected rather than silently
// ignored. The backlog budget is not part of the Config: Open keeps it on
// the session.
func (s *Server) sessionCfg(req OpenRequest, snap *sprinkler.DeviceSnapshot) (sprinkler.Config, error) {
	var cfg sprinkler.Config
	switch {
	case snap != nil:
		if req.Chips != 0 || req.Queue != 0 || req.GCStress || req.Faults != nil {
			return cfg, fmt.Errorf("warmState sessions take their platform from the snapshot; chips, queue, gcStress and faults cannot be combined with it")
		}
		cfg = snap.Config()
	case req.Chips < 0 || req.Chips > maxOpenChips:
		return cfg, fmt.Errorf("chips %d outside [0, %d]", req.Chips, maxOpenChips)
	case req.Queue < 0 || req.Queue > maxOpenQueue:
		return cfg, fmt.Errorf("queue %d outside [0, %d]", req.Queue, maxOpenQueue)
	default:
		// Rebuild the platform through the shared CLI plumbing semantics:
		// chips reshape the topology, GC stress shrinks blocks and the
		// logical space.
		cfg = s.opts.BaseConfig
		if req.Chips > 0 {
			base := cfg
			cfg = sprinkler.Platform(req.Chips)
			cfg.QueueDepth = base.QueueDepth
			cfg.Scheduler = base.Scheduler
		}
		if req.Queue > 0 {
			cfg.QueueDepth = req.Queue
		}
		if req.GCStress {
			cfg.BlocksPerPlane = 24
			cfg.PagesPerBlock = 64
			cfg.LogicalPages = cfg.TotalPages() * 85 / 100
		}
		// A present fault spec replaces the base one wholesale (a partial
		// overlay could silently mix two experiments' fault models);
		// invalid knobs are carried into the config so Validate rejects
		// them with 400.
		if req.Faults != nil {
			cfg.Faults = *req.Faults
		}
	}
	if req.Scheduler != "" {
		cfg.Scheduler = sprinkler.SchedulerKind(req.Scheduler)
	}
	// Clamp the session's series budget to the server's.
	cfg.CollectSeries = req.CollectSeries && s.opts.SeriesWindow > 0
	cfg.SeriesWindow = 0
	if cfg.CollectSeries {
		cfg.SeriesWindow = clampBudget(req.SeriesWindow, s.opts.SeriesWindow)
	}
	return cfg, cfg.Validate()
}

// clampBudget resolves a requested budget against a server budget: zero
// requests the full budget, larger requests are clamped to it.
func clampBudget(want, budget int) int {
	if budget <= 0 {
		return want
	}
	if want <= 0 || want > budget {
		return budget
	}
	return want
}

// Open admits a new session, or rejects it with an errRejected carrying
// the HTTP status and Retry-After.
func (s *Server) Open(req OpenRequest) (*session, *OpenResponse, error) {
	var snap *sprinkler.DeviceSnapshot
	if req.WarmState != "" {
		var err error
		if snap, err = s.loadSnapshot(req.WarmState); err != nil {
			return nil, nil, err
		}
	}
	cfg, err := s.sessionCfg(req, snap)
	if err != nil {
		return nil, nil, err
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, nil, &errRejected{status: 503, retryAfter: 10 * time.Second, msg: "server is draining"}
	}
	if len(s.sessions) >= s.opts.MaxSessions {
		s.mu.Unlock()
		s.counters.RejectedSession.Add(1)
		return nil, nil, &errRejected{
			status:     429,
			retryAfter: time.Second,
			msg:        fmt.Sprintf("session limit reached (%d open)", s.opts.MaxSessions),
		}
	}
	if s.opts.MaxDevices > 0 && len(s.sessions) >= s.opts.MaxDevices {
		// Every open session holds a device checked out of the arena;
		// warm pooled devices can be evicted, checked-out ones cannot.
		s.mu.Unlock()
		s.counters.RejectedDevice.Add(1)
		return nil, nil, &errRejected{
			status:     503,
			retryAfter: 2 * time.Second,
			msg:        fmt.Sprintf("device arena exhausted (%d devices checked out)", s.opts.MaxDevices),
		}
	}
	id := req.Name
	if id == "" {
		s.seq++
		id = fmt.Sprintf("s-%d", s.seq)
	}
	if _, dup := s.sessions[id]; dup {
		s.mu.Unlock()
		return nil, nil, &errRejected{status: 409, msg: fmt.Sprintf("session %q already open", id)}
	}
	// Reserve the slot before the (potentially slow) device build so
	// concurrent opens cannot overshoot the budgets.
	sess := &session{
		id:         id,
		cfg:        cfg,
		seed:       req.Seed,
		maxBacklog: clampBudget(req.MaxBacklog, s.opts.MaxBacklog),
		sem:        make(chan struct{}, 1),
		wallStart:  time.Now(),
		notify:     make(chan struct{}),
		lastUsed:   time.Now(),
	}
	// Hold the simulation lock across the build: the session is visible
	// in the map for admission accounting, but a request racing the open
	// (the client chose the name) queues on the lock instead of
	// observing a half-built session with a nil sess.sess.
	sess.sem <- struct{}{}
	s.sessions[id] = sess
	s.mu.Unlock()

	opts := []sprinkler.Option{sprinkler.WithArena(s.arena)}
	if snap != nil {
		opts = append(opts, sprinkler.WithSnapshot(snap))
	}
	if req.GCStress {
		opts = append(opts, sprinkler.WithPrecondition(sprinkler.Precondition{
			FillFrac: 0.95, ChurnFrac: 0.5, Seed: req.Seed,
		}))
	}
	inner, err := sprinkler.Open(cfg, opts...)
	if err != nil {
		// Mark the carcass closed before releasing the lock so queued
		// requests observe a finished session (404), not a nil one.
		sess.finish(nil, err)
		s.mu.Lock()
		delete(s.sessions, id)
		s.mu.Unlock()
		sess.unlock()
		return nil, nil, err
	}
	sess.sess = inner
	sess.publish(inner.Snapshot())
	sess.unlock()
	s.counters.SessionsOpened.Add(1)
	return sess, &OpenResponse{
		ID:           id,
		Chips:        cfg.Channels * cfg.ChipsPerChan,
		Scheduler:    string(cfg.Scheduler),
		MaxBacklog:   sess.maxBacklog,
		SeriesWindow: cfg.SeriesWindow,
		WarmState:    req.WarmState,
	}, nil
}

// get looks up an open session.
func (s *Server) get(id string) (*session, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	if !ok {
		return nil, errNotFound
	}
	return sess, nil
}

// remove unregisters a closed session and checkpoints its result.
func (s *Server) remove(sess *session, res *sprinkler.Result, err error) {
	s.mu.Lock()
	delete(s.sessions, sess.id)
	s.results = append(s.results, finishedSession{id: sess.id, res: res, err: err})
	if len(s.results) > maxRetainedResults {
		s.results = s.results[len(s.results)-maxRetainedResults:]
	}
	s.mu.Unlock()
}

// Result returns the checkpointed Result of a closed session, if still
// retained.
func (s *Server) Result(id string) (*sprinkler.Result, error, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := len(s.results) - 1; i >= 0; i-- {
		if s.results[i].id == id {
			return s.results[i].res, s.results[i].err, true
		}
	}
	return nil, nil, false
}

// drainSession drains sess under its simulation lock and returns the
// device to the arena; on failure (timeout, simulation error) the device
// is discarded instead. The session is unregistered either way.
func (s *Server) drainSession(ctx context.Context, sess *session) (*sprinkler.Result, error) {
	// A session drained by whoever held the lock before us is done:
	// draining it again would count a spurious Discard and checkpoint a
	// second errClosed result that shadows the real one.
	if res, err, done := sess.finished(); done {
		return res, err
	}
	res, err := sess.sess.Drain(ctx)
	if err != nil {
		// The drain did not complete; the device holds live simulation
		// state no arena may reuse.
		sess.sess.Discard()
		s.counters.SessionsDiscarded.Add(1)
	} else {
		s.counters.SessionsDrained.Add(1)
	}
	sess.finish(res, err)
	s.remove(sess, res, err)
	return res, err
}

// janitor periodically reclaims idle sessions: each is drained (final
// Result checkpointed) and its device returns to the arena for the next
// admission.
func (s *Server) janitor(interval time.Duration) {
	defer close(s.janitorDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.janitorStop:
			return
		case now := <-t.C:
			s.expireIdle(now)
		}
	}
}

// expireIdle sweeps one round of idle-session reclamation.
func (s *Server) expireIdle(now time.Time) {
	s.mu.Lock()
	var idle []*session
	for _, sess := range s.sessions {
		if sess.idleFor(now) > s.opts.IdleExpiry {
			idle = append(idle, sess)
		}
	}
	s.mu.Unlock()
	for _, sess := range idle {
		// A busy session is not idle — its request will refresh lastUsed.
		if !sess.tryLock() {
			continue
		}
		if _, _, done := sess.finished(); done {
			// Drained by a racing request between the sweep snapshot and
			// our lock; it is already unregistered and checkpointed.
			sess.unlock()
			continue
		}
		if sess.idleFor(time.Now()) <= s.opts.IdleExpiry {
			sess.unlock()
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), s.opts.DrainTimeout)
		s.drainSession(ctx, sess)
		cancel()
		sess.unlock()
		s.counters.SessionsExpired.Add(1)
	}
}

// Sessions lists the open sessions, sorted by ID, for the listing
// endpoint, /metrics and the daemon's shutdown log.
func (s *Server) Sessions() []SessionInfo {
	s.mu.Lock()
	sessions := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	slices.SortFunc(sessions, func(a, b *session) int { return cmp.Compare(a.id, b.id) })
	now := time.Now()
	infos := make([]SessionInfo, 0, len(sessions))
	for _, sess := range sessions {
		snap, _, _ := sess.observe()
		infos = append(infos, SessionInfo{
			ID:            sess.id,
			SimTimeNS:     snap.SimTimeNS,
			WallNS:        now.Sub(sess.wallStart).Nanoseconds(),
			Backlog:       snap.IOsSubmitted - snap.IOsCompleted,
			IdleNS:        sess.idleFor(now).Nanoseconds(),
			MaxBacklog:    sess.maxBacklog,
			ReadRetries:   snap.ReadRetries,
			ProgramFails:  snap.ProgramFails,
			RetiredBlocks: snap.RetiredBlocks,
			FailedIOs:     snap.FailedIOs,
			Degraded:      snap.DegradedMode,
		})
	}
	return infos
}

// Draining reports whether Close has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Close drains the server: new opens are rejected, the janitor stops, and
// every open session is drained to its final Result (devices returned to
// the arena) within ctx — the graceful-shutdown path, so a SIGTERM still
// checkpoints every accepted session. Sessions that cannot finish in time
// are discarded; the first such failure is returned.
func (s *Server) Close(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	s.mu.Unlock()

	// Stop the janitor before snapshotting the open set so its final
	// sweep cannot drain a session this loop is about to visit.
	if s.janitorStop != nil {
		close(s.janitorStop)
		<-s.janitorDone
	}

	s.mu.Lock()
	open := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		open = append(open, sess)
	}
	s.mu.Unlock()

	var firstErr error
	for _, sess := range open {
		if err := sess.lock(ctx); err != nil {
			// The session is wedged behind a request that will not finish
			// within the drain budget. Discarding it here would race the
			// lock holder, which is still mutating the single-threaded
			// simulation — instead doom it: the discard happens the moment
			// the holder releases the lock (moot if the process exits
			// first; the device dies with it either way).
			go func(sess *session, err error) {
				sess.sem <- struct{}{}
				defer sess.unlock()
				if _, _, done := sess.finished(); done {
					return
				}
				sess.sess.Discard()
				sess.finish(nil, err)
				s.remove(sess, nil, err)
				s.counters.SessionsDiscarded.Add(1)
			}(sess, err)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if _, _, done := sess.finished(); done {
			// Already drained — e.g. a client POST /drain in flight when
			// shutdown began. Its Result is checkpointed; nothing to do.
			sess.unlock()
			continue
		}
		dctx := ctx
		var cancel context.CancelFunc
		if s.opts.DrainTimeout > 0 {
			dctx, cancel = context.WithTimeout(ctx, s.opts.DrainTimeout)
		}
		if _, err := s.drainSession(dctx, sess); err != nil && firstErr == nil {
			firstErr = err
		}
		if cancel != nil {
			cancel()
		}
		sess.unlock()
	}
	return firstErr
}
