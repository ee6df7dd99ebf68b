package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/pprof"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sprinkler"
	"sprinkler/internal/serve"
	"sprinkler/internal/serve/client"
)

const (
	// daemonSlots is how many distinct session seeds the clients cycle
	// through at scale 1: session i opens with seed SubSeed(seed, i % slots),
	// so every session's Result must equal the first one of its slot. The
	// simulated metrics pool all slots. More slots would steady them across
	// seeds but slow every open: a device Reset clears every mapping-table
	// page any earlier session touched, and the union grows with the slots.
	daemonSlots = 64
	// daemonRequests is how many cfs0 requests one session feeds.
	daemonRequests = 64
	// daemonWindowNS is the simulated time one Advance call covers.
	daemonWindowNS = 2_000_000
	// daemonWarmup is the warm-up's minimum length at scale 1. The warm-up
	// also runs every slot twice, so that the devices' touched pages, and
	// with them the cost of Reset, have stopped growing.
	daemonWarmup = 2 * time.Second
)

// daemonWorkload serves sessions from an in-process sprinklerd (its
// default options: the 64-chip platform, 8 devices) to one closed-loop
// client per CPU. A session opens, feeds 64 cfs0 requests, advances in
// 2 ms windows until they complete and drains. Session open (arena
// checkout, device Reset), HTTP/JSON and session locking dominate; the
// simulation is small.
type daemonWorkload struct {
	seed    uint64
	clients int
	warmFor time.Duration

	srv *serve.Server
	ts  *httptest.Server
	cl  *client.Client

	mu    sync.Mutex
	slots []*sprinkler.Result // the warm-up's result per slot
}

func newDaemon(o options) *daemonWorkload {
	w := &daemonWorkload{
		seed:    o.seed,
		clients: runtime.GOMAXPROCS(0),
		warmFor: time.Duration(float64(daemonWarmup) * o.scale),
		slots:   make([]*sprinkler.Result, max(4, scaled(daemonSlots, o.scale))),
	}
	// One kept-alive connection per client, as a real client pool would.
	if t, ok := http.DefaultTransport.(*http.Transport); ok && t.MaxIdleConnsPerHost < w.clients {
		t.MaxIdleConnsPerHost = w.clients
	}
	return w
}

// setup starts a server and warms its arena: every client opens one
// session and drains it empty, which builds the devices. The server's
// goroutines carry the profiler label side=server, the clients' side=client.
func (w *daemonWorkload) setup(ctx context.Context, tr *tracer) error {
	pprof.Do(ctx, pprof.Labels("side", "server"), func(context.Context) {
		w.srv = serve.NewServer(serve.DefaultOptions())
		w.ts = httptest.NewServer(w.srv.Handler())
	})
	w.cl = client.New(w.ts.URL)
	return w.clientsDo(ctx, func(ctx context.Context, c int) error {
		id := tr.beginLane("serve.first_session", c, -1)
		defer tr.end(id)
		s, err := w.cl.OpenWait(ctx, serve.OpenRequest{Seed: w.seed})
		if err != nil {
			return err
		}
		_, err = s.Drain(ctx)
		return err
	})
}

// clientsDo runs fn once per client, concurrently, and returns the first
// error once every client has returned.
func (w *daemonWorkload) clientsDo(ctx context.Context, fn func(ctx context.Context, c int) error) error {
	errs := make([]error, w.clients)
	var wg sync.WaitGroup
	for c := range w.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pprof.Do(ctx, pprof.Labels("side", "client"), func(ctx context.Context) {
				errs[c] = fn(ctx, c)
			})
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// clientStats is one client's share of a pass.
type clientStats struct {
	calls    []call
	sessions int64
	retried  int64
}

// loop runs sessions on every client until stop says to, and returns what
// the clients saw. Session indices are handed out in order, so a warm-up
// that stops at index 2*len(w.slots) has run every slot twice.
func (w *daemonWorkload) loop(ctx context.Context, tr *tracer, ck *checker, warm bool, stop func(idx int64, elapsed time.Duration) bool) (*pass, error) {
	before, hitsBefore := w.rejected(), w.srv.ArenaStats().DeviceHits
	var next atomic.Int64
	stats := make([]clientStats, w.clients)
	start := time.Now()
	err := w.clientsDo(ctx, func(ctx context.Context, c int) error {
		for ctx.Err() == nil {
			idx := next.Add(1) - 1
			if stop(idx, time.Since(start)) {
				return nil
			}
			if w.session(ctx, tr, ck, c, idx, warm, &stats[c]) {
				stats[c].sessions++
			}
		}
		return ctx.Err()
	})
	if err != nil {
		return nil, err
	}
	p := &pass{wall: time.Since(start), layer: map[string]float64{}}
	var retried int64
	for _, s := range stats {
		p.calls = append(p.calls, s.calls...)
		p.ops += s.sessions
		retried += s.retried
	}
	p.ios = p.ops * daemonRequests
	p.layer["serve.rejected_total"] = float64(w.rejected() - before)
	p.layer["serve.arena_device_hits"] = float64(w.srv.ArenaStats().DeviceHits - hitsBefore)
	p.layer["serve.retried_calls"] = float64(retried)
	return p, nil
}

// rejected sums the server's admission and busy rejections.
func (w *daemonWorkload) rejected() uint64 {
	c := w.srv.Counters()
	return c.RejectedSession.Load() + c.RejectedDevice.Load() + c.RejectedBacklog.Load() + c.RejectedBusy.Load()
}

// session runs one session lifecycle and reports whether it completed and
// passed its checks. Every HTTP call is one checked operation; a 429 or 503
// on open is retried after the server's Retry-After and is not a failure.
func (w *daemonWorkload) session(ctx context.Context, tr *tracer, ck *checker, lane int, idx int64, warm bool, st *clientStats) bool {
	slot := int(idx % int64(len(w.slots)))
	rep := int(idx)
	if warm {
		rep = -1
	}
	root := tr.beginLane("serve.session", lane, rep)
	defer tr.end(root)
	do := func(name string, fn func() error) error {
		id := tr.begin("serve."+name, root, rep, false)
		t0 := time.Now()
		err := fn()
		st.calls = append(st.calls, call{name, time.Since(t0)})
		tr.end(id)
		return err
	}

	var s *client.Session
	for {
		err := do("open", func() (err error) {
			s, err = w.cl.Open(ctx, serve.OpenRequest{Seed: sprinkler.SubSeed(w.seed, slot)})
			return err
		})
		var apiErr *client.APIError
		if errors.As(err, &apiErr) && apiErr.Retryable() {
			st.retried++
			select {
			case <-time.After(min(max(apiErr.RetryAfter, 10*time.Millisecond), time.Second)):
				continue
			case <-ctx.Done():
				return false
			}
		}
		ck.op(err)
		if err != nil {
			return false
		}
		break
	}
	fail := func(err error) bool {
		ck.op(err)
		_ = s.Discard(ctx) // best effort: the failure is already counted
		return false
	}

	err := do("feed", func() error {
		resp, err := s.Feed(ctx, serve.FeedSpec{Workload: &serve.WorkloadSpec{Name: "cfs0", Requests: daemonRequests}})
		if err == nil && resp.Fed != daemonRequests {
			err = fmt.Errorf("fed %d of %d requests", resp.Fed, daemonRequests)
		}
		return err
	})
	if err != nil {
		return fail(err)
	}
	ck.op(nil)
	for done := false; !done; {
		err := do("advance", func() error {
			snap, err := s.Advance(ctx, daemonWindowNS)
			done = snap.IOsCompleted >= daemonRequests
			return err
		})
		if err != nil {
			return fail(err)
		}
		ck.op(nil)
	}
	var res *sprinkler.Result
	err = do("drain", func() (err error) {
		res, err = s.Drain(ctx)
		return err
	})
	if err == nil {
		err = ck.check(fmt.Sprintf("slot%02d", slot), res, daemonRequests)
	}
	ck.op(err)
	if err != nil {
		return false
	}
	if warm {
		w.mu.Lock()
		if w.slots[slot] == nil {
			w.slots[slot] = res
		}
		w.mu.Unlock()
	}
	return true
}

// warmup runs sessions until every slot has run twice and the warm-up time
// has passed.
func (w *daemonWorkload) warmup(ctx context.Context, ck *checker) error {
	_, err := w.loop(ctx, nil, ck, true, func(idx int64, elapsed time.Duration) bool {
		return idx >= 2*int64(len(w.slots)) && elapsed >= w.warmFor
	})
	if err != nil {
		return err
	}
	for i, r := range w.slots {
		if r == nil {
			return fmt.Errorf("warm-up session of slot %d failed", i)
		}
	}
	return nil
}

func (w *daemonWorkload) measure(ctx context.Context, d time.Duration, tr *tracer, ck *checker) (*pass, error) {
	return w.loop(ctx, tr, ck, false, func(_ int64, elapsed time.Duration) bool { return elapsed >= d })
}

func (w *daemonWorkload) refs() []*sprinkler.Result {
	w.mu.Lock()
	defer w.mu.Unlock()
	return slices.Clone(w.slots)
}

func (w *daemonWorkload) sources() ([]sprinkler.Source, error) {
	cfg := serve.DefaultOptions().BaseConfig
	out := make([]sprinkler.Source, len(w.slots))
	for slot := range out {
		var err error
		out[slot], err = cfg.NewWorkloadSource(sprinkler.WorkloadSpec{
			Name: "cfs0", Requests: daemonRequests, Seed: sprinkler.SubSeed(w.seed, slot),
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (w *daemonWorkload) info(p *pass) []string {
	return []string{fmt.Sprintf("sessions %d by %d clients; sessions_per_s %.4g, calls %d, retried 429/503 %g",
		p.ops, w.clients, float64(p.ops)/p.wall.Seconds(), len(p.calls), p.layer["serve.retried_calls"])}
}

func (w *daemonWorkload) close() {
	if w.ts != nil {
		w.ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		w.srv.Close(ctx)
		cancel()
		w.ts, w.srv = nil, nil
	}
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}
