package serve_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sprinkler"
	"sprinkler/internal/serve"
	"sprinkler/internal/serve/client"
)

// stressConfig is a deliberately small topology so 64+ concurrent devices
// stay cheap under -race.
func stressConfig() sprinkler.Config {
	cfg := sprinkler.DefaultConfig()
	cfg.Channels = 2
	cfg.ChipsPerChan = 2
	cfg.BlocksPerPlane = 64
	cfg.PagesPerBlock = 16
	cfg.QueueDepth = 16
	return cfg
}

// TestConcurrentSessionsStress is the daemon's concurrency acceptance
// test, meant to run under -race: 64 sessions open and run concurrently
// against one bounded arena (with extra churn workers retrying through
// 429/503 backpressure), a subset is abandoned mid-flight for the idle
// janitor to reclaim, and every accepted session must drain to an
// isolated, self-consistent final Result.
func TestConcurrentSessionsStress(t *testing.T) {
	const (
		concurrent = 64 // sessions held open simultaneously
		churn      = 24 // extra workers competing through backpressure
		abandoned  = 8  // of the concurrent workers, left for the janitor
	)

	opts := serve.DefaultOptions()
	opts.BaseConfig = stressConfig()
	opts.MaxSessions = concurrent
	opts.MaxDevices = concurrent
	opts.MaxBacklog = 256
	// Long enough that a worker's inter-request gap under -race never
	// counts as idle, short enough that the abandoned sessions are
	// reclaimed while the churn workers still run.
	opts.IdleExpiry = 3 * time.Second
	opts.RequestTimeout = 10 * time.Second
	opts.DrainTimeout = 10 * time.Second

	srv := serve.NewServer(opts)
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Close(ctx)
	}()
	c := client.New(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	schedulers := []string{"SPK3", "VAS", "PAS", "SPK2", "SPK1"}
	workloads := []string{"cfs0", "cfs1", "hm1", "proj3"}

	// Phase 1: 64 workers open concurrently and hold their sessions until
	// everyone is in — the arena must genuinely sustain 64 checked-out
	// devices at once.
	var opened sync.WaitGroup
	opened.Add(concurrent)
	allIn := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, concurrent+churn)

	runSession := func(w int, sess *client.Session, abandon bool) error {
		sched := schedulers[w%len(schedulers)]
		requests := int64(40 + w%7*8)
		var fed int64
		if w%2 == 0 {
			// Feed mode: the server builds the workload.
			spec := serve.FeedSpec{
				Workload: &serve.WorkloadSpec{Name: workloads[w%len(workloads)], Requests: int(requests)},
				Seed:     uint64(w + 1),
			}
			for fed < requests {
				fr, err := sess.Feed(ctx, spec)
				if err != nil {
					if apiErr, ok := err.(*client.APIError); ok && apiErr.Retryable() {
						if _, err := sess.Advance(ctx, int64(50*time.Millisecond)); err != nil {
							return fmt.Errorf("worker %d advance-for-headroom: %w", w, err)
						}
						continue
					}
					return fmt.Errorf("worker %d feed: %w", w, err)
				}
				fed += fr.Fed
				spec = serve.FeedSpec{} // continuation: same stream
				if fr.Fed == 0 {
					break
				}
			}
		} else {
			// Submit mode: distinct per-worker LPN pattern in batches.
			for fed < requests {
				batch := make([]sprinkler.Request, 0, 8)
				for len(batch) < 8 && fed+int64(len(batch)) < requests {
					i := fed + int64(len(batch))
					batch = append(batch, sprinkler.Request{
						LPN:   (int64(w)*131 + i*7) % 1024,
						Pages: 1 + int(i%4),
						Write: i%3 == 0,
					})
				}
				if _, err := sess.Submit(ctx, batch...); err != nil {
					if apiErr, ok := err.(*client.APIError); ok && apiErr.Retryable() {
						if _, err := sess.Advance(ctx, int64(50*time.Millisecond)); err != nil {
							return fmt.Errorf("worker %d advance-for-headroom: %w", w, err)
						}
						continue
					}
					return fmt.Errorf("worker %d submit: %w", w, err)
				}
				fed += int64(len(batch))
			}
		}
		if fed != requests {
			return fmt.Errorf("worker %d fed %d of %d requests", w, fed, requests)
		}

		// Mixed observation while advancing the backlog down.
		var last sprinkler.Snapshot
		for i := 0; ; i++ {
			snap, err := sess.Advance(ctx, int64(20*time.Millisecond))
			if err != nil {
				return fmt.Errorf("worker %d advance: %w", w, err)
			}
			if snap.IOsCompleted > requests {
				return fmt.Errorf("worker %d: session leaked I/Os across sessions: completed %d of %d",
					w, snap.IOsCompleted, requests)
			}
			switch i % 3 {
			case 0:
				if _, err := sess.Snapshot(ctx); err != nil {
					return fmt.Errorf("worker %d snapshot: %w", w, err)
				}
			case 1:
				if _, err := sess.Watch(ctx, last.SimTimeNS, 50*time.Millisecond); err != nil {
					return fmt.Errorf("worker %d watch: %w", w, err)
				}
			}
			last = snap
			if snap.IOsCompleted == requests {
				break
			}
			if i > 10000 {
				return fmt.Errorf("worker %d: backlog never cleared (%d of %d)", w, snap.IOsCompleted, requests)
			}
		}

		if abandon {
			// Leave the session for the idle janitor; its checkpointed
			// Result is verified after the workers finish.
			return nil
		}
		res, err := sess.Drain(ctx)
		if err != nil {
			return fmt.Errorf("worker %d drain: %w", w, err)
		}
		if res.IOsCompleted != requests {
			return fmt.Errorf("worker %d: result completed %d of %d I/Os (isolation violated)",
				w, res.IOsCompleted, requests)
		}
		if res.Scheduler != sched {
			return fmt.Errorf("worker %d: result scheduler %q, want %q (session state leaked)",
				w, res.Scheduler, sched)
		}
		return nil
	}

	abandonedIDs := make([]string, 0, abandoned)
	abandonedWant := make(map[string]int64)
	var abandonedMu sync.Mutex

	for w := 0; w < concurrent; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess, err := c.Open(ctx, serve.OpenRequest{
				Name:      fmt.Sprintf("hold-%d", w),
				Scheduler: schedulers[w%len(schedulers)],
				Seed:      uint64(w + 1),
			})
			if err != nil {
				opened.Done()
				errs <- fmt.Errorf("worker %d open: %w", w, err)
				return
			}
			opened.Done()
			<-allIn // hold until all 64 are open at once
			abandon := w < abandoned
			if abandon {
				abandonedMu.Lock()
				abandonedIDs = append(abandonedIDs, sess.ID)
				abandonedWant[sess.ID] = int64(40 + w%7*8)
				abandonedMu.Unlock()
			}
			if err := runSession(w, sess, abandon); err != nil {
				errs <- err
			}
		}(w)
	}

	opened.Wait()
	if got := len(srv.Sessions()); got != concurrent {
		close(allIn)
		wg.Wait()
		t.Fatalf("only %d sessions concurrently open, want %d", got, concurrent)
	}
	// The arena is saturated: one more open must be rejected with
	// backpressure, not admitted or hung.
	if _, err := c.Open(ctx, serve.OpenRequest{Name: "overflow"}); err == nil {
		t.Fatal("65th concurrent open was admitted past the device budget")
	} else if apiErr, ok := err.(*client.APIError); !ok || !apiErr.Retryable() || apiErr.RetryAfter <= 0 {
		t.Fatalf("65th open rejection not retryable backpressure: %v", err)
	}
	close(allIn)

	// Phase 2: churn workers compete for freed slots through OpenWait's
	// 429/503 retry loop.
	for w := concurrent; w < concurrent+churn; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess, err := c.OpenWait(ctx, serve.OpenRequest{
				Name:      fmt.Sprintf("churn-%d", w),
				Scheduler: schedulers[w%len(schedulers)],
				Seed:      uint64(w + 1),
			})
			if err != nil {
				errs <- fmt.Errorf("churn worker %d open: %w", w, err)
				return
			}
			if err := runSession(w, sess, false); err != nil {
				errs <- err
			}
		}(w)
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// The abandoned sessions expire mid-flight and are drained by the
	// janitor with their devices recycled; each checkpointed Result must
	// carry exactly its own session's I/Os.
	deadline := time.Now().Add(30 * time.Second)
	for srv.Counters().SessionsExpired.Load() < abandoned {
		if time.Now().After(deadline) {
			t.Fatalf("janitor expired %d of %d abandoned sessions",
				srv.Counters().SessionsExpired.Load(), abandoned)
		}
		time.Sleep(20 * time.Millisecond)
	}
	for _, id := range abandonedIDs {
		res, rerr, ok := srv.Result(id)
		if !ok || rerr != nil || res == nil {
			t.Fatalf("abandoned session %s has no checkpointed Result (ok=%v err=%v)", id, ok, rerr)
		}
		if res.IOsCompleted != abandonedWant[id] {
			t.Fatalf("abandoned session %s drained %d I/Os, fed %d (isolation violated)",
				id, res.IOsCompleted, abandonedWant[id])
		}
	}

	if open := srv.Sessions(); len(open) != 0 {
		t.Fatalf("%d sessions still open at the end of the stress run", len(open))
	}
	total := srv.Counters().SessionsDrained.Load()
	if want := uint64(concurrent + churn); total != want {
		t.Fatalf("drained %d sessions, want %d (every accepted session must produce a Result)", total, want)
	}
}

// BenchmarkDaemonSessions measures one full daemon session lifecycle —
// open against the warm arena, feed, advance to completion, drain — with
// parallel clients, the serving-path analogue of the sweep benchmarks.
func BenchmarkDaemonSessions(b *testing.B) {
	opts := serve.DefaultOptions()
	opts.BaseConfig = stressConfig()
	opts.MaxSessions = 32
	opts.MaxDevices = 32
	opts.IdleExpiry = 0
	srv := serve.NewServer(opts)
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Close(ctx)
	}()
	c := client.New(ts.URL)
	ctx := context.Background()
	var seq atomic.Int64

	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			id := seq.Add(1)
			sess, err := c.OpenWait(ctx, serve.OpenRequest{
				Name: fmt.Sprintf("bench-%d", id),
				Seed: uint64(id),
			})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sess.Feed(ctx, serve.FeedSpec{
				Workload: &serve.WorkloadSpec{Name: "cfs0", Requests: 32},
			}); err != nil {
				b.Fatal(err)
			}
			for {
				snap, err := sess.Advance(ctx, int64(100*time.Millisecond))
				if err != nil {
					b.Fatal(err)
				}
				if snap.IOsCompleted >= 32 {
					break
				}
			}
			res, err := sess.Drain(ctx)
			if err != nil {
				b.Fatal(err)
			}
			if res.IOsCompleted != 32 {
				b.Fatalf("completed %d of 32", res.IOsCompleted)
			}
		}
	})
}
