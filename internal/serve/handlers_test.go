package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sprinkler"
)

// testOptions is a small fast platform with tight budgets, suitable for
// exercising the admission-control paths deterministically.
func testOptions() Options {
	cfg := sprinkler.DefaultConfig()
	cfg.Channels = 2
	cfg.ChipsPerChan = 2
	cfg.BlocksPerPlane = 64
	cfg.PagesPerBlock = 16
	cfg.QueueDepth = 16
	opts := DefaultOptions()
	opts.BaseConfig = cfg
	opts.MaxSessions = 4
	opts.MaxDevices = 4
	opts.MaxBacklog = 64
	opts.IdleExpiry = 0 // tests that want the janitor set it explicitly
	opts.RequestTimeout = 200 * time.Millisecond
	opts.DrainTimeout = 5 * time.Second
	return opts
}

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	srv := NewServer(opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Close(ctx)
	})
	return srv, ts
}

// postJSON posts v and decodes the response body into out (when non-nil).
func postJSON(t *testing.T, url string, v, out any) *http.Response {
	t.Helper()
	var body bytes.Buffer
	if v != nil {
		if err := json.NewEncoder(&body).Encode(v); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(url, "application/json", &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", url, err)
		}
	}
	return resp
}

func openSession(t *testing.T, ts *httptest.Server, req OpenRequest) OpenResponse {
	t.Helper()
	var resp OpenResponse
	r := postJSON(t, ts.URL+"/v1/sessions", req, &resp)
	if r.StatusCode != http.StatusCreated {
		t.Fatalf("open: status %d", r.StatusCode)
	}
	return resp
}

// TestOpenRejectsAtSessionCap pins the 429 + Retry-After admission path.
func TestOpenRejectsAtSessionCap(t *testing.T) {
	opts := testOptions()
	opts.MaxSessions = 2
	srv, ts := newTestServer(t, opts)

	openSession(t, ts, OpenRequest{Name: "a"})
	openSession(t, ts, OpenRequest{Name: "b"})

	resp := postJSON(t, ts.URL+"/v1/sessions", OpenRequest{Name: "c"}, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity open: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 response carries no Retry-After")
	}
	if got := srv.Counters().RejectedSession.Load(); got != 1 {
		t.Fatalf("RejectedSession = %d, want 1", got)
	}

	// Draining a session frees the slot.
	if r := postJSON(t, ts.URL+"/v1/sessions/a/drain", nil, nil); r.StatusCode != http.StatusOK {
		t.Fatalf("drain: status %d", r.StatusCode)
	}
	openSession(t, ts, OpenRequest{Name: "c"})
}

// TestOpenRejectsAtDeviceBudget pins the 503 + Retry-After path when the
// arena's device budget is exhausted below the session cap.
func TestOpenRejectsAtDeviceBudget(t *testing.T) {
	opts := testOptions()
	opts.MaxSessions = 8
	opts.MaxDevices = 2
	srv, ts := newTestServer(t, opts)

	openSession(t, ts, OpenRequest{Name: "a"})
	openSession(t, ts, OpenRequest{Name: "b"})

	resp := postJSON(t, ts.URL+"/v1/sessions", OpenRequest{Name: "c"}, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-budget open: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 response carries no Retry-After")
	}
	if got := srv.Counters().RejectedDevice.Load(); got != 1 {
		t.Fatalf("RejectedDevice = %d, want 1", got)
	}
}

// TestDuplicateNameConflicts: opening an already-open name is a 409.
func TestDuplicateNameConflicts(t *testing.T) {
	_, ts := newTestServer(t, testOptions())
	openSession(t, ts, OpenRequest{Name: "dup"})
	if resp := postJSON(t, ts.URL+"/v1/sessions", OpenRequest{Name: "dup"}, nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate open: status %d, want 409", resp.StatusCode)
	}
}

// TestBusySessionTimesOut pins the request-timeout path: a request against
// a session whose simulation lock is held gets 503 + Retry-After once the
// server's request timeout elapses.
func TestBusySessionTimesOut(t *testing.T) {
	opts := testOptions()
	opts.RequestTimeout = 50 * time.Millisecond
	srv, ts := newTestServer(t, opts)

	sess, _, err := srv.Open(OpenRequest{Name: "busy"})
	if err != nil {
		t.Fatal(err)
	}
	// Hold the simulation lock, as a long-running Advance would.
	if err := sess.lock(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer sess.unlock()

	start := time.Now()
	resp := postJSON(t, ts.URL+"/v1/sessions/busy/advance", AdvanceRequest{DNS: 1}, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("busy session: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("busy 503 carries no Retry-After")
	}
	if waited := time.Since(start); waited < opts.RequestTimeout {
		t.Fatalf("rejected after %v, before the %v request timeout", waited, opts.RequestTimeout)
	}
	if got := srv.Counters().RejectedBusy.Load(); got != 1 {
		t.Fatalf("RejectedBusy = %d, want 1", got)
	}
}

// TestSubmitBacklogBudget: submits beyond the per-session backlog budget
// are rejected with 429 until the session advances.
func TestSubmitBacklogBudget(t *testing.T) {
	opts := testOptions()
	opts.MaxBacklog = 8
	srv, ts := newTestServer(t, opts)
	openSession(t, ts, OpenRequest{Name: "s"})

	reqs := make([]sprinkler.Request, 8)
	for i := range reqs {
		reqs[i] = sprinkler.Request{LPN: int64(i * 8), Pages: 1}
	}
	var sub SubmitResponse
	if r := postJSON(t, ts.URL+"/v1/sessions/s/submit", SubmitRequest{Requests: reqs}, &sub); r.StatusCode != http.StatusOK {
		t.Fatalf("submit: status %d", r.StatusCode)
	}
	if sub.Backlog != 8 {
		t.Fatalf("backlog = %d, want 8", sub.Backlog)
	}

	resp := postJSON(t, ts.URL+"/v1/sessions/s/submit",
		SubmitRequest{Requests: []sprinkler.Request{{LPN: 0, Pages: 1}}}, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget submit: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("backlog 429 carries no Retry-After")
	}
	if got := srv.Counters().RejectedBacklog.Load(); got != 1 {
		t.Fatalf("RejectedBacklog = %d, want 1", got)
	}

	// Advancing clears the backlog and re-opens admission.
	var snap sprinkler.Snapshot
	if r := postJSON(t, ts.URL+"/v1/sessions/s/advance", AdvanceRequest{DNS: int64(time.Second)}, &snap); r.StatusCode != http.StatusOK {
		t.Fatalf("advance: status %d", r.StatusCode)
	}
	if snap.IOsCompleted != 8 {
		t.Fatalf("advance completed %d I/Os, want 8", snap.IOsCompleted)
	}
	if r := postJSON(t, ts.URL+"/v1/sessions/s/submit",
		SubmitRequest{Requests: []sprinkler.Request{{LPN: 0, Pages: 1}}}, nil); r.StatusCode != http.StatusOK {
		t.Fatalf("post-advance submit: status %d", r.StatusCode)
	}
}

// TestOversizedRequestRejected: a submit or feed naming a 2^30-page
// request is a 400, not an out-of-memory crash, and the server keeps
// serving the session afterwards.
func TestOversizedRequestRejected(t *testing.T) {
	_, ts := newTestServer(t, testOptions())
	openSession(t, ts, OpenRequest{Name: "big"})

	huge := SubmitRequest{Requests: []sprinkler.Request{{LPN: 0, Pages: 1 << 30}}}
	if r := postJSON(t, ts.URL+"/v1/sessions/big/submit", huge, nil); r.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized submit: status %d, want 400", r.StatusCode)
	}
	feed := FeedSpec{Fixed: &sprinkler.FixedSpec{Requests: 4, Pages: 1 << 30, Sequential: true}}
	if r := postJSON(t, ts.URL+"/v1/sessions/big/feed", feed, nil); r.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized feed: status %d, want 400", r.StatusCode)
	}
	ok := SubmitRequest{Requests: []sprinkler.Request{{LPN: 0, Pages: 4}}}
	if r := postJSON(t, ts.URL+"/v1/sessions/big/submit", ok, nil); r.StatusCode != http.StatusOK {
		t.Fatalf("valid submit after rejection: status %d", r.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after rejection: status %d", resp.StatusCode)
	}
}

// TestFullDriveSessionSurvives: one write larger than the whole drive
// fills a gcStress session past its physical capacity. The drive must
// degrade to read-only mode and fail the write instead of panicking under
// the advance or the drain at Close, and the server keeps serving.
func TestFullDriveSessionSurvives(t *testing.T) {
	srv, ts := newTestServer(t, testOptions())
	openSession(t, ts, OpenRequest{Name: "full", Chips: 4, GCStress: true})

	fill := SubmitRequest{Requests: []sprinkler.Request{{LPN: 0, Pages: 65536, Write: true}}}
	if r := postJSON(t, ts.URL+"/v1/sessions/full/submit", fill, nil); r.StatusCode != http.StatusOK {
		t.Fatalf("submit: status %d", r.StatusCode)
	}
	var snap sprinkler.Snapshot
	if r := postJSON(t, ts.URL+"/v1/sessions/full/advance", AdvanceRequest{DNS: int64(time.Second)}, &snap); r.StatusCode != http.StatusOK {
		t.Fatalf("advance: status %d", r.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after the fill: status %d", resp.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	res, rerr, ok := srv.Result("full")
	if !ok || rerr != nil || res == nil {
		t.Fatalf("no drained Result (ok=%v err=%v)", ok, rerr)
	}
	if res.FailedIOs != 1 || !res.DegradedMode {
		t.Fatalf("drained %d failed I/Os, degraded=%v; want the fill failed in degraded mode",
			res.FailedIOs, res.DegradedMode)
	}
}

// TestAdvancePastHorizonSessionSurvives: an advance that would carry the
// clock past the simulated-time horizon is a 400, and the session still
// drains its I/O when the server closes.
func TestAdvancePastHorizonSessionSurvives(t *testing.T) {
	srv, ts := newTestServer(t, testOptions())
	openSession(t, ts, OpenRequest{Name: "far"})
	write := SubmitRequest{Requests: []sprinkler.Request{{LPN: 0, Pages: 4, Write: true}}}
	if r := postJSON(t, ts.URL+"/v1/sessions/far/submit", write, nil); r.StatusCode != http.StatusOK {
		t.Fatalf("submit: status %d", r.StatusCode)
	}
	if r := postJSON(t, ts.URL+"/v1/sessions/far/advance", AdvanceRequest{DNS: math.MaxInt64}, nil); r.StatusCode != http.StatusBadRequest {
		t.Fatalf("advance by MaxInt64: status %d, want 400", r.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	res, rerr, ok := srv.Result("far")
	if !ok || rerr != nil || res == nil || res.IOsCompleted != 1 {
		t.Fatalf("drained Result %+v (ok=%v err=%v), want 1 completed I/O", res, ok, rerr)
	}
}

// TestFeedClampsToBacklogBudget: a bounded feed larger than the budget
// admits exactly the headroom and reports it, so clients make progress
// under backpressure instead of failing.
func TestFeedClampsToBacklogBudget(t *testing.T) {
	opts := testOptions()
	opts.MaxBacklog = 16
	_, ts := newTestServer(t, opts)
	openSession(t, ts, OpenRequest{Name: "f"})

	var feed FeedResponse
	spec := FeedSpec{Workload: &WorkloadSpec{Name: "cfs0", Requests: 100}}
	if r := postJSON(t, ts.URL+"/v1/sessions/f/feed", spec, &feed); r.StatusCode != http.StatusOK {
		t.Fatalf("feed: status %d", r.StatusCode)
	}
	if feed.Fed != 16 {
		t.Fatalf("feed admitted %d, want the 16-request headroom", feed.Fed)
	}

	// At the budget: the next feed is rejected until the session advances.
	if r := postJSON(t, ts.URL+"/v1/sessions/f/feed", FeedSpec{}, nil); r.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("feed at budget: status %d, want 429", r.StatusCode)
	}
	postJSON(t, ts.URL+"/v1/sessions/f/advance", AdvanceRequest{DNS: int64(time.Second)}, nil)

	// Continuation feed (no spec) pulls the rest of the same stream.
	total := int64(16)
	for range 16 {
		if r := postJSON(t, ts.URL+"/v1/sessions/f/feed", FeedSpec{}, &feed); r.StatusCode != http.StatusOK {
			t.Fatalf("continuation feed: status %d", r.StatusCode)
		}
		postJSON(t, ts.URL+"/v1/sessions/f/advance", AdvanceRequest{DNS: int64(time.Second)}, nil)
		total += feed.Fed
		if feed.Fed == 0 {
			break
		}
	}
	if total != 100 {
		t.Fatalf("stream fed %d requests across feeds, want 100", total)
	}

	var res sprinkler.Result
	if r := postJSON(t, ts.URL+"/v1/sessions/f/drain", nil, &res); r.StatusCode != http.StatusOK {
		t.Fatalf("drain: status %d", r.StatusCode)
	}
	if res.IOsCompleted != 100 {
		t.Fatalf("drained %d I/Os, want 100", res.IOsCompleted)
	}
}

// TestFeedRejectsUnboundedDrain: with no backlog budget and no count, an
// infinite workload must not wedge the daemon.
func TestFeedRejectsUnboundedDrain(t *testing.T) {
	opts := testOptions()
	opts.MaxBacklog = 0 // unbounded sessions
	_, ts := newTestServer(t, opts)
	openSession(t, ts, OpenRequest{Name: "u"})

	spec := FeedSpec{Workload: &WorkloadSpec{Name: "cfs0"}} // Requests 0 = infinite
	if r := postJSON(t, ts.URL+"/v1/sessions/u/feed", spec, nil); r.StatusCode != http.StatusBadRequest {
		t.Fatalf("unbounded drain: status %d, want 400", r.StatusCode)
	}
	// With an explicit count the same stream is fine.
	var feed FeedResponse
	if r := postJSON(t, ts.URL+"/v1/sessions/u/feed", FeedSpec{Workload: &WorkloadSpec{Name: "cfs0"}, Count: 10}, &feed); r.StatusCode != http.StatusOK {
		t.Fatalf("counted feed: status %d", r.StatusCode)
	}
	if feed.Fed != 10 {
		t.Fatalf("fed %d, want 10", feed.Fed)
	}
}

// TestUnknownSessionIs404 covers the lookup path for every session verb.
func TestUnknownSessionIs404(t *testing.T) {
	_, ts := newTestServer(t, testOptions())
	for _, ep := range []string{"submit", "feed", "advance", "drain"} {
		if r := postJSON(t, ts.URL+"/v1/sessions/nope/"+ep, nil, nil); r.StatusCode != http.StatusNotFound {
			t.Fatalf("%s on unknown session: status %d, want 404", ep, r.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/sessions/nope/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("snapshot on unknown session: status %d, want 404", resp.StatusCode)
	}
}

// TestIdleExpiryReclaims: an idle session is drained by the janitor, its
// Result checkpointed, and its device returned to the arena so the next
// open is a warm hit.
func TestIdleExpiryReclaims(t *testing.T) {
	opts := testOptions()
	opts.IdleExpiry = 50 * time.Millisecond
	srv, ts := newTestServer(t, opts)

	openSession(t, ts, OpenRequest{Name: "idle"})
	var feed FeedResponse
	spec := FeedSpec{Workload: &WorkloadSpec{Name: "cfs0", Requests: 20}}
	if r := postJSON(t, ts.URL+"/v1/sessions/idle/feed", spec, &feed); r.StatusCode != http.StatusOK {
		t.Fatalf("feed: status %d", r.StatusCode)
	}

	deadline := time.Now().Add(5 * time.Second)
	for srv.Counters().SessionsExpired.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("janitor never expired the idle session")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if n := len(srv.Sessions()); n != 0 {
		t.Fatalf("%d sessions still open after expiry", n)
	}

	// The expiry drained the session: its Result is checkpointed with the
	// fed I/Os completed.
	res, rerr, ok := srv.Result("idle")
	if !ok || rerr != nil || res == nil {
		t.Fatalf("expired session has no checkpointed Result (ok=%v err=%v)", ok, rerr)
	}
	if res.IOsCompleted != feed.Fed {
		t.Fatalf("checkpointed Result completed %d I/Os, fed %d", res.IOsCompleted, feed.Fed)
	}
	resp, err := http.Get(ts.URL + "/v1/results/idle")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/results/idle: status %d", resp.StatusCode)
	}

	// The reclaimed device is back in the arena: same-topology open hits.
	before := srv.ArenaStats().DeviceHits
	openSession(t, ts, OpenRequest{Name: "warm"})
	if after := srv.ArenaStats().DeviceHits; after != before+1 {
		t.Fatalf("open after expiry was not a warm arena hit (hits %d -> %d)", before, after)
	}
}

// TestGracefulClose: Close drains every open session to a checkpointed
// final Result and rejects new opens while draining.
func TestGracefulClose(t *testing.T) {
	opts := testOptions()
	srv, ts := newTestServer(t, opts)

	fed := map[string]int64{}
	for _, id := range []string{"a", "b", "c"} {
		openSession(t, ts, OpenRequest{Name: id})
		var feed FeedResponse
		spec := FeedSpec{Workload: &WorkloadSpec{Name: "cfs1", Requests: 30}}
		if r := postJSON(t, ts.URL+"/v1/sessions/"+id+"/feed", spec, &feed); r.StatusCode != http.StatusOK {
			t.Fatalf("feed %s: status %d", id, r.StatusCode)
		}
		fed[id] = feed.Fed
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if n := len(srv.Sessions()); n != 0 {
		t.Fatalf("%d sessions open after Close", n)
	}
	for id, want := range fed {
		res, rerr, ok := srv.Result(id)
		if !ok || rerr != nil || res == nil {
			t.Fatalf("session %s has no checkpointed Result after Close (ok=%v err=%v)", id, ok, rerr)
		}
		if res.IOsCompleted != want {
			t.Fatalf("session %s drained %d I/Os, fed %d", id, res.IOsCompleted, want)
		}
	}
	if resp := postJSON(t, ts.URL+"/v1/sessions", OpenRequest{Name: "late"}, nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("open while draining: status %d, want 503", resp.StatusCode)
	}
}

// TestOpenRacingRequestNeverSeesHalfBuiltSession: a request racing an
// Open of the same name (the client chose it) must queue on the
// simulation lock or 404/503 — never observe the session between map
// insertion and device construction (a nil sess.sess panicked here).
func TestOpenRacingRequestNeverSeesHalfBuiltSession(t *testing.T) {
	opts := testOptions()
	_, ts := newTestServer(t, opts)

	for round := range 3 {
		name := fmt.Sprintf("race-%d", round)
		stop := make(chan struct{})
		errs := make(chan error, 1)
		go func() {
			for {
				select {
				case <-stop:
					errs <- nil
					return
				default:
				}
				var body bytes.Buffer
				json.NewEncoder(&body).Encode(AdvanceRequest{DNS: 1})
				resp, err := http.Post(ts.URL+"/v1/sessions/"+name+"/advance", "application/json", &body)
				if err != nil {
					errs <- fmt.Errorf("advance during open failed transport-level (handler panic?): %w", err)
					return
				}
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK, http.StatusNotFound, http.StatusServiceUnavailable:
					// Before the insert, queued past the request timeout, or
					// after the build completed — all fine.
				default:
					errs <- fmt.Errorf("advance during open: status %d", resp.StatusCode)
					return
				}
			}
		}()
		// GCStress preconditioning makes the build slow, widening the
		// window between map insertion and sess.sess assignment.
		openSession(t, ts, OpenRequest{Name: name, GCStress: true})
		close(stop)
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
		if r := postJSON(t, ts.URL+"/v1/sessions/"+name+"/drain", nil, nil); r.StatusCode != http.StatusOK {
			t.Fatalf("drain: status %d", r.StatusCode)
		}
	}
}

// TestDrainSessionIdempotent: draining a session that already reached its
// terminal state returns the checkpointed Result instead of failing with
// errClosed, counting a spurious Discard, and shadowing the clean Result —
// the Close-vs-client-drain and janitor-vs-client-drain races.
func TestDrainSessionIdempotent(t *testing.T) {
	srv, ts := newTestServer(t, testOptions())
	sess, _, err := srv.Open(OpenRequest{Name: "x"})
	if err != nil {
		t.Fatal(err)
	}
	spec := FeedSpec{Workload: &WorkloadSpec{Name: "cfs0", Requests: 10}}
	if r := postJSON(t, ts.URL+"/v1/sessions/x/feed", spec, nil); r.StatusCode != http.StatusOK {
		t.Fatalf("feed: status %d", r.StatusCode)
	}

	ctx := context.Background()
	if err := sess.lock(ctx); err != nil {
		t.Fatal(err)
	}
	defer sess.unlock()
	res1, err := srv.drainSession(ctx, sess)
	if err != nil || res1 == nil {
		t.Fatalf("first drain: res=%v err=%v", res1, err)
	}
	res2, err := srv.drainSession(ctx, sess)
	if err != nil {
		t.Fatalf("second drain errored instead of returning the checkpoint: %v", err)
	}
	if res2 != res1 {
		t.Fatalf("second drain returned a different result (%p vs %p)", res2, res1)
	}
	if got := srv.Counters().SessionsDiscarded.Load(); got != 0 {
		t.Fatalf("SessionsDiscarded = %d after a double drain, want 0", got)
	}
	resp, err := http.Get(ts.URL + "/v1/results/x")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/results/x: status %d, want the clean Result", resp.StatusCode)
	}
}

// TestCloseDefersDiscardOfWedgedSession: when a session cannot be locked
// within Close's budget, the discard must wait for the wedged request to
// release the lock — Discard mutates the single-threaded simulation and
// must never run concurrently with its holder.
func TestCloseDefersDiscardOfWedgedSession(t *testing.T) {
	srv, _ := newTestServer(t, testOptions())
	sess, _, err := srv.Open(OpenRequest{Name: "wedged"})
	if err != nil {
		t.Fatal(err)
	}
	// Hold the simulation lock, as a request stuck in a long Advance would.
	if err := sess.lock(context.Background()); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := srv.Close(ctx); err == nil {
		t.Fatal("Close with a wedged session returned nil")
	}
	if got := srv.Counters().SessionsDiscarded.Load(); got != 0 {
		t.Fatal("session discarded while the wedged request still held the lock")
	}

	sess.unlock() // the wedged request finishes
	deadline := time.Now().Add(5 * time.Second)
	for srv.Counters().SessionsDiscarded.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("doomed session was never discarded after the lock released")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := len(srv.Sessions()); n != 0 {
		t.Fatalf("%d sessions still registered after the deferred discard", n)
	}
}

// TestWatchLongPoll: a watch blocks until simulated time moves past
// sinceNS, then returns the newer snapshot.
func TestWatchLongPoll(t *testing.T) {
	_, ts := newTestServer(t, testOptions())
	openSession(t, ts, OpenRequest{Name: "w"})
	spec := FeedSpec{Workload: &WorkloadSpec{Name: "cfs0", Requests: 10}}
	if r := postJSON(t, ts.URL+"/v1/sessions/w/feed", spec, nil); r.StatusCode != http.StatusOK {
		t.Fatalf("feed: status %d", r.StatusCode)
	}

	go func() {
		time.Sleep(50 * time.Millisecond)
		postJSON(t, ts.URL+"/v1/sessions/w/advance", AdvanceRequest{DNS: int64(time.Second)}, nil)
	}()

	start := time.Now()
	resp, err := http.Get(ts.URL + "/v1/sessions/w/watch?sinceNS=0&timeoutMS=5000")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap sprinkler.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.SimTimeNS <= 0 {
		t.Fatalf("watch returned a snapshot that never advanced: %+v", snap)
	}
	if time.Since(start) < 40*time.Millisecond {
		t.Fatal("watch returned before the advance that should have woken it")
	}
}

// TestWatchSSE: the SSE stream emits snapshot events as the simulation
// advances and a close event when the session drains.
func TestWatchSSE(t *testing.T) {
	_, ts := newTestServer(t, testOptions())
	openSession(t, ts, OpenRequest{Name: "sse"})
	spec := FeedSpec{Workload: &WorkloadSpec{Name: "cfs0", Requests: 10}}
	if r := postJSON(t, ts.URL+"/v1/sessions/sse/feed", spec, nil); r.StatusCode != http.StatusOK {
		t.Fatalf("feed: status %d", r.StatusCode)
	}

	resp, err := http.Get(ts.URL + "/v1/sessions/sse/watch?stream=sse")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}

	go func() {
		time.Sleep(20 * time.Millisecond)
		postJSON(t, ts.URL+"/v1/sessions/sse/advance", AdvanceRequest{DNS: int64(time.Second)}, nil)
		postJSON(t, ts.URL+"/v1/sessions/sse/drain", nil, nil)
	}()

	sc := bufio.NewScanner(resp.Body)
	var events []string
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "event: ") {
			events = append(events, strings.TrimPrefix(line, "event: "))
		}
		if line == "event: close" {
			break
		}
	}
	if len(events) < 2 || events[len(events)-1] != "close" {
		t.Fatalf("SSE stream events = %v, want snapshot updates then close", events)
	}
	for _, ev := range events[:len(events)-1] {
		if ev != "snapshot" {
			t.Fatalf("unexpected SSE event %q in %v", ev, events)
		}
	}
}

// TestMetricsExposition: the required series exist and carry per-session
// gauges while sessions are open.
func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, testOptions())
	openSession(t, ts, OpenRequest{Name: "m"})
	postJSON(t, ts.URL+"/v1/sessions/m/feed", FeedSpec{Workload: &WorkloadSpec{Name: "cfs0", Requests: 5}}, nil)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, series := range []string{
		"sprinklerd_sessions_open 1",
		"sprinklerd_sessions_opened_total 1",
		"sprinklerd_requests_admitted_total",
		"sprinklerd_ios_submitted_total 5",
		"sprinklerd_arena_device_misses_total",
		`sprinklerd_session_sim_time_ns{session="m"}`,
		`sprinklerd_session_wall_time_ns{session="m"}`,
		`sprinklerd_session_backlog{session="m"}`,
	} {
		if !strings.Contains(text, series) {
			t.Fatalf("metrics exposition is missing %q:\n%s", series, text)
		}
	}
}

// TestSeriesBudgetClamped: a session asking for a larger latency-series
// window than the server budget is clamped to it.
func TestSeriesBudgetClamped(t *testing.T) {
	opts := testOptions()
	opts.SeriesWindow = 32
	_, ts := newTestServer(t, opts)

	resp := openSession(t, ts, OpenRequest{Name: "s", CollectSeries: true, SeriesWindow: 1 << 20})
	if resp.SeriesWindow != 32 {
		t.Fatalf("series window = %d, want clamp to the 32 budget", resp.SeriesWindow)
	}
	spec := FeedSpec{Workload: &WorkloadSpec{Name: "cfs0", Requests: 64}}
	if r := postJSON(t, ts.URL+"/v1/sessions/s/feed", spec, nil); r.StatusCode != http.StatusOK {
		t.Fatalf("feed: status %d", r.StatusCode)
	}
	var res sprinkler.Result
	if r := postJSON(t, ts.URL+"/v1/sessions/s/drain", nil, &res); r.StatusCode != http.StatusOK {
		t.Fatalf("drain: status %d", r.StatusCode)
	}
	if len(res.Series) == 0 || len(res.Series) > 32 {
		t.Fatalf("series has %d points, want 1..32", len(res.Series))
	}
}

// TestDiscard: DELETE abandons the session without a Result and without
// returning the device to the arena.
func TestDiscard(t *testing.T) {
	srv, ts := newTestServer(t, testOptions())
	openSession(t, ts, OpenRequest{Name: "d"})
	postJSON(t, ts.URL+"/v1/sessions/d/feed", FeedSpec{Workload: &WorkloadSpec{Name: "cfs0", Requests: 5}}, nil)

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/d", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("discard: status %d, want 204", resp.StatusCode)
	}
	if n := len(srv.Sessions()); n != 0 {
		t.Fatalf("%d sessions open after discard", n)
	}
	if got := srv.Counters().SessionsDiscarded.Load(); got != 1 {
		t.Fatalf("SessionsDiscarded = %d, want 1", got)
	}
}

// TestOpenRejectsInvalidFaultSpec: fault knobs ride the open request
// through Config.Validate, so malformed specs are a 400, not a panic or a
// silently clamped session. A spare pool that would starve the gcStress
// drive's garbage collector is refused before the arena builds a device.
func TestOpenRejectsInvalidFaultSpec(t *testing.T) {
	srv, ts := newTestServer(t, testOptions())
	for _, spec := range []sprinkler.FaultSpec{
		{ReadFailProb: 2},
		{ProgramFailProb: -0.1},
		{ReadRetryMax: -1},
		{OutageDurNS: 100},                      // duration without a period
		{OutagePeriodNS: 100, OutageDurNS: 100}, // window covers the whole period
		{OutagePeriodNS: 9e18, OutageDurNS: 9e18 - 1},
		{ReadFailProb: 1, ReadRetryMax: 1 << 30, ReadRetryMult: 1 << 30},
		{SpareBlockFrac: 1},
	} {
		spec := spec
		resp := postJSON(t, ts.URL+"/v1/sessions", OpenRequest{Faults: &spec}, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("open with fault spec %+v: status %d, want 400", spec, resp.StatusCode)
		}
	}
	starved := OpenRequest{Chips: 4, GCStress: true, Faults: &sprinkler.FaultSpec{SpareBlockFrac: 0.9}}
	if resp := postJSON(t, ts.URL+"/v1/sessions", starved, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("gcStress open with spareBlockFrac 0.9: status %d, want 400", resp.StatusCode)
	}
	if misses := srv.ArenaStats().DeviceMisses; misses != 0 {
		t.Fatalf("refused opens built %d devices, want 0", misses)
	}
	// A valid spec on the same server still opens.
	openSession(t, ts, OpenRequest{Name: "ok", Faults: &sprinkler.FaultSpec{ReadFailProb: 0.01, ReadRetryMax: 2}})
}

// TestOpenRejectsOversizedPlatform: chips and queue past their bounds
// are a 400 before any device is built.
func TestOpenRejectsOversizedPlatform(t *testing.T) {
	srv, ts := newTestServer(t, testOptions())
	for _, req := range []OpenRequest{
		{Chips: 1 << 20},
		{Chips: 1025},
		{Queue: 1 << 30},
		{Queue: 65537},
		{Chips: -1},
		{Queue: -1},
	} {
		resp := postJSON(t, ts.URL+"/v1/sessions", req, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("open %+v: status %d, want 400", req, resp.StatusCode)
		}
	}
	if misses := srv.ArenaStats().DeviceMisses; misses != 0 {
		t.Fatalf("rejected opens built %d devices", misses)
	}
	// The bounds themselves are still accepted.
	openSession(t, ts, OpenRequest{Name: "max-queue", Queue: 65536})
}

// TestFaultSessionMetrics: a session opened with an aggressive fault spec
// surfaces its fault counters in the session listing and the Prometheus
// exposition.
func TestFaultSessionMetrics(t *testing.T) {
	srv, ts := newTestServer(t, testOptions())
	openSession(t, ts, OpenRequest{
		Name: "f",
		Faults: &sprinkler.FaultSpec{
			ReadFailProb:    0.4,
			ProgramFailProb: 0.2,
			ReadRetryMax:    3,
			ReadRetryMult:   2,
			RewriteMax:      3,
			Seed:            17,
		},
	})
	postJSON(t, ts.URL+"/v1/sessions/f/feed", FeedSpec{Workload: &WorkloadSpec{Name: "cfs1", Requests: 60}}, nil)
	if r := postJSON(t, ts.URL+"/v1/sessions/f/advance", AdvanceRequest{DNS: int64(time.Second)}, nil); r.StatusCode != http.StatusOK {
		t.Fatalf("advance: status %d", r.StatusCode)
	}

	var info SessionInfo
	for _, s := range srv.Sessions() {
		if s.ID == "f" {
			info = s
		}
	}
	if info.ID != "f" {
		t.Fatal("session f missing from listing")
	}
	if info.ReadRetries == 0 {
		t.Fatalf("session listing shows no read retries under a 40%% read-fail rate: %+v", info)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, series := range []string{
		`sprinklerd_session_fault_read_retries{session="f"}`,
		`sprinklerd_session_fault_program_fails{session="f"}`,
		`sprinklerd_session_fault_retired_blocks{session="f"}`,
		`sprinklerd_session_fault_failed_ios{session="f"}`,
		`sprinklerd_session_fault_degraded{session="f"} 0`,
	} {
		if !strings.Contains(text, series) {
			t.Fatalf("metrics exposition is missing %q:\n%s", series, text)
		}
	}
}
