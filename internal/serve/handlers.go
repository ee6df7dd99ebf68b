package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"
)

// maxBodyBytes bounds a request body; batched submits dominate sizing.
const maxBodyBytes = 8 << 20

// Handler builds the daemon's HTTP API:
//
//	POST   /v1/sessions                  open a named session (429/503 + Retry-After under pressure)
//	GET    /v1/sessions                  list open sessions
//	GET    /v1/snapshots                 catalog of -snapshot-dir warm states (404 when unconfigured)
//	POST   /v1/sessions/{id}/submit      admit one or a batch of I/Os
//	POST   /v1/sessions/{id}/feed        build a workload server-side and feed it
//	POST   /v1/sessions/{id}/advance     run simulated time forward; returns the new snapshot
//	GET    /v1/sessions/{id}/snapshot    current cumulative snapshot
//	GET    /v1/sessions/{id}/watch       long-poll (default) or SSE (?stream=sse) snapshot updates
//	POST   /v1/sessions/{id}/drain       finish the run; returns the final Result
//	DELETE /v1/sessions/{id}             discard without draining
//	GET    /v1/results/{id}              checkpointed Result of a closed session
//	GET    /metrics                      text exposition of server+arena counters
//	GET    /debug/pprof/...              runtime profiles
//	GET    /healthz                      liveness
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", s.handleOpen)
	mux.HandleFunc("GET /v1/sessions", s.handleList)
	mux.HandleFunc("GET /v1/snapshots", s.handleSnapshots)
	mux.HandleFunc("POST /v1/sessions/{id}/submit", s.withSession(s.handleSubmit))
	mux.HandleFunc("POST /v1/sessions/{id}/feed", s.withSession(s.handleFeed))
	mux.HandleFunc("POST /v1/sessions/{id}/advance", s.withSession(s.handleAdvance))
	mux.HandleFunc("GET /v1/sessions/{id}/snapshot", s.handleSnapshot)
	mux.HandleFunc("GET /v1/sessions/{id}/watch", s.handleWatch)
	mux.HandleFunc("POST /v1/sessions/{id}/drain", s.withSession(s.handleDrain))
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.withSession(s.handleDiscard))
	mux.HandleFunc("GET /v1/results/{id}", s.handleResult)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return mux
}

// writeJSON encodes v with the stable wire encoding.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeError maps an error onto its HTTP response: admission rejections
// keep their status and Retry-After, lookups 404, everything else 400.
func writeError(w http.ResponseWriter, err error) {
	var rej *errRejected
	switch {
	case errors.As(err, &rej):
		if rej.retryAfter > 0 {
			secs := int(rej.retryAfter / time.Second)
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
		}
		writeJSON(w, rej.status, ErrorResponse{Error: rej.msg})
	case errors.Is(err, errNotFound):
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: err.Error()})
	default:
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
	}
}

// readJSON decodes a bounded request body. An empty body decodes the zero
// value, so argument-free endpoints accept bare POSTs.
func readJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxBodyBytes))
	if err := dec.Decode(v); err != nil {
		if errors.Is(err, io.EOF) {
			return nil
		}
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

func (s *Server) handleOpen(w http.ResponseWriter, r *http.Request) {
	var req OpenRequest
	if err := readJSON(r, &req); err != nil {
		writeError(w, err)
		return
	}
	_, resp, err := s.Open(req)
	if err != nil {
		writeError(w, err)
		return
	}
	s.counters.Admitted.Add(1)
	writeJSON(w, http.StatusCreated, resp)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, ListResponse{Sessions: s.Sessions(), Draining: s.Draining()})
}

func (s *Server) handleSnapshots(w http.ResponseWriter, r *http.Request) {
	infos, err := s.listSnapshots()
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ListSnapshotsResponse{Snapshots: infos})
}

// withSession resolves the {id} path value and serializes the handler
// behind the session's simulation lock, bounding the wait by the server's
// request timeout — a busy single-threaded simulation backpressures its
// other callers with 503 + Retry-After instead of queueing unboundedly.
func (s *Server) withSession(h func(w http.ResponseWriter, r *http.Request, sess *session)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sess, err := s.get(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		ctx := r.Context()
		var cancel context.CancelFunc
		if s.opts.RequestTimeout > 0 {
			ctx, cancel = context.WithTimeout(ctx, s.opts.RequestTimeout)
			defer cancel()
		}
		if err := sess.lock(ctx); err != nil {
			s.counters.RejectedBusy.Add(1)
			writeError(w, &errRejected{
				status:     http.StatusServiceUnavailable,
				retryAfter: time.Second,
				msg:        fmt.Sprintf("session %q is busy: %v", sess.id, err),
			})
			return
		}
		defer sess.unlock()
		if _, closed, _ := sess.observe(); closed {
			// Lost the race with a drain/expiry that was in flight when we
			// queued for the lock.
			writeError(w, errNotFound)
			return
		}
		s.counters.Admitted.Add(1)
		h(w, r, sess)
	}
}

// checkBacklog enforces the session's submitted-but-uncompleted budget.
func (s *Server) checkBacklog(sess *session, adding int64) error {
	if sess.maxBacklog <= 0 {
		return nil
	}
	snap := sess.sess.Snapshot()
	if backlog := snap.IOsSubmitted - snap.IOsCompleted; backlog+adding > int64(sess.maxBacklog) {
		s.counters.RejectedBacklog.Add(1)
		return &errRejected{
			status:     http.StatusTooManyRequests,
			retryAfter: time.Second,
			msg: fmt.Sprintf("session %q backlog %d + %d exceeds budget %d; advance the session first",
				sess.id, backlog, adding, sess.maxBacklog),
		}
	}
	return nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request, sess *session) {
	var req SubmitRequest
	if err := readJSON(r, &req); err != nil {
		writeError(w, err)
		return
	}
	if len(req.Requests) == 0 {
		writeError(w, fmt.Errorf("submit carries no requests"))
		return
	}
	if err := s.checkBacklog(sess, int64(len(req.Requests))); err != nil {
		writeError(w, err)
		return
	}
	for i, io := range req.Requests {
		if err := sess.sess.Submit(io); err != nil {
			// Partial admission: report what made it in before failing.
			sess.publish(sess.sess.Snapshot())
			writeError(w, fmt.Errorf("request %d: %w", i, err))
			return
		}
	}
	s.counters.IOsSubmitted.Add(uint64(len(req.Requests)))
	snap := sess.sess.Snapshot()
	sess.publish(snap)
	writeJSON(w, http.StatusOK, SubmitResponse{
		Submitted: int64(len(req.Requests)),
		Backlog:   snap.IOsSubmitted - snap.IOsCompleted,
	})
}

func (s *Server) handleFeed(w http.ResponseWriter, r *http.Request, sess *session) {
	var spec FeedSpec
	if err := readJSON(r, &spec); err != nil {
		writeError(w, err)
		return
	}
	if spec.Workload != nil || spec.Fixed != nil {
		src, bounded, err := spec.buildSource(sess.cfg, sess.seed)
		if err != nil {
			writeError(w, err)
			return
		}
		sess.src, sess.feedBounded = src, bounded
	}
	if sess.src == nil {
		writeError(w, fmt.Errorf("session %q has no workload source; name one in the feed spec", sess.id))
		return
	}
	// The backlog budget is enforced by clamping, not rejecting: a feed
	// admits at most the session's remaining headroom and reports how far
	// it got, so the client advances and feeds again — backpressure with
	// progress. Only a session already at its budget is rejected.
	n := spec.Count
	if sess.maxBacklog > 0 {
		snap := sess.sess.Snapshot()
		headroom := int64(sess.maxBacklog) - (snap.IOsSubmitted - snap.IOsCompleted)
		if headroom <= 0 {
			s.counters.RejectedBacklog.Add(1)
			writeError(w, &errRejected{
				status:     http.StatusTooManyRequests,
				retryAfter: time.Second,
				msg:        fmt.Sprintf("session %q is at its backlog budget %d; advance it first", sess.id, sess.maxBacklog),
			})
			return
		}
		if n <= 0 || n > headroom {
			n = headroom
		}
	}
	if n <= 0 && !sess.feedBounded {
		writeError(w, fmt.Errorf("refusing to drain an unbounded source; set count, a backlog budget, or bound the workload"))
		return
	}
	fed, err := sess.sess.Feed(sess.src, n)
	s.counters.IOsSubmitted.Add(uint64(fed))
	snap := sess.sess.Snapshot()
	sess.publish(snap)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, FeedResponse{
		Fed:     fed,
		Backlog: snap.IOsSubmitted - snap.IOsCompleted,
	})
}

func (s *Server) handleAdvance(w http.ResponseWriter, r *http.Request, sess *session) {
	var req AdvanceRequest
	if err := readJSON(r, &req); err != nil {
		writeError(w, err)
		return
	}
	if err := sess.sess.Advance(req.DNS); err != nil {
		writeError(w, err)
		return
	}
	snap := sess.sess.Snapshot()
	sess.publish(snap)
	writeJSON(w, http.StatusOK, snap)
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	sess, err := s.get(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	// Observation rides the published snapshot: no simulation lock, so a
	// long Advance never blocks dashboards.
	snap, _, _ := sess.observe()
	writeJSON(w, http.StatusOK, snap)
}

// handleWatch streams snapshot updates: long-poll by default (returns the
// first snapshot with SimTimeNS > sinceNS, or the current one at the
// timeout), SSE with ?stream=sse. Clients compute windowed deltas with
// Snapshot.Since — the raw integrals are part of the wire format.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	sess, err := s.get(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	if r.URL.Query().Get("stream") == "sse" || r.Header.Get("Accept") == "text/event-stream" {
		s.watchSSE(w, r, sess)
		return
	}
	since := int64(-1)
	if v := r.URL.Query().Get("sinceNS"); v != "" {
		since, err = strconv.ParseInt(v, 10, 64)
		if err != nil {
			writeError(w, fmt.Errorf("bad sinceNS: %w", err))
			return
		}
	}
	timeout := 30 * time.Second
	if v := r.URL.Query().Get("timeoutMS"); v != "" {
		ms, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			writeError(w, fmt.Errorf("bad timeoutMS: %w", err))
			return
		}
		timeout = time.Duration(ms) * time.Millisecond
	}
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		snap, closed, changed := sess.observe()
		if snap.SimTimeNS > since || closed {
			writeJSON(w, http.StatusOK, snap)
			return
		}
		select {
		case <-changed:
		case <-deadline.C:
			writeJSON(w, http.StatusOK, snap)
			return
		case <-r.Context().Done():
			return
		}
	}
}

// watchSSE streams every snapshot change as a server-sent event until the
// session closes or the client disconnects.
func (s *Server) watchSSE(w http.ResponseWriter, r *http.Request, sess *session) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, fmt.Errorf("streaming unsupported by connection"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	var lastSent int64 = -1
	for {
		snap, closed, changed := sess.observe()
		if snap.SimTimeNS > lastSent || closed {
			b, err := json.Marshal(snap)
			if err != nil {
				return
			}
			fmt.Fprintf(w, "event: snapshot\ndata: %s\n\n", b)
			fl.Flush()
			lastSent = snap.SimTimeNS
		}
		if closed {
			fmt.Fprintf(w, "event: close\ndata: {}\n\n")
			fl.Flush()
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request, sess *session) {
	// Bound the drain server-side like the janitor and Close paths: on
	// the client's context alone, a large-backlog drain holds the
	// simulation lock for as long as the client cares to wait, starving
	// every other caller into 503s.
	ctx := r.Context()
	if s.opts.DrainTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opts.DrainTimeout)
		defer cancel()
	}
	res, err := s.drainSession(ctx, sess)
	if err != nil {
		writeError(w, fmt.Errorf("drain: %w", err))
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleDiscard(w http.ResponseWriter, r *http.Request, sess *session) {
	sess.sess.Discard()
	sess.finish(nil, nil)
	s.remove(sess, nil, nil)
	s.counters.SessionsDiscarded.Add(1)
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	res, rerr, ok := s.Result(r.PathValue("id"))
	if !ok {
		writeError(w, errNotFound)
		return
	}
	if rerr != nil || res == nil {
		writeJSON(w, http.StatusGone, ErrorResponse{Error: fmt.Sprintf("session did not drain cleanly: %v", rerr)})
		return
	}
	writeJSON(w, http.StatusOK, res)
}
