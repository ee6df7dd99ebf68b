// Package client is the Go client for sprinklerd's HTTP API. It is the
// reference consumer of the stable wire format: the smoke/load drivers and
// CI use it, and its APIError surfaces the daemon's backpressure
// (429/503 + Retry-After) so callers can implement polite retry.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"sprinkler"
	"sprinkler/internal/serve"
)

// Client talks to one sprinklerd instance.
type Client struct {
	base string
	hc   *http.Client
}

// New builds a client for the daemon at base (e.g. "http://127.0.0.1:8080").
func New(base string) *Client {
	return &Client{base: strings.TrimRight(base, "/"), hc: &http.Client{}}
}

// APIError is a non-2xx daemon response. RetryAfter is zero unless the
// daemon asked the caller to back off.
type APIError struct {
	Status     int
	Msg        string
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("sprinklerd: %d %s", e.Status, e.Msg)
}

// Retryable reports whether the daemon asked for backoff-and-retry
// (admission pressure) rather than rejecting the request outright.
func (e *APIError) Retryable() bool {
	return e.Status == http.StatusTooManyRequests || e.Status == http.StatusServiceUnavailable
}

// do runs one JSON round trip. in may be nil; out may be nil.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		apiErr := &APIError{Status: resp.StatusCode}
		var e serve.ErrorResponse
		if json.NewDecoder(resp.Body).Decode(&e) == nil {
			apiErr.Msg = e.Error
		}
		if v := resp.Header.Get("Retry-After"); v != "" {
			if secs, perr := strconv.Atoi(v); perr == nil {
				apiErr.RetryAfter = time.Duration(secs) * time.Second
			}
		}
		return apiErr
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Open admits a new session.
func (c *Client) Open(ctx context.Context, req serve.OpenRequest) (*Session, error) {
	var resp serve.OpenResponse
	if err := c.do(ctx, http.MethodPost, "/v1/sessions", req, &resp); err != nil {
		return nil, err
	}
	return &Session{c: c, ID: resp.ID, Info: resp}, nil
}

// OpenWait is Open with polite retry: on 429/503 it honors Retry-After
// (capped at a second) until ctx expires.
func (c *Client) OpenWait(ctx context.Context, req serve.OpenRequest) (*Session, error) {
	for {
		s, err := c.Open(ctx, req)
		var apiErr *APIError
		if err == nil || !(isAPIError(err, &apiErr) && apiErr.Retryable()) {
			return s, err
		}
		wait := apiErr.RetryAfter
		if wait <= 0 || wait > time.Second {
			wait = time.Second
		}
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

func isAPIError(err error, out **APIError) bool {
	e, ok := err.(*APIError)
	if ok {
		*out = e
	}
	return ok
}

// Sessions lists the daemon's open sessions.
func (c *Client) Sessions(ctx context.Context) (serve.ListResponse, error) {
	var resp serve.ListResponse
	err := c.do(ctx, http.MethodGet, "/v1/sessions", nil, &resp)
	return resp, err
}

// Metrics scrapes the /metrics text exposition.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", &APIError{Status: resp.StatusCode, Msg: string(b)}
	}
	return string(b), nil
}

// Result fetches the checkpointed Result of a closed session.
func (c *Client) Result(ctx context.Context, id string) (*sprinkler.Result, error) {
	var res sprinkler.Result
	if err := c.do(ctx, http.MethodGet, "/v1/results/"+url.PathEscape(id), nil, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// Session is an open daemon session.
type Session struct {
	c    *Client
	ID   string
	Info serve.OpenResponse
}

func (s *Session) path(op string) string {
	p := "/v1/sessions/" + url.PathEscape(s.ID)
	if op != "" {
		p += "/" + op
	}
	return p
}

// Submit admits one or more I/Os.
func (s *Session) Submit(ctx context.Context, reqs ...sprinkler.Request) (serve.SubmitResponse, error) {
	var resp serve.SubmitResponse
	err := s.c.do(ctx, http.MethodPost, s.path("submit"), serve.SubmitRequest{Requests: reqs}, &resp)
	return resp, err
}

// Feed has the daemon build the spec's workload and feed it in.
func (s *Session) Feed(ctx context.Context, spec serve.FeedSpec) (serve.FeedResponse, error) {
	var resp serve.FeedResponse
	err := s.c.do(ctx, http.MethodPost, s.path("feed"), spec, &resp)
	return resp, err
}

// Advance runs the session dNS simulated nanoseconds forward and returns
// the snapshot after.
func (s *Session) Advance(ctx context.Context, dNS int64) (sprinkler.Snapshot, error) {
	var snap sprinkler.Snapshot
	err := s.c.do(ctx, http.MethodPost, s.path("advance"), serve.AdvanceRequest{DNS: dNS}, &snap)
	return snap, err
}

// Snapshot fetches the current cumulative snapshot without advancing.
func (s *Session) Snapshot(ctx context.Context) (sprinkler.Snapshot, error) {
	var snap sprinkler.Snapshot
	err := s.c.do(ctx, http.MethodGet, s.path("snapshot"), nil, &snap)
	return snap, err
}

// Watch long-polls for the first snapshot with SimTimeNS > sinceNS,
// returning the current snapshot at the timeout. Compute windowed rates
// client-side with Snapshot.Since.
func (s *Session) Watch(ctx context.Context, sinceNS int64, timeout time.Duration) (sprinkler.Snapshot, error) {
	var snap sprinkler.Snapshot
	p := fmt.Sprintf("%s?sinceNS=%d&timeoutMS=%d", s.path("watch"), sinceNS, timeout.Milliseconds())
	err := s.c.do(ctx, http.MethodGet, p, nil, &snap)
	return snap, err
}

// Drain finishes the run and returns the final Result. The session is
// closed afterwards.
func (s *Session) Drain(ctx context.Context) (*sprinkler.Result, error) {
	var res sprinkler.Result
	if err := s.c.do(ctx, http.MethodPost, s.path("drain"), nil, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// Discard abandons the session without draining.
func (s *Session) Discard(ctx context.Context) error {
	return s.c.do(ctx, http.MethodDelete, s.path(""), nil, nil)
}
