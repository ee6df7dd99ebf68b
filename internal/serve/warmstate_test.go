package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"sprinkler"
)

// warmStateConfig is the snapshot platform for the daemon tests: the test
// base platform with the GC-stress shaping, so the warm state is the kind
// a gcStress session would otherwise pay preconditioning for.
func warmStateConfig() sprinkler.Config {
	cfg := testOptions().BaseConfig
	cfg.BlocksPerPlane = 24
	cfg.PagesPerBlock = 64
	cfg.LogicalPages = cfg.TotalPages() * 85 / 100
	return cfg
}

// writeWarmState preconditions a device on warmStateConfig and writes its
// snapshot into dir under name, returning the decoded snapshot.
func writeWarmState(t *testing.T, dir, name string) *sprinkler.DeviceSnapshot {
	t.Helper()
	cfg := warmStateConfig()
	dev, err := sprinkler.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dev.Precondition(0.95, 0.5, 7)
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.Checkpoint(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	rf, err := os.Open(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	snap, err := sprinkler.ReadSnapshot(rf)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// warmIOs is the request stream both the daemon session and the direct
// reference session replay in TestOpenWarmState.
func warmIOs() []sprinkler.Request {
	ios := make([]sprinkler.Request, 0, 60)
	for i := 0; i < 60; i++ {
		ios = append(ios, sprinkler.Request{LPN: int64(i * 4), Pages: 4, Write: i%2 == 0})
	}
	return ios
}

// TestOpenWarmState opens a session hydrated from a snapshot file over
// HTTP and checks its drained Result is byte-identical to a session
// hydrated from the same snapshot directly through the public API.
func TestOpenWarmState(t *testing.T) {
	dir := t.TempDir()
	snap := writeWarmState(t, dir, "aged.snap")
	opts := testOptions()
	opts.SnapshotDir = dir
	_, ts := newTestServer(t, opts)

	resp := openSession(t, ts, OpenRequest{Name: "warm", WarmState: "aged.snap", Scheduler: "SPK1"})
	if resp.WarmState != "aged.snap" {
		t.Errorf("open response did not echo warmState: %+v", resp)
	}
	if resp.Scheduler != "SPK1" {
		t.Errorf("scheduler override lost: %+v", resp)
	}
	if r := postJSON(t, ts.URL+"/v1/sessions/warm/submit", SubmitRequest{Requests: warmIOs()}, nil); r.StatusCode != http.StatusOK {
		t.Fatalf("submit: status %d", r.StatusCode)
	}
	var got sprinkler.Result
	if r := postJSON(t, ts.URL+"/v1/sessions/warm/drain", nil, &got); r.StatusCode != http.StatusOK {
		t.Fatalf("drain: status %d", r.StatusCode)
	}

	// Reference: the same snapshot hydrated directly, with the config the
	// daemon resolves (scheduler override plus the clamped series budget).
	cfg := warmStateConfig()
	cfg.Scheduler = sprinkler.SPK1
	cfg.CollectSeries = false
	cfg.SeriesWindow = 0
	ref, err := sprinkler.Open(cfg, sprinkler.WithSnapshot(snap))
	if err != nil {
		t.Fatal(err)
	}
	for _, io := range warmIOs() {
		if err := ref.Submit(sprinkler.Request{ArrivalNS: io.ArrivalNS, Write: io.Write, LPN: io.LPN, Pages: io.Pages, FUA: io.FUA}); err != nil {
			t.Fatal(err)
		}
	}
	want, err := ref.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	gb, _ := json.Marshal(got)
	wb, _ := json.Marshal(*want)
	if string(gb) != string(wb) {
		t.Errorf("daemon warm session diverged from direct hydration:\n daemon: %s\n direct: %s", gb, wb)
	}

	// The decoded snapshot must be cached: a second open after the file is
	// deleted still succeeds without touching disk.
	if err := os.Remove(filepath.Join(dir, "aged.snap")); err != nil {
		t.Fatal(err)
	}
	openSession(t, ts, OpenRequest{Name: "warm2", WarmState: "aged.snap"})
}

// TestOpenWarmStateRejections pins the 400 paths: no snapshot directory,
// unknown and path-escaping names, and conflicts with the platform knobs.
func TestOpenWarmStateRejections(t *testing.T) {
	dir := t.TempDir()
	writeWarmState(t, dir, "aged.snap")

	t.Run("no snapshot dir", func(t *testing.T) {
		_, ts := newTestServer(t, testOptions())
		r := postJSON(t, ts.URL+"/v1/sessions", OpenRequest{WarmState: "aged.snap"}, nil)
		if r.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", r.StatusCode)
		}
	})

	opts := testOptions()
	opts.SnapshotDir = dir
	_, ts := newTestServer(t, opts)
	cases := []struct {
		name string
		req  OpenRequest
	}{
		{"unknown name", OpenRequest{WarmState: "nope.snap"}},
		{"path escape", OpenRequest{WarmState: "../aged.snap"}},
		{"with gcStress", OpenRequest{WarmState: "aged.snap", GCStress: true}},
		{"with chips", OpenRequest{WarmState: "aged.snap", Chips: 16}},
		{"with faults", OpenRequest{WarmState: "aged.snap", Faults: &sprinkler.FaultSpec{ReadFailProb: 0.1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := postJSON(t, ts.URL+"/v1/sessions", tc.req, nil)
			if r.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", r.StatusCode)
			}
		})
	}
}

// TestOpenWarmStateRejectsNegativePlatform pins that a warm-state open
// refuses any non-zero platform knob, negative ones included, before a
// device is built.
func TestOpenWarmStateRejectsNegativePlatform(t *testing.T) {
	opts := testOptions()
	opts.SnapshotDir = t.TempDir()
	writeWarmState(t, opts.SnapshotDir, "aged.snap")
	srv, ts := newTestServer(t, opts)
	for _, req := range []OpenRequest{
		{WarmState: "aged.snap", Chips: -1},
		{WarmState: "aged.snap", Queue: -1},
	} {
		if r := postJSON(t, ts.URL+"/v1/sessions", req, nil); r.StatusCode != http.StatusBadRequest {
			t.Fatalf("open %+v: status %d, want 400", req, r.StatusCode)
		}
	}
	if misses := srv.ArenaStats().DeviceMisses; misses != 0 {
		t.Fatalf("rejected opens built %d devices", misses)
	}
}

// TestOpenIgnoresParallelChannels pins that clients written for the
// removed parallel kernel still open sessions: the parallelChannels key
// is ignored, with or without a warm-state snapshot.
func TestOpenIgnoresParallelChannels(t *testing.T) {
	dir := t.TempDir()
	writeWarmState(t, dir, "aged.snap")
	opts := testOptions()
	opts.SnapshotDir = dir
	_, ts := newTestServer(t, opts)
	for _, body := range []string{
		`{"parallelChannels":4}`,
		`{"parallelChannels":4,"warmState":"aged.snap"}`,
	} {
		var resp OpenResponse
		if r := postJSON(t, ts.URL+"/v1/sessions", json.RawMessage(body), &resp); r.StatusCode != http.StatusCreated {
			t.Fatalf("open %s: status %d, want 201", body, r.StatusCode)
		}
		if resp.ID == "" {
			t.Fatalf("open %s: no session id in %+v", body, resp)
		}
	}
}
