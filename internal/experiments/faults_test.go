package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sprinkler"
)

func TestFaultStudy(t *testing.T) {
	pts, err := RunFaultStudy(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	// A scaled-down study sweeps 3 schedulers x 3 rates.
	if len(pts) != 9 {
		t.Fatalf("%d points, want 9", len(pts))
	}
	for i, p := range pts {
		if i > 0 {
			q := pts[i-1]
			if q.Scheduler > p.Scheduler || q.Scheduler == p.Scheduler && q.Rate >= p.Rate {
				t.Fatalf("points out of order: %+v before %+v", q, p)
			}
		}
		if p.BandwidthKB <= 0 {
			t.Fatalf("no bandwidth: %+v", p)
		}
		if p.Rate == 0 && (p.ReadRetries|p.ProgramFails|p.RetiredBlocks|p.FailedIOs != 0 || p.Degraded) {
			t.Fatalf("fault-free cell saw faults: %+v", p)
		}
		if p.Rate == 5e-2 && p.ReadRetries == 0 {
			t.Fatalf("5%% read failures never retried: %+v", p)
		}
	}
	out := FormatFaultStudy(pts)
	if !strings.HasPrefix(out, "Fault-injection degradation") {
		t.Fatalf("header missing:\n%s", out)
	}
	// Each scheduler's fault-free row is its own 100% reference.
	if got := strings.Count(out, "100.0%"); got < 3 {
		t.Fatalf("%d rows at 100.0%% of their fault-free bandwidth, want >= 3:\n%s", got, out)
	}
}

func TestSaveWarmState(t *testing.T) {
	opts := Options{Chips: 4, Seed: 5}
	path := filepath.Join(t.TempDir(), "aged.snap")
	if err := SaveWarmState(opts, path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := sprinkler.ReadSnapshot(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := snap.Config(), sprinkler.Platform(4); got != want {
		t.Fatalf("snapshot config %+v, want the %d-chip platform %+v", got, opts.Chips, want)
	}
	// The file holds an aged drive: it maps more than a fresh drive's
	// checkpoint does, and a device hydrated from it checkpoints back to
	// the same bytes.
	checkpoint := func(dev *sprinkler.Device, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := dev.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if fresh := checkpoint(sprinkler.New(snap.Config())); len(fresh) >= len(raw) {
		t.Fatalf("saved snapshot is %d bytes, a fresh drive's %d: nothing was aged", len(raw), len(fresh))
	}
	if !bytes.Equal(checkpoint(snap.NewDevice()), raw) {
		t.Fatal("a hydrated device checkpoints to different bytes than the saved file")
	}
	if err := SaveWarmState(opts, filepath.Join(t.TempDir(), "missing", "aged.snap")); err == nil {
		t.Fatal("saving into a missing directory did not fail")
	}
}
