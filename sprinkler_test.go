package sprinkler

import (
	"context"
	"math"
	"strings"
	"testing"
)

// testConfig shrinks the platform for fast tests.
func testConfig(kind SchedulerKind) Config {
	cfg := DefaultConfig()
	cfg.Channels = 2
	cfg.ChipsPerChan = 4
	cfg.BlocksPerPlane = 64
	cfg.PagesPerBlock = 32
	cfg.Scheduler = kind
	return cfg
}

func TestPublicAPISequentialReads(t *testing.T) {
	for _, kind := range Schedulers() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			dev, err := New(testConfig(kind))
			if err != nil {
				t.Fatal(err)
			}
			res, err := dev.RunRequests(SequentialReads(25, 8))
			if err != nil {
				t.Fatal(err)
			}
			if res.IOsCompleted != 25 {
				t.Fatalf("completed %d/25", res.IOsCompleted)
			}
			if res.BytesRead != 25*8*2048 {
				t.Fatalf("bytes read %d", res.BytesRead)
			}
			if res.BandwidthKBps <= 0 || res.IOPS <= 0 || res.AvgLatencyNS <= 0 {
				t.Fatalf("degenerate result: %+v", res)
			}
			if res.Scheduler != string(kind) {
				t.Fatalf("result labelled %q, want %q", res.Scheduler, kind)
			}
		})
	}
}

func TestPublicAPISequentialWrites(t *testing.T) {
	dev, err := New(testConfig(SPK3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := dev.RunRequests(SequentialWrites(20, 4))
	if err != nil {
		t.Fatal(err)
	}
	if res.BytesWritten != 20*4*2048 {
		t.Fatalf("bytes written %d", res.BytesWritten)
	}
	if res.WriteAmplification < 1 {
		t.Fatalf("write amplification %v < 1", res.WriteAmplification)
	}
}

func TestPublicAPIRejectsBadRequests(t *testing.T) {
	dev, err := New(testConfig(SPK3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dev.RunRequests([]Request{{Pages: 0}}); err == nil {
		t.Fatal("accepted zero-page request")
	}
}

// TestRequestBoundsOnBothRunPaths: an oversized request, one whose last
// page would overflow the LPN range, or an arrival that is negative or
// past the simulated-time horizon, is refused on
// admission, whether it arrives through Run or through a Session, before
// it can cost memory, corrupt latencies or overflow the clock.
func TestRequestBoundsOnBothRunPaths(t *testing.T) {
	cfg := testConfig(SPK3)
	bad := []struct {
		name string
		req  Request
		want string
	}{
		{"oversized", Request{Pages: maxRequestPages + 1}, "more than the limit"},
		{"huge", Request{Write: true, Pages: 1 << 30}, "more than the limit"},
		{"negative-arrival", Request{ArrivalNS: -1, Pages: 1}, "negative arrival"},
		{"past-horizon", Request{ArrivalNS: math.MaxInt64 - 10, Pages: 1}, "horizon"},
		{"lpn-overflow", Request{LPN: math.MaxInt64 - 4, Pages: 8}, "overflows the LPN range"},
	}
	for _, tc := range bad {
		dev, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		reqs := []Request{{Pages: 1}, tc.req}
		if _, err := dev.Run(context.Background(), SliceSource(reqs)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Run error %v, want one containing %q", tc.name, err, tc.want)
		}
		sess, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.Submit(tc.req); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Submit error %v, want one containing %q", tc.name, err, tc.want)
		}
		if fed, err := sess.Feed(SliceSource(reqs), 0); fed != 1 || err == nil {
			t.Errorf("%s: Feed admitted %d with error %v, want 1 and an error", tc.name, fed, err)
		}
		// The session keeps serving valid requests after a refusal.
		if err := sess.Submit(Request{LPN: 8, Pages: 2}); err != nil {
			t.Fatalf("%s: valid submit after refusal: %v", tc.name, err)
		}
		if _, err := sess.Drain(context.Background()); err != nil {
			t.Fatalf("%s: drain: %v", tc.name, err)
		}
	}

	// A Poisson process at a vanishing rate overflows its clock into a
	// negative arrival; the run fails instead of reporting a negative
	// average latency.
	dev, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := Poisson(SliceSource(SequentialReads(4, 1)), 1e-12, 1)
	if _, err := dev.Run(context.Background(), src); err == nil || !strings.Contains(err.Error(), "negative arrival") {
		t.Fatalf("overflowed Poisson run: error %v, want a negative arrival", err)
	}
}

func TestPublicAPIRejectsBadScheduler(t *testing.T) {
	cfg := testConfig("nope")
	if _, err := New(cfg); err == nil {
		t.Fatal("accepted unknown scheduler")
	}
}

func TestPublicAPIWorkloadCatalogue(t *testing.T) {
	names := Workloads()
	if len(names) != 16 {
		t.Fatalf("catalogue size %d, want 16", len(names))
	}
	cfg := testConfig(SPK3)
	reqs, err := cfg.GenerateWorkload("cfs0", 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 100 {
		t.Fatalf("generated %d requests, want 100", len(reqs))
	}
	dev, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dev.RunRequests(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.IOsCompleted != 100 {
		t.Fatalf("completed %d/100", res.IOsCompleted)
	}
	if _, err := cfg.GenerateWorkload("bogus", 10, 1); err == nil {
		t.Fatal("accepted unknown workload name")
	}
}

func TestPublicAPISeriesCollection(t *testing.T) {
	cfg := testConfig(PAS)
	cfg.CollectSeries = true
	dev, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dev.RunRequests(SequentialReads(12, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 12 {
		t.Fatalf("series %d points, want 12", len(res.Series))
	}
}

func TestPublicAPIGCPrecondition(t *testing.T) {
	cfg := testConfig(SPK3)
	cfg.BlocksPerPlane = 12
	cfg.PagesPerBlock = 16
	dev, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dev.Precondition(0.95, 0.5, 1)
	var reqs []Request
	for i := 0; i < 200; i++ {
		reqs = append(reqs, Request{Write: true, LPN: int64((i * 37) % 2000), Pages: 4})
	}
	res, err := dev.RunRequests(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.IOsCompleted != 200 {
		t.Fatalf("completed %d/200", res.IOsCompleted)
	}
	if res.GCRuns == 0 {
		t.Fatal("preconditioned device never ran GC under write pressure")
	}
}

func TestPublicAPILatencyPercentilesOrdered(t *testing.T) {
	dev, err := New(testConfig(SPK2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := dev.RunRequests(SequentialReads(40, 6))
	if err != nil {
		t.Fatal(err)
	}
	if !(res.P50LatencyNS <= res.P99LatencyNS && res.P99LatencyNS <= res.MaxLatencyNS) {
		t.Fatalf("percentiles unordered: p50=%d p99=%d max=%d",
			res.P50LatencyNS, res.P99LatencyNS, res.MaxLatencyNS)
	}
}

func TestPublicAPIFUAOrdering(t *testing.T) {
	dev, err := New(testConfig(SPK3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := dev.RunRequests([]Request{
		{Write: true, LPN: 0, Pages: 4},
		{Write: true, LPN: 100, Pages: 2, FUA: true},
		{Write: true, LPN: 200, Pages: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.IOsCompleted != 3 {
		t.Fatalf("completed %d/3", res.IOsCompleted)
	}
}

func TestNumChips(t *testing.T) {
	dev, err := New(testConfig(VAS))
	if err != nil {
		t.Fatal(err)
	}
	if dev.NumChips() != 8 {
		t.Fatalf("NumChips = %d, want 8", dev.NumChips())
	}
}
