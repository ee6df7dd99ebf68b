package metrics

import (
	"math"
	"strings"
	"testing"

	"sprinkler/internal/flash"
	"sprinkler/internal/sim"
)

func testGeo() flash.Geometry {
	return flash.Geometry{
		Channels: 2, ChipsPerChan: 2, DiesPerChip: 2, PlanesPerDie: 4,
		BlocksPerPlane: 64, PagesPerBlock: 16, PageSize: 2048,
	}
}

func TestResultRates(t *testing.T) {
	r := &Result{
		Duration:     sim.Second,
		IOsCompleted: 1000,
		BytesRead:    512 * 1024 * 1024,
		BytesWritten: 512 * 1024 * 1024,
	}
	if got := r.BandwidthKBps(); math.Abs(got-1024*1024) > 1 {
		t.Fatalf("bandwidth = %v KB/s, want 1 GB/s", got)
	}
	if got := r.IOPS(); math.Abs(got-1000) > 1e-9 {
		t.Fatalf("IOPS = %v, want 1000", got)
	}
}

func TestResultZeroDuration(t *testing.T) {
	r := &Result{}
	if r.BandwidthKBps() != 0 || r.IOPS() != 0 || r.QueueStallFraction() != 0 {
		t.Fatal("zero-duration result must report zero rates")
	}
}

func TestComputeAggregatesChips(t *testing.T) {
	geo := testGeo()
	r := &Result{Duration: 1000}
	chips := []ChipSample{
		{
			Busy: 500, CellActive: 400, BusActive: 80, BusWait: 20,
			PlaneUseIntegral: 400 * 4, // 4 planes active during cell time
			Txns:             10, TxnsByClass: [4]int64{5, 2, 2, 1},
			ReqsByClass: [4]int64{5, 4, 4, 7}, Requests: 20,
		},
		{
			Busy: 300, CellActive: 200, BusActive: 50, BusWait: 50,
			PlaneUseIntegral: 200 * 2,
			Txns:             5, TxnsByClass: [4]int64{5, 0, 0, 0},
			ReqsByClass: [4]int64{5, 0, 0, 0}, Requests: 5,
		},
	}
	// System busy the whole 1000ns; busy-chip integral: 500+300.
	r.Compute(geo, chips, 800, 1000)

	if r.Transactions != 15 || r.Requests != 25 {
		t.Fatalf("txns/requests = %d/%d", r.Transactions, r.Requests)
	}
	// Utilization: 800 / (2 chips * 1000ns) = 0.4.
	if math.Abs(r.ChipUtilization-0.4) > 1e-9 {
		t.Fatalf("utilization = %v, want 0.4", r.ChipUtilization)
	}
	if math.Abs(r.InterChipIdleness-0.6) > 1e-9 {
		t.Fatalf("inter idleness = %v, want 0.6", r.InterChipIdleness)
	}
	// Intra: plane-use 2000 over maxFLP(8) * cell(600) = 2000/4800.
	want := 1 - 2000.0/4800.0
	if math.Abs(r.IntraChipIdleness-want) > 1e-9 {
		t.Fatalf("intra idleness = %v, want %v", r.IntraChipIdleness, want)
	}
	// Exec fractions over 2 chips x 1000ns.
	if math.Abs(r.Exec.CellOp-600.0/2000) > 1e-9 {
		t.Fatalf("cell fraction = %v", r.Exec.CellOp)
	}
	sum := r.Exec.BusOp + r.Exec.BusContention + r.Exec.CellOp + r.Exec.Idle
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("exec breakdown sums to %v", sum)
	}
	// FLP shares from exact per-class requests: 10/25 NON-PAL ... etc.
	if math.Abs(r.FLP.Share[0]-10.0/25) > 1e-9 {
		t.Fatalf("NON-PAL share = %v", r.FLP.Share[0])
	}
	if math.Abs(r.FLP.Share[3]-7.0/25) > 1e-9 {
		t.Fatalf("PAL3 share = %v", r.FLP.Share[3])
	}
	if math.Abs(r.AvgFLPDegree-25.0/15) > 1e-9 {
		t.Fatalf("degree = %v", r.AvgFLPDegree)
	}
}

func TestComputeEmptyInput(t *testing.T) {
	r := &Result{Duration: 100}
	r.Compute(testGeo(), nil, 0, 0)
	if r.Transactions != 0 || r.ChipUtilization != 0 {
		t.Fatal("empty compute should leave zeros")
	}
	r2 := &Result{} // zero duration
	r2.Compute(testGeo(), []ChipSample{{}}, 0, 0)
	if r2.ChipUtilization != 0 {
		t.Fatal("zero duration compute should leave zeros")
	}
}

func TestAvgLatencyFromHistogram(t *testing.T) {
	r := &Result{Latency: Latency{Count: 2, Sum: 400, Mean: 200}}
	if got := r.AvgLatency(); got != 200 {
		t.Fatalf("avg latency = %v, want 200", got)
	}
}

func TestQueueStallFraction(t *testing.T) {
	r := &Result{Duration: 1000, QueueFullTime: 250}
	if got := r.QueueStallFraction(); math.Abs(got-0.25) > 1e-9 {
		t.Fatalf("stall fraction = %v, want 0.25", got)
	}
}

func TestTableAlignment(t *testing.T) {
	out := Table([]string{"a", "long-header"}, [][]string{
		{"xxxxxx", "1"},
		{"y", "22"},
	})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want 4", len(lines))
	}
	// All rows equal width.
	for _, l := range lines[1:] {
		if len(l) > len(lines[0])+2 {
			t.Fatalf("ragged table:\n%s", out)
		}
	}
	if !strings.Contains(lines[1], "---") {
		t.Fatalf("missing separator:\n%s", out)
	}
}
