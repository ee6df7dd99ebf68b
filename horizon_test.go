package sprinkler_test

import (
	"context"
	"math"
	"strings"
	"testing"

	"sprinkler"
)

// The simulated clock is an int64 of nanoseconds. Each input below once
// carried an event time past it, panicking the event kernel at the next
// Drain with "scheduling event at <negative> before now"; the daemon
// accepts all of them as JSON. Each must now be refused with an error,
// and the session must keep serving. The fourth such input, an arrival
// near MaxInt64, is a case of TestRequestBoundsOnBothRunPaths.

const horizonNS = 1 << 62

// driveAfter submits a write and a read and drains: the session must still
// complete every valid I/O.
func driveAfter(t *testing.T, sess *sprinkler.Session) {
	t.Helper()
	for _, r := range []sprinkler.Request{{LPN: 8, Pages: 4, Write: true}, {LPN: 8, Pages: 4}} {
		if err := sess.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sess.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.IOsCompleted != 2 {
		t.Fatalf("completed %d I/Os, want 2", res.IOsCompleted)
	}
}

// TestAdvancePastHorizonRefused: an Advance that would carry the clock
// past the horizon is refused and leaves the clock where it was, from a
// zero clock (where a write then overflowed) and a non-zero one (where the
// sum wrapped negative and silently ran nothing). Advancing exactly to the
// horizon is allowed, and I/O submitted there completes.
func TestAdvancePastHorizonRefused(t *testing.T) {
	for _, start := range []int64{0, 1000} {
		sess, err := sprinkler.Open(sprinkler.Platform(4))
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.Advance(start); err != nil {
			t.Fatal(err)
		}
		if err := sess.Advance(math.MaxInt64); err == nil || !strings.Contains(err.Error(), "horizon") {
			t.Errorf("Advance(MaxInt64) at %d ns: error %v, want a horizon refusal", start, err)
		}
		if got := sess.NowNS(); got != start {
			t.Errorf("refused Advance moved the clock from %d to %d ns", start, got)
		}
		if start > 0 {
			if err := sess.Advance(horizonNS - start); err != nil {
				t.Fatalf("Advance to the horizon: %v", err)
			}
			if err := sess.Advance(1); err == nil {
				t.Error("Advance past the horizon by 1 ns accepted")
			}
		}
		driveAfter(t, sess)
	}
}

// faultsAtHorizon opens a Platform(4) session with the given fault spec,
// advances it to the horizon and drives reads and writes through it.
func faultsAtHorizon(t *testing.T, faults sprinkler.FaultSpec) error {
	t.Helper()
	cfg := sprinkler.Platform(4)
	cfg.Faults = faults
	sess, err := sprinkler.Open(cfg)
	if err != nil {
		return err
	}
	if err := sess.Advance(horizonNS); err != nil {
		t.Fatal(err)
	}
	driveAfter(t, sess)
	return nil
}

// TestOutagePeriodCapped: outage periods near MaxInt64 are refused, and
// the longest accepted outage window runs at the horizon.
func TestOutagePeriodCapped(t *testing.T) {
	for _, p := range []int64{9e18, 1 << 62} {
		err := faultsAtHorizon(t, sprinkler.FaultSpec{OutagePeriodNS: p, OutageDurNS: p - 1})
		if err == nil || !strings.Contains(err.Error(), "OutagePeriodNS") {
			t.Errorf("outage period %d: error %v, want an OutagePeriodNS refusal", p, err)
		}
	}
	if err := faultsAtHorizon(t, sprinkler.FaultSpec{OutagePeriodNS: 1e9, OutageDurNS: 1e9 - 1}); err != nil {
		t.Fatalf("a one-second outage period was refused: %v", err)
	}
}

// TestReadRetryLadderCapped: a 2^30 × 2^30 retry ladder is refused, and
// the longest accepted ladder, climbed by every read, runs at the horizon.
func TestReadRetryLadderCapped(t *testing.T) {
	err := faultsAtHorizon(t, sprinkler.FaultSpec{ReadFailProb: 1, ReadRetryMax: 1 << 30, ReadRetryMult: 1 << 30})
	if err == nil || !strings.Contains(err.Error(), "ReadRetryMax") {
		t.Errorf("error %v, want a ReadRetryMax refusal", err)
	}
	if err := faultsAtHorizon(t, sprinkler.FaultSpec{ReadFailProb: 1, ReadRetryMax: 32, ReadRetryMult: 32}); err != nil {
		t.Fatalf("a 32 × 32 retry ladder was refused: %v", err)
	}
}
