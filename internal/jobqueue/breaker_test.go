package jobqueue_test

import (
	"errors"
	"slices"
	"testing"
	"time"

	"interferometry/internal/jobqueue"
)

var errBoom = errors.New("boom")

// breakerUnderTest returns a 3-failure breaker on a fake clock plus the
// recorded transition log.
func breakerUnderTest(clk *fakeClock, cfg jobqueue.BreakerConfig) (*jobqueue.Breaker, *[]string) {
	log := &[]string{}
	cfg.Now = clk.Now
	cfg.OnTransition = func(from, to jobqueue.State) {
		*log = append(*log, from.String()+"->"+to.String())
	}
	return jobqueue.NewBreaker(cfg), log
}

// call drives one allowed call through the breaker.
func call(t *testing.T, b *jobqueue.Breaker, d time.Duration, err error) {
	t.Helper()
	if aerr := b.Allow(); aerr != nil {
		t.Fatalf("Allow: %v", aerr)
	}
	b.Record(d, err)
}

func TestBreakerTripsOnErrorBurst(t *testing.T) {
	clk := newFakeClock()
	b, log := breakerUnderTest(clk, jobqueue.BreakerConfig{TripAfter: 3, OpenFor: time.Second})
	call(t, b, 0, nil)
	call(t, b, 0, errBoom)
	call(t, b, 0, nil) // success resets the consecutive count
	call(t, b, 0, errBoom)
	call(t, b, 0, errBoom)
	if b.State() != jobqueue.Closed {
		t.Fatalf("breaker tripped before TripAfter consecutive failures")
	}
	call(t, b, 0, errBoom)
	if b.State() != jobqueue.Open {
		t.Fatalf("state %v after 3 consecutive failures, want open", b.State())
	}
	if err := b.Allow(); !errors.Is(err, jobqueue.ErrOpen) {
		t.Fatalf("open breaker Allow: %v, want ErrOpen", err)
	}
	if d := b.RetryIn(); d != time.Second {
		t.Fatalf("RetryIn %v, want 1s", d)
	}
	if len(*log) != 1 || (*log)[0] != "closed->open" {
		t.Fatalf("transition log %v", *log)
	}
}

func TestBreakerHalfOpenProbeRecovers(t *testing.T) {
	clk := newFakeClock()
	b, log := breakerUnderTest(clk, jobqueue.BreakerConfig{TripAfter: 1, OpenFor: time.Second, Probes: 2})
	call(t, b, 0, errBoom) // trips
	clk.Advance(time.Second)
	if b.State() != jobqueue.HalfOpen {
		t.Fatalf("state %v after open window, want half-open", b.State())
	}
	// Only Probes calls are admitted concurrently.
	if err := b.Allow(); err != nil {
		t.Fatal(err)
	}
	if err := b.Allow(); err != nil {
		t.Fatal(err)
	}
	if err := b.Allow(); !errors.Is(err, jobqueue.ErrOpen) {
		t.Fatalf("third concurrent probe admitted: %v", err)
	}
	b.Record(0, nil)
	b.Record(0, nil)
	if b.State() != jobqueue.Closed {
		t.Fatalf("state %v after successful probes, want closed", b.State())
	}
	want := []string{"closed->open", "open->half-open", "half-open->closed"}
	if len(*log) != len(want) {
		t.Fatalf("transition log %v, want %v", *log, want)
	}
	for i := range want {
		if (*log)[i] != want[i] {
			t.Fatalf("transition log %v, want %v", *log, want)
		}
	}
}

func TestBreakerFailedProbeReopens(t *testing.T) {
	clk := newFakeClock()
	b, _ := breakerUnderTest(clk, jobqueue.BreakerConfig{TripAfter: 1, OpenFor: time.Second})
	call(t, b, 0, errBoom)
	clk.Advance(time.Second)
	call(t, b, 0, errBoom) // the probe fails
	if b.State() != jobqueue.Open {
		t.Fatalf("state %v after failed probe, want open", b.State())
	}
	// The new open window starts at the failed probe, not the original trip.
	if d := b.RetryIn(); d != time.Second {
		t.Fatalf("RetryIn %v after reopen, want 1s", d)
	}
}

// TestBreakerSlowCallsTrip is the latency-spike path: calls that return
// nil but outlive SlowThreshold count as failures, so a burst of
// latency spikes opens the seam and slow half-open probes keep it open.
func TestBreakerSlowCallsTrip(t *testing.T) {
	clk := newFakeClock()
	b, _ := breakerUnderTest(clk, jobqueue.BreakerConfig{
		TripAfter: 2, OpenFor: time.Second, SlowThreshold: 100 * time.Millisecond,
	})
	call(t, b, 150*time.Millisecond, nil)
	call(t, b, 99*time.Millisecond, nil) // fast success resets
	call(t, b, 150*time.Millisecond, nil)
	call(t, b, 200*time.Millisecond, nil)
	if b.State() != jobqueue.Open {
		t.Fatalf("state %v after slow-call burst, want open", b.State())
	}
	// A still-slow probe reopens; a fast one closes.
	clk.Advance(time.Second)
	call(t, b, time.Second, nil)
	if b.State() != jobqueue.Open {
		t.Fatalf("slow probe did not reopen: %v", b.State())
	}
	clk.Advance(time.Second)
	call(t, b, time.Millisecond, nil)
	if b.State() != jobqueue.Closed {
		t.Fatalf("fast probe did not close: %v", b.State())
	}
}

func TestBreakerStaleRecordIgnoredWhileOpen(t *testing.T) {
	clk := newFakeClock()
	b, _ := breakerUnderTest(clk, jobqueue.BreakerConfig{TripAfter: 1, OpenFor: time.Minute})
	if err := b.Allow(); err != nil {
		t.Fatal(err)
	}
	if err := b.Allow(); err != nil {
		t.Fatal(err)
	}
	b.Record(0, errBoom) // trips
	b.Record(0, nil)     // straggler from before the trip: no effect
	if b.State() != jobqueue.Open {
		t.Fatalf("stale success closed the breaker: %v", b.State())
	}
}

// TestBreakerAbandonReturnsProbe: a half-open probe given up without a
// verdict hands its slot back, so the next call can probe. Without it
// the slot stays taken and the breaker denies every later call. An
// abandoned call is no verdict either way: it neither closes a
// half-open breaker nor breaks a closed one's failure streak.
func TestBreakerAbandonReturnsProbe(t *testing.T) {
	clk := newFakeClock()
	b, log := breakerUnderTest(clk, jobqueue.BreakerConfig{TripAfter: 2, OpenFor: time.Second})
	call(t, b, 0, errBoom)
	if err := b.Allow(); err != nil {
		t.Fatal(err)
	}
	b.Abandon()
	call(t, b, 0, errBoom) // the streak survived the abandoned call
	if b.State() != jobqueue.Open {
		t.Fatalf("state %v, want open: an abandoned call reset the failure streak", b.State())
	}

	clk.Advance(time.Second)
	if err := b.Allow(); err != nil {
		t.Fatal(err)
	}
	if err := b.Allow(); !errors.Is(err, jobqueue.ErrOpen) {
		t.Fatalf("second concurrent probe admitted: %v", err)
	}
	b.Abandon()
	if b.State() != jobqueue.HalfOpen {
		t.Fatalf("state %v after an abandoned probe, want half-open", b.State())
	}
	call(t, b, 0, nil) // the slot is free again, and this probe closes
	if b.State() != jobqueue.Closed {
		t.Fatalf("state %v after a successful probe, want closed", b.State())
	}
	want := []string{"closed->open", "open->half-open", "half-open->closed"}
	if !slices.Equal(*log, want) {
		t.Fatalf("transition log %v, want %v", *log, want)
	}
}
