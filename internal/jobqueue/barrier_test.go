package jobqueue_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"interferometry/internal/jobqueue"
)

func barrierReleased(b *jobqueue.Barrier) bool {
	select {
	case <-b.Done():
		return true
	default:
		return false
	}
}

// A barrier releases exactly when every task of its batch completes,
// and counts none as dropped.
func TestBarrierReleasesOnCompletion(t *testing.T) {
	q := jobqueue.New[int](jobqueue.Config{Capacity: 8})
	bar, err := q.PushBarrierTenant("t", 0, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if barrierReleased(bar) {
			t.Fatalf("barrier released with %d tasks unfinished", 3-i)
		}
		l, err := q.Pop(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Complete(); err != nil {
			t.Fatal(err)
		}
	}
	if !barrierReleased(bar) {
		t.Fatal("barrier not released after all completions")
	}
	if bar.Dropped() != 0 || bar.Pending() != 0 {
		t.Fatalf("dropped=%d pending=%d after clean completion", bar.Dropped(), bar.Pending())
	}
}

// Lease expiry inside a generation requeues the task without charging
// an attempt and without settling the barrier: the individual is still
// pending and re-executes with the identical payload.
func TestBarrierLeaseExpiryDoesNotSettle(t *testing.T) {
	clk := newFakeClock()
	q := jobqueue.New[int](jobqueue.Config{Capacity: 4, Lease: time.Second, Now: clk.Now})
	bar, err := q.PushBarrierTenant("t", 0, []int{7})
	if err != nil {
		t.Fatal(err)
	}
	l1, err := q.Pop(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Second) // worker died mid-generation
	l2, err := q.Pop(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if l2.Attempt() != 0 {
		t.Fatalf("expiry charged an attempt: %d", l2.Attempt())
	}
	if barrierReleased(bar) || bar.Pending() != 1 {
		t.Fatalf("expiry settled the barrier (pending=%d)", bar.Pending())
	}
	// The dead lease cannot settle the barrier either.
	if err := l1.Complete(); !errors.Is(err, jobqueue.ErrLeaseLost) {
		t.Fatalf("dead lease Complete: %v, want ErrLeaseLost", err)
	}
	if barrierReleased(bar) {
		t.Fatal("dead lease settled the barrier")
	}
	if err := l2.Complete(); err != nil {
		t.Fatal(err)
	}
	if !barrierReleased(bar) || bar.Dropped() != 0 {
		t.Fatalf("barrier not cleanly released after re-execution (dropped=%d)", bar.Dropped())
	}
}

// A requeue (a failed execution) keeps the task pending:
// the barrier settles only when the retry completes, and the retry
// carries the incremented attempt.
func TestBarrierRequeueDoesNotSettle(t *testing.T) {
	q := jobqueue.New[int](jobqueue.Config{Capacity: 4})
	bar, err := q.PushBarrierTenant("t", 0, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	l, err := q.Pop(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Requeue(time.Time{}); err != nil {
		t.Fatal(err)
	}
	if barrierReleased(bar) {
		t.Fatal("requeue settled the barrier")
	}
	l, err = q.Pop(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if l.Attempt() != 1 {
		t.Fatalf("requeue attempt = %d, want 1", l.Attempt())
	}
	if err := l.Complete(); err != nil {
		t.Fatal(err)
	}
	if !barrierReleased(bar) {
		t.Fatal("barrier not released after retried completion")
	}
}

// A tenant-quota shed of a mid-search generation is atomic: the push
// reports ErrTenantQuota (campaignd's 429), no tasks leak into the
// queue, no barrier is half-registered, and the already-admitted
// generation's barrier still settles exactly.
func TestBarrierQuotaShedLeavesBarrierIntact(t *testing.T) {
	q := jobqueue.New[int](jobqueue.Config{Capacity: 16, MaxPerTenant: 3})
	bar, err := q.PushBarrierTenant("t", 0, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	// The next generation does not fit under the tenant's quota while
	// the current one is still in the system.
	if _, err := q.PushBarrierTenant("t", 0, []int{3, 4, 5}); !errors.Is(err, jobqueue.ErrTenantQuota) {
		t.Fatalf("over-quota generation: %v, want ErrTenantQuota", err)
	}
	if q.Depth() != 3 {
		t.Fatalf("shed generation leaked tasks: depth %d", q.Depth())
	}
	// Capacity shed is equally atomic.
	if _, err := q.PushBarrierTenant("u", 0, make([]int, 16)); !errors.Is(err, jobqueue.ErrFull) {
		t.Fatalf("over-capacity generation: %v, want ErrFull", err)
	}
	for i := 0; i < 3; i++ {
		l, err := q.Pop(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Complete(); err != nil {
			t.Fatal(err)
		}
	}
	if !barrierReleased(bar) || bar.Dropped() != 0 {
		t.Fatalf("shed corrupted the admitted barrier (dropped=%d)", bar.Dropped())
	}
	// With the generation settled the tenant's quota frees up.
	if _, err := q.PushBarrierTenant("t", 0, []int{3, 4, 5}); err != nil {
		t.Fatalf("post-settlement generation rejected: %v", err)
	}
}

// Seal is the drain contract for dependent task graphs: admission stops
// immediately, but the in-flight generation — including requeued
// retries — runs to completion before Pop reports closure.
func TestSealFinishesInFlightGeneration(t *testing.T) {
	q := jobqueue.New[int](jobqueue.Config{Capacity: 8})
	bar, err := q.PushBarrierTenant("t", 0, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	q.Seal()
	if !q.Sealed() {
		t.Fatal("queue not sealed")
	}
	// Admission is stopped for every push variant.
	if err := q.Push(0, 9); !errors.Is(err, jobqueue.ErrClosed) {
		t.Fatalf("push after seal: %v, want ErrClosed", err)
	}
	if _, err := q.PushBarrierTenant("t", 0, []int{9}); !errors.Is(err, jobqueue.ErrClosed) {
		t.Fatalf("barrier push after seal: %v, want ErrClosed", err)
	}
	// Dispatch continues: the sealed queue serves all three tasks, one
	// of them through a retry.
	retried := false
	done := 0
	for done < 3 {
		l, err := q.Pop(context.Background())
		if err != nil {
			t.Fatalf("pop under seal: %v", err)
		}
		if !retried {
			retried = true
			if err := l.Requeue(time.Time{}); err != nil {
				t.Fatalf("requeue under seal: %v", err)
			}
			continue
		}
		if err := l.Complete(); err != nil {
			t.Fatal(err)
		}
		done++
	}
	if !barrierReleased(bar) || bar.Dropped() != 0 {
		t.Fatalf("generation did not settle under seal (dropped=%d)", bar.Dropped())
	}
	// Only now, with the system empty, does Pop report closure.
	if _, err := q.Pop(context.Background()); !errors.Is(err, jobqueue.ErrClosed) {
		t.Fatalf("pop on drained sealed queue: %v, want ErrClosed", err)
	}
}

// A Pop blocked on an empty-but-working sealed queue must wake and
// return ErrClosed the moment the last in-flight task settles.
func TestSealWakesBlockedPopOnSettle(t *testing.T) {
	q := jobqueue.New[int](jobqueue.Config{Capacity: 4})
	if err := q.Push(0, 1); err != nil {
		t.Fatal(err)
	}
	l, err := q.Pop(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	q.Seal()
	popErr := make(chan error, 1)
	go func() {
		_, err := q.Pop(context.Background())
		popErr <- err
	}()
	// The queue is empty but the lease is still in flight; the Pop must
	// keep waiting (the lease could Requeue).
	select {
	case err := <-popErr:
		t.Fatalf("pop returned %v with a lease in flight", err)
	case <-time.After(20 * time.Millisecond):
	}
	if err := l.Complete(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-popErr:
		if !errors.Is(err, jobqueue.ErrClosed) {
			t.Fatalf("pop after final settle: %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pop did not wake after the sealed queue emptied")
	}
}

// Close releases barriers rather than deadlocking them: queued tasks
// settle as dropped, and a Requeue racing Close settles its task as
// dropped too.
func TestBarrierCloseSettlesAsDropped(t *testing.T) {
	q := jobqueue.New[int](jobqueue.Config{Capacity: 8})
	bar, err := q.PushBarrierTenant("t", 0, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	l, err := q.Pop(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	q.Close()
	if barrierReleased(bar) {
		t.Fatal("barrier released with a lease still in flight")
	}
	if err := l.Requeue(time.Time{}); !errors.Is(err, jobqueue.ErrClosed) {
		t.Fatalf("requeue on closed queue: %v, want ErrClosed", err)
	}
	if !barrierReleased(bar) {
		t.Fatal("barrier not released after close")
	}
	if bar.Dropped() != 3 {
		t.Fatalf("dropped = %d, want 3", bar.Dropped())
	}
}

// An empty barrier push is already settled.
func TestBarrierEmptyBatch(t *testing.T) {
	q := jobqueue.New[int](jobqueue.Config{Capacity: 1})
	bar, err := q.PushBarrierTenant("t", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !barrierReleased(bar) {
		t.Fatal("empty barrier not released")
	}
}
