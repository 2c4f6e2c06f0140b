package jobqueue_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"interferometry/internal/jobqueue"
	"interferometry/internal/obs"
)

// popAll drains every immediately-eligible task and returns the
// payloads in dispatch order, completing each lease.
func popAll(t *testing.T, q *jobqueue.Queue[string], n int) []string {
	t.Helper()
	var out []string
	ctx := context.Background()
	for i := 0; i < n; i++ {
		l, err := q.Pop(ctx)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, l.Payload())
		if err := l.Complete(); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestFairSchedulingInterleavesTenants: a tenant that floods the queue
// cannot monopolize dispatch — with quantum 1 the scheduler round-robins
// tenants within a priority class, so the second tenant's first task
// dispatches second, not after the flood.
func TestFairSchedulingInterleavesTenants(t *testing.T) {
	q := jobqueue.New[string](jobqueue.Config{Capacity: 64})
	if err := q.PushBatchTenant("flood", 0, []string{"f1", "f2", "f3", "f4"}); err != nil {
		t.Fatal(err)
	}
	if err := q.PushBatchTenant("small", 0, []string{"s1", "s2"}); err != nil {
		t.Fatal(err)
	}
	got := popAll(t, q, 6)
	want := []string{"f1", "s1", "f2", "s2", "f3", "f4"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch order %v, want %v", got, want)
		}
	}
}

// TestFairSchedulingQuantum: quantum N lets a tenant dispatch N tasks
// per turn before the pointer moves on — deficit round-robin, not strict
// alternation.
func TestFairSchedulingQuantum(t *testing.T) {
	q := jobqueue.New[string](jobqueue.Config{Capacity: 64, Quantum: 2})
	if err := q.PushBatchTenant("a", 0, []string{"a1", "a2", "a3", "a4"}); err != nil {
		t.Fatal(err)
	}
	if err := q.PushBatchTenant("b", 0, []string{"b1", "b2", "b3"}); err != nil {
		t.Fatal(err)
	}
	got := popAll(t, q, 7)
	want := []string{"a1", "a2", "b1", "b2", "a3", "a4", "b3"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch order %v, want %v", got, want)
		}
	}
}

// TestPriorityClassesAreStrictAcrossTenants: a lower class always
// dispatches before a higher one, whatever tenant holds it; fairness
// applies only among tenants with work in the minimal class.
func TestPriorityClassesAreStrictAcrossTenants(t *testing.T) {
	q := jobqueue.New[string](jobqueue.Config{Capacity: 64})
	if err := q.PushBatchTenant("bulk", 1, []string{"bulk1", "bulk2"}); err != nil {
		t.Fatal(err)
	}
	if err := q.PushBatchTenant("urgent", 0, []string{"u1"}); err != nil {
		t.Fatal(err)
	}
	if err := q.PushBatchTenant("urgent2", 0, []string{"v1"}); err != nil {
		t.Fatal(err)
	}
	got := popAll(t, q, 4)
	if got[0] != "u1" && got[0] != "v1" {
		t.Fatalf("first dispatch %q, want a class-0 task", got[0])
	}
	if got[1] != "u1" && got[1] != "v1" || got[1] == got[0] {
		t.Fatalf("second dispatch %q, want the other class-0 task", got[1])
	}
	if got[2] != "bulk1" || got[3] != "bulk2" {
		t.Fatalf("class-1 tasks dispatched %v, want [bulk1 bulk2] last", got[2:])
	}
}

// TestTenantQuotaShedsAtomically: a batch that would push one tenant
// over its quota is rejected whole with ErrTenantQuota while the queue
// still has global room, and other tenants are unaffected.
func TestTenantQuotaShedsAtomically(t *testing.T) {
	q := jobqueue.New[string](jobqueue.Config{
		Capacity:     100,
		MaxPerTenant: 3,
		TenantQuotas: map[string]int{"vip": 0}, // explicit 0 = unlimited
	})
	if err := q.PushBatchTenant("a", 0, []string{"a1", "a2"}); err != nil {
		t.Fatal(err)
	}
	err := q.PushBatchTenant("a", 0, []string{"a3", "a4"})
	if !errors.Is(err, jobqueue.ErrTenantQuota) {
		t.Fatalf("over-quota batch returned %v, want ErrTenantQuota", err)
	}
	if d := q.Depth(); d != 2 {
		t.Fatalf("depth %d after rejected batch, want 2 (nothing admitted)", d)
	}
	// Another tenant still has its full quota.
	if err := q.PushBatchTenant("b", 0, []string{"b1", "b2", "b3"}); err != nil {
		t.Fatal(err)
	}
	// The quota-exempt tenant can exceed the uniform bound.
	if err := q.PushBatchTenant("vip", 0, []string{"v1", "v2", "v3", "v4", "v5"}); err != nil {
		t.Fatal(err)
	}
	// Quota counts leased tasks too: leasing does not free tenant room.
	l, err := q.Pop(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := q.PushBatchTenant("a", 0, []string{"a3", "a4"}); !errors.Is(err, jobqueue.ErrTenantQuota) {
		t.Fatalf("quota ignored a leased task: %v", err)
	}
	if err := l.Complete(); err != nil {
		t.Fatal(err)
	}

	counts := q.Tenants()
	if counts["a"].Quota != 3 || counts["vip"].Quota != 0 {
		t.Fatalf("tenant quotas %v, want a=3 vip=unlimited", counts)
	}
}

// TestTenantMetricsTrackDepthAndLeases: the lazily-resolved per-tenant
// gauges follow each tenant's queued and leased counts and return to
// zero after a drain.
func TestTenantMetricsTrackDepthAndLeases(t *testing.T) {
	o := &obs.Observer{Metrics: obs.NewMetrics()}
	tm := func(tenant string) *jobqueue.TenantMetrics {
		return &jobqueue.TenantMetrics{
			Depth:  o.Gauge(`q_tenant_depth{tenant="`+tenant+`"}`, ""),
			Leased: o.Gauge(`q_tenant_leased{tenant="`+tenant+`"}`, ""),
		}
	}
	q := jobqueue.New[string](jobqueue.Config{Capacity: 16, TenantMetrics: tm})
	if err := q.PushBatchTenant("a", 0, []string{"a1", "a2"}); err != nil {
		t.Fatal(err)
	}
	if v := o.Gauge(`q_tenant_depth{tenant="a"}`, "").Value(); v != 2 {
		t.Fatalf("tenant depth gauge %v, want 2", v)
	}
	l, err := q.Pop(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if l.Tenant() != "a" {
		t.Fatalf("lease tenant %q, want a", l.Tenant())
	}
	if v := o.Gauge(`q_tenant_leased{tenant="a"}`, "").Value(); v != 1 {
		t.Fatalf("tenant leased gauge %v, want 1", v)
	}
	if err := l.Complete(); err != nil {
		t.Fatal(err)
	}
	q.Close()
	if v := o.Gauge(`q_tenant_depth{tenant="a"}`, "").Value(); v != 0 {
		t.Fatalf("tenant depth gauge %v after close, want 0", v)
	}
	if v := o.Gauge(`q_tenant_leased{tenant="a"}`, "").Value(); v != 0 {
		t.Fatalf("tenant leased gauge %v after close, want 0", v)
	}
}

// TestLeaseExpiryRacingDrain pins the drain/expiry race on a manual
// clock: a lease that expires is requeued exactly once without charging
// an attempt, the loser's late Requeue is refused, and once the queue
// closes a straggler Requeue drops the task instead of resurrecting it
// into a queue no Pop will ever drain.
func TestLeaseExpiryRacingDrain(t *testing.T) {
	clk := newFakeClock()
	o := &obs.Observer{Metrics: obs.NewMetrics()}
	q := jobqueue.New[string](jobqueue.Config{
		Capacity: 4,
		Lease:    time.Second,
		Now:      clk.Now,
		Metrics:  jobqueue.ObserveMetrics(o, "q"),
	})
	if err := q.Push(0, "task"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// First owner leases the task, stalls past its lease, and the next
	// Pop reaps and re-leases it: requeued exactly once, and the expiry
	// requeue charges no attempt.
	first, err := q.Pop(ctx)
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Second)
	second, err := q.Pop(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if second.Payload() != "task" {
		t.Fatalf("reaped pop got %q", second.Payload())
	}
	if second.Attempt() != 0 {
		t.Fatalf("expiry charged an attempt: Attempt() = %d, want 0", second.Attempt())
	}
	if v := o.Counter("q_lease_expiries_total", "").Value(); v != 1 {
		t.Fatalf("expiries = %d, want exactly 1", v)
	}
	// The stalled first owner wakes up and tries to requeue: its lease
	// is lost, and the task must not be double-inserted.
	if err := first.Requeue(time.Time{}); !errors.Is(err, jobqueue.ErrLeaseLost) {
		t.Fatalf("stale requeue returned %v, want ErrLeaseLost", err)
	}
	if d := q.Depth(); d != 0 {
		t.Fatalf("depth %d after stale requeue, want 0 (no double insert)", d)
	}

	// Drain begins while the second lease is live. A failure-path
	// Requeue now must drop the task, not resurrect it.
	q.Close()
	if err := second.Requeue(clk.Now().Add(time.Minute)); !errors.Is(err, jobqueue.ErrClosed) {
		t.Fatalf("requeue on closed queue returned %v, want ErrClosed", err)
	}
	if d := q.Depth(); d != 0 {
		t.Fatalf("depth %d after drain requeue, want 0", d)
	}
	if l := q.Leased(); l != 0 {
		t.Fatalf("leased %d after drain requeue, want 0", l)
	}
	if v := o.Gauge("q_queue_depth", "").Value(); v != 0 {
		t.Fatalf("depth gauge %v after drain, want 0", v)
	}
	if v := o.Gauge("q_leases_active", "").Value(); v != 0 {
		t.Fatalf("lease gauge %v after drain, want 0", v)
	}
	if v := o.Counter("q_tasks_requeued_total", "").Value(); v != 0 {
		t.Fatalf("requeued counter %v; expiry and drain must not count as requeues", v)
	}
}

// TestAdmissibleNamesBoundsNotOccupancy: Admissible refuses a batch
// larger than the capacity or the tenant's quota with ErrTooLarge, and
// its answer ignores what the queue holds now — a fitting batch that
// PushBatchTenant sheds with ErrFull is still admissible.
func TestAdmissibleNamesBoundsNotOccupancy(t *testing.T) {
	q := jobqueue.New[int](jobqueue.Config{
		Capacity:     4,
		MaxPerTenant: 3,
		TenantQuotas: map[string]int{"small": 2, "open": 0},
	})
	for _, tc := range []struct {
		tenant string
		n      int
		fits   bool
	}{
		{"a", 3, true},
		{"a", 4, false}, // over the default tenant quota
		{"small", 2, true},
		{"small", 3, false}, // over its own quota
		{"open", 4, true},
		{"open", 5, false}, // unlimited tenant, over the capacity
	} {
		err := q.Admissible(tc.tenant, tc.n)
		if tc.fits != (err == nil) || (err != nil && !errors.Is(err, jobqueue.ErrTooLarge)) {
			t.Errorf("Admissible(%q, %d) = %v, want fits=%v", tc.tenant, tc.n, err, tc.fits)
		}
	}
	if err := q.PushBatchTenant("a", 0, []int{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := q.PushBatchTenant("b", 0, []int{4, 5}); !errors.Is(err, jobqueue.ErrFull) {
		t.Fatalf("batch past the remaining room: %v, want ErrFull", err)
	}
	if err := q.Admissible("b", 2); err != nil {
		t.Errorf("Admissible depends on occupancy: %v", err)
	}
}
