// Package jobqueue provides the queueing primitives behind campaignd: a
// bounded, multi-tenant priority queue with worker leases and
// heartbeats, generation barriers over it, and a registry of remote
// leases that scores worker health. They are deliberately generic — they
// know nothing about layouts or campaigns — and the queue takes an
// injectable clock, so every timing-dependent behavior (lease expiry,
// delayed requeue) is testable without sleeping.
//
// Determinism is preserved across failures by construction: a task's
// payload never changes once pushed, so a lease that expires (worker
// stall, crash, lost heartbeat) requeues the exact same seed tuple and a
// re-execution derives the exact same result. Scheduling is a pure
// function of the push and pop history, never of goroutine timing:
// priority classes dispatch strictly in order, and within a class the
// queue runs deficit round-robin across tenants — each tenant in turn
// dispatches up to a quantum of tasks, so no tenant's flood can starve
// another's trickle, and a replayed history reproduces the identical
// schedule.
package jobqueue

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"interferometry/internal/obs"
)

// Queue errors.
var (
	// ErrFull rejects a push that would exceed the queue's global
	// capacity — the admission-control signal campaignd turns into 429.
	ErrFull = errors.New("jobqueue: queue full")
	// ErrTenantQuota rejects a push that would exceed the submitting
	// tenant's quota while the queue itself still has room — the
	// per-tenant 429.
	ErrTenantQuota = errors.New("jobqueue: tenant over quota")
	// ErrTooLarge rejects a batch larger than the queue's capacity or
	// the tenant's quota: no amount of waiting admits it, so it is not
	// backpressure.
	ErrTooLarge = errors.New("jobqueue: batch larger than the queue admits")
	// ErrClosed rejects operations on a closed queue.
	ErrClosed = errors.New("jobqueue: queue closed")
	// ErrLeaseLost reports a heartbeat, complete or requeue on a lease
	// the queue no longer recognizes: it expired and the task was handed
	// to someone else (or the queue was closed).
	ErrLeaseLost = errors.New("jobqueue: lease lost")
)

// Metrics is the queue's instrument set; any field (or the whole struct)
// may be nil. Gauges track the live state — after a drain both return
// to zero, which is exactly what the leak tests assert.
type Metrics struct {
	Depth    *obs.Gauge     // tasks queued (ready + parked), not leased
	Leased   *obs.Gauge     // tasks currently leased to workers
	Pushed   *obs.Counter   // tasks admitted
	Requeued *obs.Counter   // tasks put back after a failed execution
	Expired  *obs.Counter   // leases reaped after missing heartbeats
	Released *obs.Counter   // tasks returned with no attempt charged
	Waits    *obs.Histogram // seconds from ready to leased
}

// TenantMetrics is one tenant's instrument set; any field (or the whole
// struct) may be nil.
type TenantMetrics struct {
	Depth  *obs.Gauge // tenant's tasks queued and not yet leased
	Leased *obs.Gauge // tenant's tasks currently leased
}

// ObserveMetrics resolves the standard queue instruments under prefix
// (e.g. "campaignd") from o's registry. Nil-safe: a nil observer yields
// nil instruments and the queue runs unobserved.
func ObserveMetrics(o *obs.Observer, prefix string) *Metrics {
	if o == nil {
		return nil
	}
	return &Metrics{
		Depth:    o.Gauge(prefix+"_queue_depth", "tasks queued and not yet leased"),
		Leased:   o.Gauge(prefix+"_leases_active", "tasks currently leased to workers"),
		Pushed:   o.Counter(prefix+"_tasks_pushed_total", "tasks admitted to the queue"),
		Requeued: o.Counter(prefix+"_tasks_requeued_total", "tasks requeued after a failed execution"),
		Expired:  o.Counter(prefix+"_lease_expiries_total", "leases reaped after missing heartbeats"),
		Released: o.Counter(prefix+"_tasks_released_total", "tasks returned to the queue with no attempt charged"),
		Waits:    o.Histogram(prefix+"_queue_wait_seconds", "seconds between a task becoming ready and being leased", obs.DurationBuckets),
	}
}

// Config parameterizes a queue.
type Config struct {
	// Capacity bounds the number of tasks in the system (queued plus
	// leased) counted at admission time; Push beyond it returns ErrFull.
	// Requeues are exempt — a task that was admitted can always come
	// back. Zero or negative means 1.
	Capacity int
	// MaxPerTenant bounds one tenant's tasks in the system (queued plus
	// leased) the same way; a push beyond it returns ErrTenantQuota.
	// Zero or negative means unlimited. Requeues are exempt.
	MaxPerTenant int
	// TenantQuotas overrides MaxPerTenant for specific tenants; a
	// present entry <= 0 means that tenant is unlimited.
	TenantQuotas map[string]int
	// Quantum is the deficit-round-robin burst: how many consecutive
	// tasks one tenant may dispatch before the scheduler moves on to the
	// next tenant with eligible work in the same priority class. Zero or
	// negative means 1 (pure round-robin).
	Quantum int
	// Lease is how long a popped task stays owned without a heartbeat
	// before it is reaped and requeued. Zero means 30s.
	Lease time.Duration
	// Now is the clock. Nil means time.Now.
	Now func() time.Time
	// Metrics optionally observes the queue.
	Metrics *Metrics
	// TenantMetrics optionally resolves one tenant's instruments the
	// first time that tenant pushes; nil runs without per-tenant gauges.
	TenantMetrics func(tenant string) *TenantMetrics
}

func (c Config) capacity() int {
	if c.Capacity <= 0 {
		return 1
	}
	return c.Capacity
}

func (c Config) quantum() int {
	if c.Quantum <= 0 {
		return 1
	}
	return c.Quantum
}

func (c Config) lease() time.Duration {
	if c.Lease <= 0 {
		return 30 * time.Second
	}
	return c.Lease
}

// quotaOf returns tenant's in-system bound; 0 means unlimited.
func (c Config) quotaOf(tenant string) int {
	if q, ok := c.TenantQuotas[tenant]; ok {
		if q <= 0 {
			return 0
		}
		return q
	}
	if c.MaxPerTenant <= 0 {
		return 0
	}
	return c.MaxPerTenant
}

// task is one queued entry.
type task[T any] struct {
	payload   T
	priority  int
	seq       uint64    // push order, the FIFO tiebreak within a priority
	attempt   int       // failed executions so far
	notBefore time.Time // zero = ready now
	readyAt   time.Time // when the task last became eligible (for Waits)
	index     int       // heap index
	ts        *tenantState[T]
	bar       *Barrier // generation barrier, nil for independent tasks
}

// readyHeap orders eligible tasks by (priority, seq).
type readyHeap[T any] []*task[T]

func (h readyHeap[T]) Len() int { return len(h) }
func (h readyHeap[T]) Less(a, b int) bool {
	if h[a].priority != h[b].priority {
		return h[a].priority < h[b].priority
	}
	return h[a].seq < h[b].seq
}
func (h readyHeap[T]) Swap(a, b int) {
	h[a], h[b] = h[b], h[a]
	h[a].index, h[b].index = a, b
}
func (h *readyHeap[T]) Push(x any) {
	t := x.(*task[T])
	t.index = len(*h)
	*h = append(*h, t)
}
func (h *readyHeap[T]) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}

// parkedHeap orders delayed tasks by notBefore.
type parkedHeap[T any] []*task[T]

func (h parkedHeap[T]) Len() int           { return len(h) }
func (h parkedHeap[T]) Less(a, b int) bool { return h[a].notBefore.Before(h[b].notBefore) }
func (h parkedHeap[T]) Swap(a, b int)      { h[a], h[b] = h[b], h[a]; h[a].index, h[b].index = a, b }
func (h *parkedHeap[T]) Push(x any)        { t := x.(*task[T]); t.index = len(*h); *h = append(*h, t) }
func (h *parkedHeap[T]) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}

// tenantState is one tenant's slice of the queue: its own ready heap
// (ordered by priority class, then push order), its quota accounting,
// and its deficit-round-robin budget. Tenants join the scheduling ring
// in first-push order and never leave it, so the ring order — and with
// it the whole schedule — is a pure function of the push history.
type tenantState[T any] struct {
	name    string
	ready   readyHeap[T]
	deficit int
	queued  int // ready + parked tasks
	leased  int
	m       *TenantMetrics
}

func (ts *tenantState[T]) inSystem() int { return ts.queued + ts.leased }

// headClass returns the priority class at the head of the tenant's
// ready heap; ok is false when the tenant has nothing ready.
func (ts *tenantState[T]) headClass() (int, bool) {
	if len(ts.ready) == 0 {
		return 0, false
	}
	return ts.ready[0].priority, true
}

// Queue is a bounded, multi-tenant priority queue with leases. All
// methods are safe for concurrent use.
type Queue[T any] struct {
	cfg Config

	mu      sync.Mutex
	tenants map[string]*tenantState[T]
	ring    []*tenantState[T] // first-push order; never shrinks
	cur     int               // ring index of the DRR pointer
	nready  int               // ready tasks across all tenants
	parked  parkedHeap[T]
	leases  map[*Lease[T]]*task[T]
	seq     uint64
	closed  bool
	sealed  bool          // admission stopped, dispatch continues (Seal)
	wake    chan struct{} // closed-and-replaced to broadcast state changes
}

// New returns an empty queue.
func New[T any](cfg Config) *Queue[T] {
	if cfg.Metrics == nil {
		// Every obs instrument is nil-safe, so an empty set makes the
		// whole metrics path unconditional no-ops.
		cfg.Metrics = &Metrics{}
	}
	return &Queue[T]{
		cfg:     cfg,
		tenants: make(map[string]*tenantState[T]),
		leases:  make(map[*Lease[T]]*task[T]),
		wake:    make(chan struct{}),
	}
}

func (q *Queue[T]) now() time.Time {
	if q.cfg.Now != nil {
		return q.cfg.Now()
	}
	return time.Now()
}

// notifyLocked wakes every blocked Pop. Callers hold q.mu.
func (q *Queue[T]) notifyLocked() {
	close(q.wake)
	q.wake = make(chan struct{})
}

// tenantLocked returns (creating on first use) one tenant's state.
func (q *Queue[T]) tenantLocked(name string) *tenantState[T] {
	ts, ok := q.tenants[name]
	if !ok {
		ts = &tenantState[T]{name: name}
		if q.cfg.TenantMetrics != nil {
			ts.m = q.cfg.TenantMetrics(name)
		}
		if ts.m == nil {
			ts.m = &TenantMetrics{}
		}
		q.tenants[name] = ts
		q.ring = append(q.ring, ts)
	}
	return ts
}

// inSystemLocked is the admission-control count: queued plus leased.
func (q *Queue[T]) inSystemLocked() int {
	return q.nready + len(q.parked) + len(q.leases)
}

// Push admits one task for the anonymous tenant at the given priority
// (lower runs sooner; equal priorities run in push order). It returns
// ErrFull when the system already holds Capacity tasks and ErrClosed
// after Close.
func (q *Queue[T]) Push(priority int, payload T) error {
	return q.PushBatchTenant("", priority, []T{payload})
}

// PushBatch admits every payload atomically for the anonymous tenant:
// either all fit under the capacity or none are queued. campaignd uses
// it to admit a whole campaign's task fan-out as one decision.
func (q *Queue[T]) PushBatch(priority int, payloads []T) error {
	return q.PushBatchTenant("", priority, payloads)
}

// PushBatchTenant admits every payload atomically on behalf of tenant:
// all of them fit under both the global capacity and the tenant's quota,
// or none are queued and ErrFull / ErrTenantQuota says which bound was
// hit.
func (q *Queue[T]) PushBatchTenant(tenant string, priority int, payloads []T) error {
	return q.pushBatch(tenant, priority, payloads, nil)
}

// Admissible reports whether a batch of n tasks for tenant could ever
// be admitted: nil when n fits under both the capacity and the tenant's
// quota of an empty queue, otherwise an error wrapping ErrTooLarge that
// names the bound. Unlike PushBatchTenant's ErrFull and ErrTenantQuota,
// the answer does not depend on what the queue holds now.
func (q *Queue[T]) Admissible(tenant string, n int) error {
	if c := q.cfg.capacity(); n > c {
		return fmt.Errorf("%w: %d tasks, capacity %d", ErrTooLarge, n, c)
	}
	if quota := q.cfg.quotaOf(tenant); quota > 0 && n > quota {
		return fmt.Errorf("%w: %d tasks, tenant %q quota %d", ErrTooLarge, n, tenant, quota)
	}
	return nil
}

// pushBatch is the shared admission path behind PushBatchTenant and
// PushBarrierTenant; bar, when non-nil, is attached to every admitted
// task.
func (q *Queue[T]) pushBatch(tenant string, priority int, payloads []T, bar *Barrier) error {
	if len(payloads) == 0 {
		return nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || q.sealed {
		return ErrClosed
	}
	if q.inSystemLocked()+len(payloads) > q.cfg.capacity() {
		return ErrFull
	}
	ts := q.tenantLocked(tenant)
	if quota := q.cfg.quotaOf(tenant); quota > 0 && ts.inSystem()+len(payloads) > quota {
		return ErrTenantQuota
	}
	now := q.now()
	for _, p := range payloads {
		q.seq++
		t := &task[T]{payload: p, priority: priority, seq: q.seq, readyAt: now, ts: ts, bar: bar}
		heap.Push(&ts.ready, t)
		q.nready++
		ts.queued++
	}
	q.cfg.Metrics.Pushed.Add(uint64(len(payloads)))
	q.updateGaugesLocked(ts)
	q.notifyLocked()
	return nil
}

// Lease is one worker's ownership of a task. The worker must finish
// with Complete or Requeue, heartbeating in between if the work outlives
// the lease duration.
type Lease[T any] struct {
	q       *Queue[T]
	payload T
	attempt int
	tenant  string
}

// Payload returns the leased task's payload.
func (l *Lease[T]) Payload() T { return l.payload }

// Attempt returns how many failed executions preceded this lease.
func (l *Lease[T]) Attempt() int { return l.attempt }

// Tenant returns the tenant the leased task was pushed for.
func (l *Lease[T]) Tenant() string { return l.tenant }

// Pop blocks until a task is eligible, then leases it. It returns ctx's
// cause when the context ends and ErrClosed once the queue is closed
// (even if tasks remain — a closed queue is draining, not dispatching).
func (q *Queue[T]) Pop(ctx context.Context) (*Lease[T], error) {
	for {
		q.mu.Lock()
		if q.closed {
			q.mu.Unlock()
			return nil, ErrClosed
		}
		now := q.now()
		q.reapLocked(now)
		q.unparkLocked(now)
		if t := q.scheduleLocked(); t != nil {
			l := &Lease[T]{q: q, payload: t.payload, attempt: t.attempt, tenant: t.ts.name}
			t.notBefore = now.Add(q.cfg.lease()) // reused as the lease deadline
			q.leases[l] = t
			t.ts.leased++
			q.cfg.Metrics.Waits.Observe(now.Sub(t.readyAt).Seconds())
			q.updateGaugesLocked(t.ts)
			q.mu.Unlock()
			return l, nil
		}
		// A sealed queue dispatches until the system empties, then
		// reports closure: nothing queued, nothing leased that could
		// requeue — no work can ever arrive again.
		if q.sealed && q.inSystemLocked() == 0 {
			q.mu.Unlock()
			return nil, ErrClosed
		}
		// Nothing eligible: wait for a push/requeue/close, or for the
		// next timed event (a parked task coming due, a lease expiring).
		wake := q.wake
		var timer *time.Timer
		var timeout <-chan time.Time
		if next, ok := q.nextEventLocked(); ok {
			d := next.Sub(now)
			if d < time.Millisecond {
				d = time.Millisecond
			}
			timer = time.NewTimer(d)
			timeout = timer.C
		}
		q.mu.Unlock()
		select {
		case <-ctx.Done():
			if timer != nil {
				timer.Stop()
			}
			return nil, context.Cause(ctx)
		case <-wake:
		case <-timeout:
		}
		if timer != nil {
			timer.Stop()
		}
	}
}

// scheduleLocked picks the next task to dispatch, or nil when nothing
// is ready. Priority classes are strict: only tenants whose best ready
// task is in the minimal class are eligible this pick. Among them the
// deficit-round-robin pointer walks the ring in first-push order; the
// tenant under the pointer dispatches up to a quantum of tasks before
// the pointer moves on. Everything here is integer state mutated only
// by push/pop history, so identical histories schedule identically.
func (q *Queue[T]) scheduleLocked() *task[T] {
	if q.nready == 0 || len(q.ring) == 0 {
		return nil
	}
	minClass, found := 0, false
	for _, ts := range q.ring {
		if c, ok := ts.headClass(); ok && (!found || c < minClass) {
			minClass, found = c, true
		}
	}
	if !found {
		return nil
	}
	// At least one ring tenant heads the minimal class, so this walk
	// dispatches within len(ring) steps.
	for range q.ring {
		ts := q.ring[q.cur%len(q.ring)]
		if c, ok := ts.headClass(); ok && c == minClass {
			if ts.deficit <= 0 {
				ts.deficit = q.cfg.quantum()
			}
			ts.deficit--
			t := heap.Pop(&ts.ready).(*task[T])
			q.nready--
			ts.queued--
			if ts.deficit <= 0 {
				q.cur = (q.cur + 1) % len(q.ring)
			}
			return t
		}
		// Not eligible at this class: no banking while idle (classic
		// DRR zeroes an idle flow's deficit) and the pointer moves on.
		ts.deficit = 0
		q.cur = (q.cur + 1) % len(q.ring)
	}
	return nil
}

// nextEventLocked returns the earliest time at which the queue's state
// changes by itself: a parked task coming due or a lease expiring.
func (q *Queue[T]) nextEventLocked() (time.Time, bool) {
	var next time.Time
	ok := false
	if len(q.parked) > 0 {
		next, ok = q.parked[0].notBefore, true
	}
	for _, t := range q.leases {
		if !ok || t.notBefore.Before(next) {
			next, ok = t.notBefore, true
		}
	}
	return next, ok
}

// unparkLocked moves due parked tasks back into their tenants' ready
// heaps.
func (q *Queue[T]) unparkLocked(now time.Time) {
	for len(q.parked) > 0 && !q.parked[0].notBefore.After(now) {
		t := heap.Pop(&q.parked).(*task[T])
		t.readyAt = now
		heap.Push(&t.ts.ready, t)
		q.nready++
	}
}

// reapLocked requeues every expired lease. The task's payload, priority
// and attempt count are untouched: a reaped task is indistinguishable
// from one that was never popped, so its re-execution derives the same
// seed tuple and produces the same result.
func (q *Queue[T]) reapLocked(now time.Time) {
	for l, t := range q.leases {
		if t.notBefore.After(now) {
			continue
		}
		delete(q.leases, l)
		t.ts.leased--
		t.readyAt = now
		t.notBefore = time.Time{}
		heap.Push(&t.ts.ready, t)
		q.nready++
		t.ts.queued++
		q.cfg.Metrics.Expired.Inc()
		q.updateGaugesLocked(t.ts)
	}
	q.updateGaugesLocked(nil)
}

// Heartbeat extends the lease by the queue's lease duration. It returns
// ErrLeaseLost if the lease already expired and was requeued.
func (l *Lease[T]) Heartbeat() error {
	q := l.q
	q.mu.Lock()
	defer q.mu.Unlock()
	t, ok := q.leases[l]
	if !ok {
		return ErrLeaseLost
	}
	t.notBefore = q.now().Add(q.cfg.lease())
	return nil
}

// Lost reports whether the lease no longer owns its task: the queue
// reaped it (or will at the next Pop — an expired-but-unreaped lease is
// already lost, Heartbeat cannot revive ownership guarantees that have
// lapsed), it completed, or it was requeued. Registry.Sweep uses it to
// drop dead remote workers' entries without extending them.
func (l *Lease[T]) Lost() bool {
	q := l.q
	q.mu.Lock()
	defer q.mu.Unlock()
	t, ok := q.leases[l]
	return !ok || !t.notBefore.After(q.now())
}

// Complete removes the task from the queue for good. ErrLeaseLost means
// the lease expired first and the task is running (or queued) elsewhere;
// the caller must discard its result — the duplicate owner's will be
// identical anyway, but only one execution gets to report.
func (l *Lease[T]) Complete() error {
	q := l.q
	q.mu.Lock()
	defer q.mu.Unlock()
	t, ok := q.leases[l]
	if !ok {
		return ErrLeaseLost
	}
	delete(q.leases, l)
	t.ts.leased--
	t.bar.settle(false)
	q.updateGaugesLocked(t.ts)
	q.sealNotifyLocked()
	return nil
}

// Requeue puts the task back with its attempt count incremented, not
// eligible before notBefore (the caller computes it from its backoff
// policy; the zero time means immediately). Capacity-exempt: an admitted
// task can always return. On a closed queue the task is dropped instead
// — Close already dropped every queued task (a drain recovers them from
// checkpoints), so resurrecting this one would leak it into a queue no
// Pop will ever drain — and ErrClosed reports the drop.
func (l *Lease[T]) Requeue(notBefore time.Time) error {
	q := l.q
	q.mu.Lock()
	defer q.mu.Unlock()
	t, ok := q.leases[l]
	if !ok {
		return ErrLeaseLost
	}
	delete(q.leases, l)
	t.ts.leased--
	if q.closed {
		t.bar.settle(true)
		q.updateGaugesLocked(t.ts)
		return ErrClosed
	}
	t.attempt++
	now := q.now()
	if notBefore.After(now) {
		t.notBefore = notBefore
		heap.Push(&q.parked, t)
	} else {
		t.notBefore = time.Time{}
		t.readyAt = now
		heap.Push(&t.ts.ready, t)
		q.nready++
	}
	t.ts.queued++
	q.cfg.Metrics.Requeued.Inc()
	q.updateGaugesLocked(t.ts)
	q.notifyLocked()
	return nil
}

// Release puts the task back with no attempt charged and immediately
// eligible — the lease-holder was at fault, not the task, so the requeue
// must be indistinguishable from a reaped lease (same no-charge rule as
// reapLocked). campaignd uses it when a worker is condemned: the
// worker's live leases return to the queue exactly once and their next
// owners derive identical results with unchanged provenance. Settlement
// semantics match Requeue: ErrLeaseLost if the lease already expired or
// settled (whoever settles first wins — a racing reap has already
// requeued the task, so this call must not do it again), ErrClosed with
// the task dropped on a closed queue.
func (l *Lease[T]) Release() error {
	q := l.q
	q.mu.Lock()
	defer q.mu.Unlock()
	t, ok := q.leases[l]
	if !ok {
		return ErrLeaseLost
	}
	delete(q.leases, l)
	t.ts.leased--
	if q.closed {
		t.bar.settle(true)
		q.updateGaugesLocked(t.ts)
		return ErrClosed
	}
	now := q.now()
	t.notBefore = time.Time{}
	t.readyAt = now
	heap.Push(&t.ts.ready, t)
	q.nready++
	t.ts.queued++
	q.cfg.Metrics.Released.Inc()
	q.updateGaugesLocked(t.ts)
	q.notifyLocked()
	return nil
}

// Depth returns the number of queued (ready plus parked) tasks.
func (q *Queue[T]) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.nready + len(q.parked)
}

// Leased returns the number of tasks currently leased.
func (q *Queue[T]) Leased() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.leases)
}

// Capacity returns the admission bound.
func (q *Queue[T]) Capacity() int { return q.cfg.capacity() }

// TenantCounts is one tenant's live footprint in the queue.
type TenantCounts struct {
	Queued int `json:"queued"`
	Leased int `json:"leased"`
	Quota  int `json:"quota,omitempty"` // in-system bound; 0 = unlimited
}

// Tenants snapshots every tenant the queue has seen, keyed by name.
func (q *Queue[T]) Tenants() map[string]TenantCounts {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make(map[string]TenantCounts, len(q.tenants))
	for name, ts := range q.tenants {
		out[name] = TenantCounts{Queued: ts.queued, Leased: ts.leased, Quota: q.cfg.quotaOf(name)}
	}
	return out
}

// Close stops the queue: every queued task is dropped (campaignd drains
// by finishing leased work and recovering the rest from checkpoints),
// every blocked Pop returns ErrClosed, and future pushes are rejected.
// Outstanding leases stay valid so in-flight work can still Complete.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.closed = true
	for _, ts := range q.ring {
		// Dropped tasks settle their barriers as dropped: a waiter must
		// never deadlock on a queue that will not dispatch again.
		for _, t := range ts.ready {
			t.bar.settle(true)
		}
		ts.ready = nil
		ts.queued = 0
		q.updateGaugesLocked(ts)
	}
	for _, t := range q.parked {
		t.bar.settle(true)
	}
	q.nready = 0
	q.parked = nil
	q.updateGaugesLocked(nil)
	q.notifyLocked()
}

// updateGaugesLocked refreshes the global gauges and, when ts is
// non-nil, that tenant's gauges.
func (q *Queue[T]) updateGaugesLocked(ts *tenantState[T]) {
	q.cfg.Metrics.Depth.Set(float64(q.nready + len(q.parked)))
	q.cfg.Metrics.Leased.Set(float64(len(q.leases)))
	if ts != nil {
		ts.m.Depth.Set(float64(ts.queued))
		ts.m.Leased.Set(float64(ts.leased))
	}
}
