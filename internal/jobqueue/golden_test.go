package jobqueue_test

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"interferometry/internal/jobqueue"
	"interferometry/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestQueueMetricsGolden drives a scripted queue scenario on a fake
// clock and pins the whole Prometheus export. Because every duration
// comes from the fake clock, even the wait histogram is deterministic,
// so the service's metric names, help strings and semantics (depth and
// leases back to zero after the drain, expiry and shed counts) are all
// golden-checked.
func TestQueueMetricsGolden(t *testing.T) {
	clk := newFakeClock()
	o := &obs.Observer{Metrics: obs.NewMetrics()}
	q := jobqueue.New[string](jobqueue.Config{
		Capacity: 3,
		Lease:    time.Second,
		Now:      clk.Now,
		Metrics:  jobqueue.ObserveMetrics(o, "campaignd"),
	})
	shed := o.Counter("campaignd_shed_total", "submissions rejected by admission control (429)")

	// Admit three tasks; a fourth is shed.
	if err := q.PushBatch(0, []string{"a", "b", "c"}); err != nil {
		t.Fatal(err)
	}
	if err := q.Push(0, "d"); err == nil {
		t.Fatal("over-capacity push admitted")
	} else {
		shed.Inc()
	}

	ctx := context.Background()
	// a: waits 100ms, completes.
	clk.Advance(100 * time.Millisecond)
	la, err := q.Pop(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := la.Complete(); err != nil {
		t.Fatal(err)
	}
	// b: fails once (requeued with a 300ms delay), then completes.
	lb, err := q.Pop(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := lb.Requeue(clk.Now().Add(300 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	// c: leased, never heartbeats, expires after 1s and is reaped.
	lc, err := q.Pop(ctx)
	if err != nil {
		t.Fatal(err)
	}
	_ = lc
	clk.Advance(time.Second)
	// b (unparked) pops first and is released once — the no-fault,
	// no-attempt-charged requeue the trust layer uses when a worker, not
	// its task, is to blame — then c (reaped) and b complete.
	lr, err := q.Pop(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := lr.Release(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // c (reaped) and b (re-released)
		l, err := q.Pop(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Complete(); err != nil {
			t.Fatal(err)
		}
	}
	q.Close()

	// Tenant-labeled gauges: a second queue exercises the per-tenant
	// metrics hook so the labeled-family export (one HELP/TYPE header,
	// one sample per tenant) is golden-pinned alongside the globals.
	tq := jobqueue.New[string](jobqueue.Config{
		Capacity:     4,
		MaxPerTenant: 3,
		Now:          clk.Now,
		TenantMetrics: func(tenant string) *jobqueue.TenantMetrics {
			return &jobqueue.TenantMetrics{
				Depth:  o.Gauge(`campaignd_tenant_queue_depth{tenant="`+tenant+`"}`, "queued tasks per tenant"),
				Leased: o.Gauge(`campaignd_tenant_leases_active{tenant="`+tenant+`"}`, "leased tasks per tenant"),
			}
		},
	})
	if err := tq.PushBatchTenant("acme", 0, []string{"t1", "t2"}); err != nil {
		t.Fatal(err)
	}
	if err := tq.PushBatchTenant("umbrella", 0, []string{"t3"}); err != nil {
		t.Fatal(err)
	}
	lt, err := tq.Pop(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := lt.Complete(); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := o.WriteMetricsPrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "metrics.golden.prom")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("metrics export drifted from golden:\n--- got ---\n%s--- want ---\n%s", buf.Bytes(), want)
	}
}
