package campaignd_test

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"interferometry/internal/campaignd"
	"interferometry/internal/obs"
)

// startWorkers launches n in-process remote workers against the
// coordinator and returns a cancel that stops them and waits.
func startWorkers(t *testing.T, coordinator string, httpc *http.Client, n int) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := &campaignd.Worker{
				Coordinator: coordinator,
				HTTP:        httpc,
				Wait:        100 * time.Millisecond,
			}
			w.Run(ctx)
		}()
	}
	stop = func() {
		cancel()
		wg.Wait()
	}
	t.Cleanup(stop)
	return stop
}

// runSharded runs one spec on a fresh pure coordinator with n remote
// workers and returns the dataset CSV.
func runSharded(t *testing.T, spec campaignd.JobSpec, n int) []byte {
	t.Helper()
	_, client := startService(t, campaignd.Config{NoLocalWorkers: true})
	startWorkers(t, client.Base, client.HTTP, n)
	ctx := context.Background()
	st, err := client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st = waitDone(t, client, st.ID); st.State != campaignd.StateDone {
		t.Fatalf("sharded campaign (%d workers) ended %s: %s", n, st.State, st.Error)
	}
	got, err := client.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestShardedMatchesSingleProcess is the scale-out headline: the same
// spec run through one remote worker and through four produces the
// exact dataset bytes (provenance columns included) of a clean
// single-process run. Worker count, completion order and network
// scheduling must not move a byte.
func TestShardedMatchesSingleProcess(t *testing.T) {
	spec := testSpec(8)
	want := datasetCSV(t, cleanDataset(t, spec))

	if got := runSharded(t, spec, 1); !bytes.Equal(got, want) {
		t.Errorf("1-worker sharded dataset differs from single-process run:\n--- sharded ---\n%s--- clean ---\n%s", got, want)
	}
	if got := runSharded(t, spec, 4); !bytes.Equal(got, want) {
		t.Errorf("4-worker sharded dataset differs from single-process run:\n--- sharded ---\n%s--- clean ---\n%s", got, want)
	}
}

// TestShardedBatchedMatchesSingleProcess is the 2-worker variant of the
// scale-out headline: 2 workers, each sharing one trace walk per lease
// group, must still produce the byte-exact dataset of a clean
// single-process run, whatever mix of group sizes the lease timing
// produces.
func TestShardedBatchedMatchesSingleProcess(t *testing.T) {
	spec := testSpec(10)
	want := datasetCSV(t, cleanDataset(t, spec))

	if got := runSharded(t, spec, 2); !bytes.Equal(got, want) {
		t.Errorf("2-worker batched sharded dataset differs from single-process run:\n--- sharded ---\n%s--- clean ---\n%s", got, want)
	}
}

// engineLayouts reads the layouts-measured counter of one engine.
func engineLayouts(o *obs.Observer, engine string) uint64 {
	return o.Counter(fmt.Sprintf("interferometry_engine_layouts_total{engine=%q}", engine), "").Value()
}

// queueThenWork submits every spec to a fresh pure coordinator before
// its one observed single-loop worker starts, so the worker's lease
// groups take every campaign in submission order, share by share, and
// waits for all of them.
func queueThenWork(t *testing.T, specs ...campaignd.JobSpec) (*obs.Observer, [][]byte) {
	t.Helper()
	_, client := startService(t, campaignd.Config{NoLocalWorkers: true})
	ctx := context.Background()
	ids := make([]string, len(specs))
	for k, spec := range specs {
		st, err := client.Submit(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		ids[k] = st.ID
	}
	o := &obs.Observer{Metrics: obs.NewMetrics()}
	wctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := &campaignd.Worker{Coordinator: client.Base, HTTP: client.HTTP, Wait: 100 * time.Millisecond, Obs: o}
		w.Run(wctx)
	}()
	t.Cleanup(func() {
		cancel()
		wg.Wait()
	})
	out := make([][]byte, len(specs))
	for k, id := range ids {
		if st := waitDone(t, client, id); st.State != campaignd.StateDone {
			t.Fatalf("campaign %d ended %s: %s", k, st.State, st.Error)
		}
		got, err := client.Result(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		out[k] = got
	}
	return o, out
}

// TestLeaseGroupEngineCounts: which engine measured a layout is visible
// on the worker's observer. A lease group of one replays on the scalar
// engine; an 8-layout campaign is two lease groups of four (a lone
// loop's share), each one batched walk of four lanes, with no scalar
// replay.
func TestLeaseGroupEngineCounts(t *testing.T) {
	o, _ := queueThenWork(t, testSpec(1))
	if s, b := engineLayouts(o, "scalar"), engineLayouts(o, "batch"); s != 1 || b != 0 {
		t.Errorf("group of one: %d scalar replays and %d batched lanes, want 1 and 0", s, b)
	}
	o, _ = queueThenWork(t, testSpec(8))
	if s, b := engineLayouts(o, "scalar"), engineLayouts(o, "batch"); s != 0 || b != 8 {
		t.Errorf("groups of four: %d scalar replays and %d batched lanes, want 0 and 8", s, b)
	}
}

// TestLeaseGroupSpansCampaigns: one lease group holding the tasks of two
// campaigns walks each campaign's part once, and each campaign's result
// matches the single-process bytes. With a lone loop's shares of 3 and
// 2, the groups are a0-a2, then a3 a4 b0 b1, then b2 b3.
func TestLeaseGroupSpansCampaigns(t *testing.T) {
	a, b := testSpec(5), testSpec(4)
	o, got := queueThenWork(t, a, b)
	if s, l := engineLayouts(o, "scalar"), engineLayouts(o, "batch"); s != 0 || l != 9 {
		t.Errorf("two-campaign group: %d scalar replays and %d batched lanes, want 0 and 9", s, l)
	}
	for k, spec := range []campaignd.JobSpec{a, b} {
		if want := datasetCSV(t, cleanDataset(t, spec)); !bytes.Equal(got[k], want) {
			t.Errorf("campaign %d of the shared group differs from single-process run:\n--- sharded ---\n%s--- clean ---\n%s", k, got[k], want)
		}
	}
}

// TestCoordinatorCampaignsObserved: a coordinator's own task loops
// measure through runners observed by the service's observer, so its
// /metrics shows which engine ran, as a remote worker's does. Two local
// loops lease the 4-layout campaign as two groups of two (each loop's
// share), each one batched walk of two lanes, with no scalar replay.
func TestCoordinatorCampaignsObserved(t *testing.T) {
	spec := testSpec(4)
	o := &obs.Observer{Metrics: obs.NewMetrics()}
	_, client := startService(t, campaignd.Config{Workers: 2, Obs: o})
	ctx := context.Background()
	st, err := client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st = waitDone(t, client, st.ID); st.State != campaignd.StateDone {
		t.Fatalf("campaign ended %s: %s", st.State, st.Error)
	}
	if s, b := engineLayouts(o, "scalar"), engineLayouts(o, "batch"); s != 0 || b != 4 {
		t.Errorf("local groups: %d scalar replays and %d batched lanes, want 0 and 4", s, b)
	}
	got, err := client.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := datasetCSV(t, cleanDataset(t, spec)); !bytes.Equal(got, want) {
		t.Errorf("observed coordinator's dataset differs from single-process run:\n--- got ---\n%s--- clean ---\n%s", got, want)
	}
}

// blockingTransport passes requests through until it sees the first
// /worker/complete, which it stalls until the request context dies —
// pinning its worker in the "executed but never reported" state a
// crashed worker leaves behind.
type blockingTransport struct {
	base http.RoundTripper
	once sync.Once
	hit  chan struct{} // closed when the first complete is captured
}

func (bt *blockingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if strings.HasSuffix(req.URL.Path, "/worker/complete") {
		bt.once.Do(func() { close(bt.hit) })
		<-req.Context().Done()
		return nil, req.Context().Err()
	}
	return bt.base.RoundTrip(req)
}

// TestShardedWorkerDeathRecovers kills a worker that holds a leased,
// fully executed task whose result never reached the coordinator. The
// lease must expire, the task requeue onto the surviving worker, and
// the finished dataset still match the single-process bytes — a
// re-execution derives identical results, and a lease-expiry requeue
// costs no attempt, so even the provenance columns are unchanged.
func TestShardedWorkerDeathRecovers(t *testing.T) {
	spec := testSpec(6)
	want := datasetCSV(t, cleanDataset(t, spec))

	_, client := startService(t, campaignd.Config{
		NoLocalWorkers: true,
		Lease:          300 * time.Millisecond,
	})

	// The doomed worker goes first, alone, so it is guaranteed to hold
	// a task when it dies.
	bt := &blockingTransport{base: client.HTTP.Transport, hit: make(chan struct{})}
	doomedCtx, kill := context.WithCancel(context.Background())
	defer kill()
	var doomedDone sync.WaitGroup
	doomedDone.Add(1)
	go func() {
		defer doomedDone.Done()
		w := &campaignd.Worker{
			Coordinator: client.Base,
			HTTP:        &http.Client{Transport: bt},
			Wait:        100 * time.Millisecond,
		}
		w.Run(doomedCtx)
	}()

	ctx := context.Background()
	st, err := client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-bt.hit: // doomed worker executed a task and is stuck reporting it
	case <-time.After(30 * time.Second):
		t.Fatal("doomed worker never executed a task")
	}
	kill()
	doomedDone.Wait()

	// The survivor finishes the campaign, including the dead worker's
	// requeued task.
	startWorkers(t, client.Base, client.HTTP, 1)
	if st = waitDone(t, client, st.ID); st.State != campaignd.StateDone {
		t.Fatalf("campaign ended %s: %s", st.State, st.Error)
	}
	if st.Failed != 0 {
		t.Errorf("worker death produced %d failed layouts; a reaped lease must cost nothing", st.Failed)
	}
	got, err := client.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("dataset after worker death differs from single-process run:\n--- sharded ---\n%s--- clean ---\n%s", got, want)
	}
}
