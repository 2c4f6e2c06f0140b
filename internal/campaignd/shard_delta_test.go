package campaignd_test

import (
	"bytes"
	"context"
	"net/http"
	"sync"
	"testing"
	"time"

	"interferometry/internal/campaignd"
	"interferometry/internal/core"
	"interferometry/internal/faultinject"
)

// startDeltaWorkers launches n in-process remote workers with the
// delta-replay engine forced on for their lease-group walks.
func startDeltaWorkers(t *testing.T, coordinator string, httpc *http.Client, n int) {
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
				Delta:       core.DeltaOn,
				Wait:        100 * time.Millisecond,
			}
			w.Run(ctx)
		}()
	}
	t.Cleanup(func() {
		cancel()
		wg.Wait()
	})
}

// TestShardedDeltaMatchesSingleProcess is the sharded leg of the delta
// determinism matrix: 2 remote workers with the delta engine forced on
// for their lease-group walks must produce the exact dataset bytes
// (provenance columns included) of a clean single-process run — the
// engine choice, like batching and sharding, must not move a byte.
func TestShardedDeltaMatchesSingleProcess(t *testing.T) {
	spec := testSpec(10)
	want := datasetCSV(t, cleanDataset(t, spec))

	_, client := startService(t, campaignd.Config{NoLocalWorkers: true})
	startDeltaWorkers(t, client.Base, client.HTTP, 2)
	ctx := context.Background()
	st, err := client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st = waitDone(t, client, st.ID); st.State != campaignd.StateDone {
		t.Fatalf("sharded delta campaign ended %s: %s", st.State, st.Error)
	}
	got, err := client.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("sharded delta dataset differs from single-process run:\n--- sharded ---\n%s--- clean ---\n%s", got, want)
	}
}

// TestChaosSoakDeltaRound exercises the -chaos-delta path: one sharded
// soak round with every worker's delta engine forced on, under injected
// faults, must stay byte-identical to the clean reference.
func TestChaosSoakDeltaRound(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak")
	}
	var out bytes.Buffer
	err := campaignd.Soak(campaignd.SoakConfig{
		Spec:         testSpec(6),
		Rounds:       1,
		Seed:         0xde17a,
		ShardWorkers: 2,
		WorkerDelta:  core.DeltaOn,
		Rates: faultinject.Rates{
			Error: 0.2, Panic: 0.1,
			MaxFaults: 2,
		},
		Timeout: time.Minute,
		Out:     &out,
	})
	if err != nil {
		t.Fatalf("delta soak round: %v\n%s", err, out.String())
	}
}
