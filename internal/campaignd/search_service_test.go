package campaignd_test

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"interferometry/internal/campaignd"
	"interferometry/internal/core"
	"interferometry/internal/experiments"
	"interferometry/internal/progen"
	"interferometry/internal/results"
)

// searchSpec is a layout-search campaign small enough for unit tests:
// 5 individuals × 3 generations over the test benchmark.
func searchSpec() campaignd.JobSpec {
	return campaignd.JobSpec{
		Benchmark: "429.mcf",
		Layouts:   4,
		Budget:    60_000,
		Kind:      campaignd.KindSearch,
		Search:    &campaignd.SearchSpec{Population: 5, Generations: 3, Elite: 1, Tournament: 2},
	}
}

// cleanSearch runs the spec's search in a single process through
// core.RunSearch — the ground truth every service search test compares
// against, mirroring what cleanDataset is for layout campaigns.
func cleanSearch(t *testing.T, spec campaignd.JobSpec) *core.SearchResult {
	t.Helper()
	ps, ok := progen.ByName(spec.Benchmark)
	if !ok {
		t.Fatalf("unknown benchmark %s", spec.Benchmark)
	}
	prog, err := progen.Generate(ps)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.RunSearch(core.SearchConfig{
		Campaign: core.CampaignConfig{
			Program:   prog,
			InputSeed: 1,
			Budget:    spec.Budget,
			Layouts:   spec.Layouts,
			Fidelity:  experiments.Small.Fidelity,
			BaseSeed:  0x1f2e3d4c,
		},
		Population:  spec.Search.Population,
		Generations: spec.Search.Generations,
		Elite:       spec.Search.Elite,
		TournamentK: spec.Search.Tournament,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// searchReference renders the three byte-compared exports of a search
// result: the provenance generations CSV, the measurement-only
// canonical CSV, and the summary report JSON.
func searchReference(t *testing.T, res *core.SearchResult) (provenance, canonical, report []byte) {
	t.Helper()
	var p, c, r bytes.Buffer
	if err := results.WriteGenerationsCSV(&p, res); err != nil {
		t.Fatal(err)
	}
	if err := results.WriteGenerationMeasurementsCSV(&c, res); err != nil {
		t.Fatal(err)
	}
	if err := results.WriteJSON(&r, results.SummarizeSearch(res)); err != nil {
		t.Fatal(err)
	}
	return p.Bytes(), c.Bytes(), r.Bytes()
}

// fetchSearch pulls a finished search campaign's three exports.
func fetchSearch(t *testing.T, client *campaignd.Client, id string) (provenance, canonical, report []byte) {
	t.Helper()
	ctx := context.Background()
	p, err := client.Generations(ctx, id, false)
	if err != nil {
		t.Fatal(err)
	}
	c, err := client.Generations(ctx, id, true)
	if err != nil {
		t.Fatal(err)
	}
	r, err := client.SearchReport(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	return p, c, r
}

// TestSearchServiceMatchesSingleProcess: a search campaign run through
// the service's local task loops produces the exact generation CSVs
// and report JSON of a single-process core.RunSearch of the same spec.
func TestSearchServiceMatchesSingleProcess(t *testing.T) {
	spec := searchSpec()
	wantProv, wantCanon, wantReport := searchReference(t, cleanSearch(t, spec))

	_, client := startService(t, campaignd.Config{Workers: 3})
	ctx := context.Background()
	st, err := client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind != campaignd.KindSearch || st.Generations != spec.Search.Generations {
		t.Errorf("admitted status %+v lacks the search shape", st)
	}
	if st = waitDone(t, client, st.ID); st.State != campaignd.StateDone {
		t.Fatalf("search campaign ended %s: %s", st.State, st.Error)
	}
	if st.Generation != spec.Search.Generations {
		t.Errorf("done status reports %d settled generations, want %d", st.Generation, spec.Search.Generations)
	}
	if st.Completed != spec.Search.Population*spec.Search.Generations {
		t.Errorf("done status reports %d completed individuals, want %d",
			st.Completed, spec.Search.Population*spec.Search.Generations)
	}

	prov, canon, report := fetchSearch(t, client, st.ID)
	if !bytes.Equal(prov, wantProv) {
		t.Errorf("service generations differ from single-process run:\n--- service ---\n%s--- clean ---\n%s", prov, wantProv)
	}
	if !bytes.Equal(canon, wantCanon) {
		t.Errorf("service canonical generations differ from single-process run:\n--- service ---\n%s--- clean ---\n%s", canon, wantCanon)
	}
	if !bytes.Equal(report, wantReport) {
		t.Errorf("service report differs from single-process run:\n--- service ---\n%s--- clean ---\n%s", report, wantReport)
	}

	// Streamed generation pages (canonical, one generation per page)
	// concatenate to the blob byte for byte.
	var stream bytes.Buffer
	if err := client.StreamCSV(ctx, "/campaigns/"+st.ID+"/generations?canonical=1", 1, &stream); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stream.Bytes(), canon) {
		t.Errorf("streamed generation pages differ from the blob (%d vs %d bytes)", stream.Len(), len(canon))
	}

	// Resubmitting the identical spec is idempotent: same campaign.
	st2, err := client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st2.ID != st.ID || st2.State != campaignd.StateDone {
		t.Errorf("resubmission created %+v instead of returning the done campaign", st2)
	}
}

// runSearchSharded runs one search spec on a fresh pure coordinator
// with n remote workers and returns the canonical generations CSV and
// the report JSON.
func runSearchSharded(t *testing.T, spec campaignd.JobSpec, n int) (canonical, report []byte) {
	t.Helper()
	_, client := startService(t, campaignd.Config{NoLocalWorkers: true})
	startWorkers(t, client.Base, client.HTTP, n)
	ctx := context.Background()
	st, err := client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st = waitDone(t, client, st.ID); st.State != campaignd.StateDone {
		t.Fatalf("sharded search (%d workers) ended %s: %s", n, st.State, st.Error)
	}
	_, canonical, report = fetchSearch(t, client, st.ID)
	return canonical, report
}

// TestSearchShardedMatchesSingleProcess is the distributed-search
// headline: the same search spec driven by one remote worker, by two
// and by four produces the exact bytes of a single-process
// core.RunSearch. Worker count, lease grouping and completion order
// must not move a byte of the trajectory.
func TestSearchShardedMatchesSingleProcess(t *testing.T) {
	spec := searchSpec()
	_, wantCanon, wantReport := searchReference(t, cleanSearch(t, spec))

	for _, tc := range []struct {
		name string
		n    int
	}{
		{"1-worker", 1},
		{"4-worker", 4},
		{"2-worker", 2},
	} {
		canon, report := runSearchSharded(t, spec, tc.n)
		if !bytes.Equal(canon, wantCanon) {
			t.Errorf("%s sharded search generations differ from single-process run:\n--- sharded ---\n%s--- clean ---\n%s",
				tc.name, canon, wantCanon)
		}
		if !bytes.Equal(report, wantReport) {
			t.Errorf("%s sharded search report differs from single-process run:\n--- sharded ---\n%s--- clean ---\n%s",
				tc.name, report, wantReport)
		}
	}
}

// TestSearchWorkerDeathRecovers kills a worker holding a leased, fully
// executed search individual whose result never reached the
// coordinator. The lease must expire, the individual requeue onto the
// surviving worker, the generation barrier release only once every
// individual settled — and the finished trajectory still match the
// single-process bytes, with zero failed individuals, because a
// re-execution derives identical results and a reaped lease costs no
// attempt.
func TestSearchWorkerDeathRecovers(t *testing.T) {
	spec := searchSpec()
	_, wantCanon, wantReport := searchReference(t, cleanSearch(t, spec))

	_, client := startService(t, campaignd.Config{
		NoLocalWorkers: true,
		Lease:          300 * time.Millisecond,
	})

	// The doomed worker goes first, alone, so it is guaranteed to hold
	// an individual when it dies.
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
	case <-bt.hit: // doomed worker executed an individual and is stuck reporting it
	case <-time.After(30 * time.Second):
		t.Fatal("doomed worker never executed an individual")
	}
	kill()
	doomedDone.Wait()

	// The survivor finishes the search, including the dead worker's
	// requeued individual.
	startWorkers(t, client.Base, client.HTTP, 1)
	if st = waitDone(t, client, st.ID); st.State != campaignd.StateDone {
		t.Fatalf("search ended %s: %s", st.State, st.Error)
	}
	if st.Failed != 0 {
		t.Errorf("worker death produced %d failed individuals; a reaped lease must cost nothing", st.Failed)
	}
	_, canon, report := fetchSearch(t, client, st.ID)
	if !bytes.Equal(canon, wantCanon) {
		t.Errorf("search generations after worker death differ from single-process run:\n--- sharded ---\n%s--- clean ---\n%s", canon, wantCanon)
	}
	if !bytes.Equal(report, wantReport) {
		t.Errorf("search report after worker death differs from single-process run")
	}
}

// TestSearchKillRestartResumesFromWAL is the search durability
// acceptance test: a coordinator hard-killed mid-trajectory (at least
// one generation settled, no drain, no flush) must, on restart against
// the same WAL dir, resume the search from its generation checkpoint on
// its own and finish it byte-identical to a clean single-process run —
// and a further restart after finalization must NOT resurrect it, while
// a resubmission restores the whole trajectory from the checkpoint.
func TestSearchKillRestartResumesFromWAL(t *testing.T) {
	spec := searchSpec()
	spec.Budget = 200_000
	spec.Search.Generations = 4
	_, wantCanon, wantReport := searchReference(t, cleanSearch(t, spec))

	dir := t.TempDir()
	cfg := campaignd.Config{
		NoLocalWorkers: true,
		WALDir:         dir,
		CheckpointRoot: filepath.Join(dir, "checkpoints"),
	}

	// Phase 1: admit durably, let exactly one generation settle, die.
	// The coordinator is pure and its one remote worker stalls every
	// completion after generation 0's, freezing the trajectory at
	// generation 1 — a merely timed kill can lose the race against the
	// driver finishing the whole search on a loaded single-CPU host.
	srv1, err := campaignd.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv1.Start()
	hs1 := httptest.NewServer(srv1.Handler())
	client1 := &campaignd.Client{Base: hs1.URL, HTTP: hs1.Client()}
	stalled := &http.Client{Transport: &stallAfterTransport{
		base: hs1.Client().Transport,
		n:    int64(spec.Search.Population),
	}}
	stopWorker := startWorkers(t, hs1.URL, stalled, 1)
	ctx := context.Background()
	st, err := client1.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Minute)
	for {
		cur, err := client1.Status(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.State != campaignd.StateRunning {
			t.Fatalf("search finished (%s) before the kill; the stalled worker should make that impossible", cur.State)
		}
		if cur.Generation >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no generation settled within a minute")
		}
		time.Sleep(2 * time.Millisecond)
	}
	srv1.Kill()
	stopWorker()
	hs1.Close()

	// Phase 2: a restart on the same WAL dir must already know the
	// search — no resubmission — verify its checkpoint against the
	// journaled generation hashes, and run the rest of the trajectory to
	// the clean bytes.
	srv2, err := campaignd.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv2.Start()
	hs2 := httptest.NewServer(srv2.Handler())
	client2 := &campaignd.Client{Base: hs2.URL, HTTP: hs2.Client()}
	startWorkers(t, hs2.URL, hs2.Client(), 1)
	st2, err := client2.Status(ctx, st.ID)
	if err != nil {
		t.Fatalf("restarted coordinator does not know search %s: %v", st.ID, err)
	}
	if st2.Restored == 0 {
		t.Errorf("restarted search reports no restored individuals; the settled generation should restore from its checkpoint")
	}
	if done := waitDone(t, client2, st.ID); done.State != campaignd.StateDone {
		t.Fatalf("resumed search ended %s: %s", done.State, done.Error)
	}
	_, canon, report := fetchSearch(t, client2, st.ID)
	if !bytes.Equal(canon, wantCanon) {
		t.Errorf("resumed search generations differ from clean run:\n--- resumed ---\n%s--- clean ---\n%s", canon, wantCanon)
	}
	if !bytes.Equal(report, wantReport) {
		t.Errorf("resumed search report differs from clean run:\n--- resumed ---\n%s--- clean ---\n%s", report, wantReport)
	}
	srv2.Kill() // the final was journaled before this kill
	hs2.Close()

	// Phase 3: the search finalized in the WAL, so the third coordinator
	// must not resume it; resubmitting restores the whole trajectory
	// from the checkpoint without measuring a single individual.
	srv3, err := campaignd.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv3.Start()
	hs3 := httptest.NewServer(srv3.Handler())
	t.Cleanup(func() {
		srv3.Drain()
		hs3.Close()
	})
	client3 := &campaignd.Client{Base: hs3.URL, HTTP: hs3.Client()}
	if _, err := client3.Status(ctx, st.ID); err == nil {
		t.Fatalf("finalized search %s was resurrected after restart", st.ID)
	}
	st3, err := client3.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	total := spec.Search.Population * spec.Search.Generations
	if st3.ID != st.ID || st3.State != campaignd.StateDone || st3.Restored != total {
		t.Errorf("resubmission %+v, want done campaign %s with all %d individuals restored", st3, st.ID, total)
	}
	_, canon3, _ := fetchSearch(t, client3, st.ID)
	if !bytes.Equal(canon3, wantCanon) {
		t.Errorf("checkpoint-restored search generations differ from clean run")
	}
}

// TestSearchSpecValidation pins the search-spec admission contract.
func TestSearchSpecValidation(t *testing.T) {
	srv, err := campaignd.New(campaignd.Config{NoLocalWorkers: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Drain)
	for _, tc := range []struct {
		name string
		spec campaignd.JobSpec
	}{
		{"elite >= population", campaignd.JobSpec{Benchmark: "429.mcf", Kind: campaignd.KindSearch,
			Search: &campaignd.SearchSpec{Population: 4, Elite: 4}}},
		{"negative population", campaignd.JobSpec{Benchmark: "429.mcf", Kind: campaignd.KindSearch,
			Search: &campaignd.SearchSpec{Population: -1}}},
		{"unknown kind", campaignd.JobSpec{Benchmark: "429.mcf", Kind: "anneal"}},
		{"search params without search kind", campaignd.JobSpec{Benchmark: "429.mcf",
			Search: &campaignd.SearchSpec{Population: 4}}},
	} {
		if _, err := srv.Submit(tc.spec); err == nil {
			t.Errorf("%s: spec admitted, want rejection", tc.name)
		}
	}
}

// TestSearchIdentityDistinct: a search spec and a layout spec over the
// same benchmark, and two searches of different shape, are different
// campaigns — the identity hash covers the resolved search shape.
func TestSearchIdentityDistinct(t *testing.T) {
	layout := testSpec(4)
	search := searchSpec()
	if layout.ID(experiments.Small) == search.ID(experiments.Small) {
		t.Errorf("layout and search specs share identity %s", search.ID(experiments.Small))
	}
	wider := searchSpec()
	wider.Search.Population++
	if search.ID(experiments.Small) == wider.ID(experiments.Small) {
		t.Errorf("searches of different population share identity")
	}
	// Spelled-out defaults collapse onto the defaulted spelling.
	spelled := searchSpec()
	defaulted := searchSpec()
	spelled.Search.Tournament = 2
	if spelled.ID(experiments.Small) != defaulted.ID(experiments.Small) {
		t.Errorf("identical resolved search shapes hash differently")
	}
}

// stallAfterTransport forwards /worker/complete requests until n have
// gone through, then stalls every further one until its request context
// dies. With n set to the population it freezes a search right after
// generation 0 settles: generation 1's results are executed but can
// never be reported, so the trajectory provably sits mid-search for as
// long as a test needs to kill the coordinator.
type stallAfterTransport struct {
	base http.RoundTripper
	n    int64
	seen atomic.Int64
}

func (st *stallAfterTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if strings.HasSuffix(req.URL.Path, "/worker/complete") && st.seen.Add(1) > st.n {
		<-req.Context().Done()
		return nil, req.Context().Err()
	}
	return st.base.RoundTrip(req)
}
