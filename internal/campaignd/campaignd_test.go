package campaignd_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"interferometry/internal/campaignd"
	"interferometry/internal/core"
	"interferometry/internal/experiments"
	"interferometry/internal/faultinject"
	"interferometry/internal/jobqueue/backoff"
	"interferometry/internal/obs"
	"interferometry/internal/progen"
	"interferometry/internal/results"
)

// testSpec is a campaign small enough for unit tests: the explicit
// budget overrides the small scale's default.
func testSpec(layouts int) campaignd.JobSpec {
	return campaignd.JobSpec{Benchmark: "429.mcf", Layouts: layouts, Budget: 60_000}
}

// cleanDataset runs the spec's campaign in a single process — the
// ground truth every service test compares against.
func cleanDataset(t *testing.T, spec campaignd.JobSpec) *core.Dataset {
	t.Helper()
	ps, ok := progen.ByName(spec.Benchmark)
	if !ok {
		t.Fatalf("unknown benchmark %s", spec.Benchmark)
	}
	prog, err := progen.Generate(ps)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := core.RunCampaign(core.CampaignConfig{
		Program:   prog,
		InputSeed: 1,
		Budget:    spec.Budget,
		Layouts:   spec.Layouts,
		Fidelity:  experiments.Small.Fidelity,
		BaseSeed:  0x1f2e3d4c,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func datasetCSV(t *testing.T, ds *core.Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := results.WriteDatasetCSV(&buf, ds); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// startService builds a server, starts its workers, and serves its API
// over a test listener. The cleanup drains the service.
func startService(t *testing.T, cfg campaignd.Config) (*campaignd.Server, *campaignd.Client) {
	t.Helper()
	srv, err := campaignd.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		srv.Drain()
		hs.Close()
	})
	return srv, &campaignd.Client{Base: hs.URL, HTTP: hs.Client()}
}

func waitDone(t *testing.T, client *campaignd.Client, id string) campaignd.Status {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	st, err := client.Wait(ctx, id, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestServiceMatchesSingleProcess: a clean service run produces the
// exact bytes (provenance columns included) of a clean single-process
// run of the same spec.
func TestServiceMatchesSingleProcess(t *testing.T) {
	spec := testSpec(6)
	want := datasetCSV(t, cleanDataset(t, spec))

	_, client := startService(t, campaignd.Config{Workers: 3})
	ctx := context.Background()
	st, err := client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st = waitDone(t, client, st.ID); st.State != campaignd.StateDone {
		t.Fatalf("campaign ended %s: %s", st.State, st.Error)
	}
	got, err := client.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("service dataset differs from single-process run:\n--- service ---\n%s--- clean ---\n%s", got, want)
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

// TestOverloadShedsWithRetryAfter: a fan-out the queue cannot hold now
// is rejected whole with 429 + Retry-After, the shed is counted, the
// same spec goes through once the queue drains, and after a drain every
// queue gauge is back to zero — no leaked tasks or leases.
func TestOverloadShedsWithRetryAfter(t *testing.T) {
	o := &obs.Observer{Metrics: obs.NewMetrics()}
	// No local workers: queued tasks stay queued until a remote worker
	// joins, so occupancy is exact.
	srv, client := startService(t, campaignd.Config{
		NoLocalWorkers: true,
		QueueCapacity:  4,
		Obs:            o,
	})
	ctx := context.Background()
	first, err := client.Submit(ctx, testSpec(4))
	if err != nil {
		t.Fatal(err)
	}

	// 2 more layouts with the queue at its capacity of 4: shed
	// atomically, nothing admitted.
	_, err = client.Submit(ctx, testSpec(2))
	var re *campaignd.RetryError
	if !errors.As(err, &re) {
		t.Fatalf("overload returned %v, want *RetryError", err)
	}
	if re.After <= 0 {
		t.Errorf("Retry-After hint %v, want positive", re.After)
	}
	if v := o.Counter("campaignd_shed_total", "").Value(); v != 1 {
		t.Errorf("shed counter = %d, want 1", v)
	}
	if d := o.Gauge("campaignd_queue_depth", "").Value(); d != 4 {
		t.Errorf("queue depth %v after an all-or-nothing shed, want 4", d)
	}

	// Once a worker drains the queue, the shed campaign goes through and
	// both complete.
	startWorkers(t, client.Base, client.HTTP, 1)
	if st := waitDone(t, client, first.ID); st.State != campaignd.StateDone {
		t.Fatalf("campaign ended %s: %s", st.State, st.Error)
	}
	st, err := client.SubmitWait(ctx, testSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	if st = waitDone(t, client, st.ID); st.State != campaignd.StateDone {
		t.Fatalf("campaign ended %s: %s", st.State, st.Error)
	}

	srv.Drain()
	<-srv.Done()
	if d := o.Gauge("campaignd_queue_depth", "").Value(); d != 0 {
		t.Errorf("queue depth %v after drain, want 0", d)
	}
	if l := o.Gauge("campaignd_leases_active", "").Value(); l != 0 {
		t.Errorf("active leases %v after drain, want 0", l)
	}
}

// TestOversizedFirstWaveRefused: a first wave larger than the queue
// capacity or the tenant's quota — a campaign's layouts, or a search's
// population — can never be admitted, so it is refused with 400 instead
// of shed with 429, and SubmitWait returns at once instead of retrying
// until its context ends. A wave that fits exactly completes.
func TestOversizedFirstWaveRefused(t *testing.T) {
	tenant := func(layouts int) campaignd.JobSpec {
		s := testSpec(layouts)
		s.Tenant = "acme"
		return s
	}
	search := func(population int) campaignd.JobSpec {
		return campaignd.JobSpec{Benchmark: "429.mcf", Budget: 60_000, Kind: campaignd.KindSearch,
			Search: &campaignd.SearchSpec{Population: population, Generations: 1}}
	}
	for _, tc := range []struct {
		name      string
		cfg       campaignd.Config
		fits, big campaignd.JobSpec
	}{
		{"capacity", campaignd.Config{Workers: 2, QueueCapacity: 16}, testSpec(16), testSpec(17)},
		{"tenant quota", campaignd.Config{Workers: 2, MaxQueuedPerTenant: 16}, tenant(16), tenant(17)},
		{"search population", campaignd.Config{Workers: 2, QueueCapacity: 16}, search(16), search(17)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, client := startService(t, tc.cfg)
			body, err := json.Marshal(tc.big)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := client.HTTP.Post(client.Base+"/campaigns", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || resp.Header.Get("Retry-After") != "" {
				t.Fatalf("oversized wave: HTTP %d, Retry-After %q; want 400 without a retry hint",
					resp.StatusCode, resp.Header.Get("Retry-After"))
			}

			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			start := time.Now()
			_, err = client.SubmitWait(ctx, tc.big)
			if err == nil || ctx.Err() != nil {
				t.Fatalf("SubmitWait of an oversized wave: %v after %s, want an immediate refusal", err, time.Since(start))
			}
			if !strings.Contains(err.Error(), "too large") {
				t.Errorf("refusal %q does not say the campaign is too large", err)
			}

			st, err := client.SubmitWait(ctx, tc.fits)
			if err != nil {
				t.Fatal(err)
			}
			if st = waitDone(t, client, st.ID); st.State != campaignd.StateDone {
				t.Fatalf("fitting campaign ended %s: %s", st.State, st.Error)
			}
		})
	}
}

// TestRetriesConvergeUnderFaults: error and panic bursts in both seams
// burn retries but the finished dataset's measurements are byte-identical
// to the clean run, with the retries visible in the attempts column.
func TestRetriesConvergeUnderFaults(t *testing.T) {
	spec := testSpec(8)
	clean := cleanDataset(t, spec)

	_, client := startService(t, campaignd.Config{
		Workers:     2,
		MaxAttempts: 5,
		Backoff:     backoff.Policy{Base: time.Millisecond, Cap: 5 * time.Millisecond, Jitter: 0.5},
		Faults: faultinject.New(31, faultinject.Config{
			Build:   faultinject.Rates{Error: 0.3, Panic: 0.1, MaxFaults: 2},
			Measure: faultinject.Rates{Error: 0.3, MaxFaults: 2},
		}),
	})
	ctx := context.Background()
	st, err := client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st = waitDone(t, client, st.ID); st.State != campaignd.StateDone {
		t.Fatalf("campaign ended %s: %s", st.State, st.Error)
	}
	got, err := client.Measurements(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := results.WriteMeasurementsCSV(&want, clean); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Error("faulted service measurements differ from the clean run")
	}

	full, err := client.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := results.ReadDatasetCSV(bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	retried := 0
	for _, r := range rows {
		if r.Status == "retried" {
			retried++
		}
	}
	if retried == 0 {
		t.Error("30%+ fault rates never forced a retry")
	}
}

// TestDeadlinePropagates: a campaign with an impossible deadline fails
// with a deadline error instead of running forever, and its tasks drain.
func TestDeadlinePropagates(t *testing.T) {
	o := &obs.Observer{Metrics: obs.NewMetrics()}
	srv, client := startService(t, campaignd.Config{
		Workers: 1,
		// Slow faults stretch every execution so the 1ms deadline
		// expires while tasks are still queued.
		Faults: faultinject.New(5, faultinject.Config{
			Build: faultinject.Rates{Slow: 1, SlowDelay: 20 * time.Millisecond, MaxFaults: 1 << 20},
		}),
		Obs: o,
	})
	spec := testSpec(8)
	spec.DeadlineMS = 1
	ctx := context.Background()
	st, err := client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st = waitDone(t, client, st.ID); st.State != campaignd.StateFailed {
		t.Fatalf("campaign ended %s, want failed on deadline", st.State)
	}
	if st.Error == "" {
		t.Error("failed campaign carries no error")
	}
	srv.Drain()
	<-srv.Done()
	if l := o.Gauge("campaignd_leases_active", "").Value(); l != 0 {
		t.Errorf("active leases %v after deadline drain", l)
	}
}

// TestDeadlineStopsHeldGroup: a deadline stops the group a local loop
// already holds within a build, not after the whole group. One loop's
// group is half a 16-layout campaign, 8 builds of 20 ms each, and at
// most three of them start inside a 50 ms deadline; the group then
// settles uncharged and the campaign fails on the deadline.
func TestDeadlineStopsHeldGroup(t *testing.T) {
	faults := faultinject.New(5, faultinject.Config{
		Build: faultinject.Rates{Slow: 1, SlowDelay: 20 * time.Millisecond, MaxFaults: 1 << 20},
	})
	srv, client := startService(t, campaignd.Config{Workers: 1, Faults: faults})
	ctx := context.Background()
	// A first campaign interprets the shared trace, so the deadline
	// below is spent on builds, not on setup.
	warm, err := client.Submit(ctx, testSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, client, warm.ID); st.State != campaignd.StateDone {
		t.Fatalf("warm-up campaign ended %s: %s", st.State, st.Error)
	}
	before := faults.Counts(faultinject.SiteBuild)[faultinject.KindSlow]

	spec := testSpec(16)
	spec.BaseSeed = 2
	spec.DeadlineMS = 50
	st, err := client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st = waitDone(t, client, st.ID); st.State != campaignd.StateFailed || !strings.Contains(st.Error, "deadline") {
		t.Fatalf("campaign ended %s (%q), want failed on its deadline", st.State, st.Error)
	}
	srv.Drain()
	<-srv.Done()
	if builds := faults.Counts(faultinject.SiteBuild)[faultinject.KindSlow] - before; builds > 4 {
		t.Errorf("%d builds ran after a 50 ms deadline that leaves room for 3: the held group did not stop", builds)
	}
}

// TestDeadlineFailsIdleCampaign: a layout campaign's deadline fires by
// itself. On a pure coordinator (`campaignd -workers 0`) with no worker
// polling, none of the campaign's tasks is ever popped or settled, yet
// the campaign must read failed on its deadline soon after it passes,
// its checkpoint closed, and the drain must leave it failed.
func TestDeadlineFailsIdleCampaign(t *testing.T) {
	srv, client := startService(t, campaignd.Config{NoLocalWorkers: true, CheckpointRoot: t.TempDir()})
	spec := testSpec(6)
	spec.DeadlineMS = 300
	ctx := context.Background()
	st, err := client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	waitCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if st, err = client.Wait(waitCtx, st.ID, 20*time.Millisecond); err != nil {
		t.Fatalf("campaign still running 5 s after its 300 ms deadline: %v", err)
	}
	if st.State != campaignd.StateFailed || !strings.Contains(st.Error, "deadline") {
		t.Fatalf("campaign ended %s (%q), want failed on its deadline", st.State, st.Error)
	}
	srv.Drain()
	<-srv.Done()
	if st, err = client.Status(ctx, st.ID); err != nil || st.State != campaignd.StateFailed {
		t.Fatalf("after the drain: %s, %v; want failed", st.State, err)
	}
}

// TestDeadlineSparesRestoredCampaign: a deadline that passes while a
// cold server builds the campaign must not act on a campaign its
// checkpoint already holds whole. The resubmission reads done with
// every layout restored, on each of several fresh servers (each pays
// the program and trace build, which outlasts a 1 ms deadline).
func TestDeadlineSparesRestoredCampaign(t *testing.T) {
	root := t.TempDir()
	spec := testSpec(3)
	srv, client := startService(t, campaignd.Config{Workers: 2, CheckpointRoot: root})
	st, err := client.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if st = waitDone(t, client, st.ID); st.State != campaignd.StateDone {
		t.Fatalf("first run ended %s: %s", st.State, st.Error)
	}
	srv.Drain()
	<-srv.Done()

	spec.DeadlineMS = 1
	for round := 0; round < 32; round++ {
		srv, err := campaignd.New(campaignd.Config{NoLocalWorkers: true, CheckpointRoot: root})
		if err != nil {
			t.Fatal(err)
		}
		st, err := srv.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != campaignd.StateDone || st.Restored != spec.Layouts {
			t.Errorf("round %d: resubmission read %s with %d restored (%q), want done with all %d",
				round, st.State, st.Restored, st.Error, spec.Layouts)
		}
		srv.Drain()
		<-srv.Done()
	}
}

// TestDeadlineJournalsOneFinal: a layout campaign whose deadline passes
// during its admission, on a coordinator with a WAL and no worker,
// fails on the deadline and journals exactly one final record.
func TestDeadlineJournalsOneFinal(t *testing.T) {
	dir := t.TempDir()
	srv, err := campaignd.New(campaignd.Config{NoLocalWorkers: true, WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	client := &campaignd.Client{Base: hs.URL, HTTP: hs.Client()}
	spec := testSpec(4)
	spec.DeadlineMS = 1
	st, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st = waitDone(t, client, st.ID); st.State != campaignd.StateFailed || !strings.Contains(st.Error, "deadline") {
		t.Fatalf("campaign ended %s (%q), want failed on its deadline", st.State, st.Error)
	}
	srv.Kill() // closes the log without compacting it
	<-srv.Done()
	log, err := os.ReadFile(filepath.Join(dir, campaignd.WALFile))
	if err != nil {
		t.Fatal(err)
	}
	finals := 0
	for _, line := range strings.Split(string(log), "\n") {
		if strings.Contains(line, `"op":"final"`) && strings.Contains(line, st.ID) {
			finals++
		}
	}
	if finals != 1 {
		t.Errorf("the WAL holds %d final records for %s, want 1:\n%s", finals, st.ID, log)
	}
}

// TestGracefulDrainOnSIGTERM is the kill-mid-campaign test: a real
// SIGTERM lands while layouts are still queued; the drain finishes
// leased work and flushes the checkpoint; a second service instance over
// the same checkpoint root resumes and finishes; the final dataset is
// byte-identical to an uninterrupted single-process run. The drain
// finishes whole lease groups, and a lone loop's share is half a
// campaign (at most 32), so the campaign must be big enough to leave
// layouts behind: 80 layouts run as groups of 32, 32 and 16.
func TestGracefulDrainOnSIGTERM(t *testing.T) {
	spec := testSpec(80)
	want := datasetCSV(t, cleanDataset(t, spec))
	root := t.TempDir()

	srv, client := startService(t, campaignd.Config{
		Workers:        1,
		CheckpointRoot: root,
		// Slow every build a little so the campaign outlives submission
		// and the signal lands mid-flight.
		Faults: faultinject.New(9, faultinject.Config{
			Build: faultinject.Rates{Slow: 1, SlowDelay: 10 * time.Millisecond, MaxFaults: 1 << 20},
		}),
	})
	stopSignals := srv.DrainOnSignal(syscall.SIGTERM)
	defer stopSignals()

	ctx := context.Background()
	st, err := client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}

	// Let some layouts complete, then deliver a real SIGTERM.
	deadline := time.Now().Add(30 * time.Second)
	for {
		cur, err := client.Status(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.Completed >= 2 {
			break
		}
		if cur.State != campaignd.StateRunning {
			t.Fatalf("campaign ended %s before the signal: %s", cur.State, cur.Error)
		}
		if time.Now().After(deadline) {
			t.Fatal("campaign made no progress")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-srv.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("drain did not finish after SIGTERM")
	}

	// Admission is stopped; the interrupted campaign says how to resume.
	if _, err := client.Submit(ctx, testSpec(2)); !errors.Is(err, campaignd.ErrDraining) {
		t.Fatalf("drained service accepted a submission: %v", err)
	}
	cur, err := client.Status(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if cur.State != campaignd.StateInterrupted {
		t.Fatalf("campaign state after drain = %s, want interrupted", cur.State)
	}
	if cur.Completed == 0 || cur.Completed == spec.Layouts {
		t.Fatalf("drain completed %d of %d layouts; the test needs a partial campaign", cur.Completed, spec.Layouts)
	}

	// A fresh instance over the same checkpoint root resumes (clean this
	// time) and the result is byte-identical to the uninterrupted run.
	_, client2 := startService(t, campaignd.Config{
		Workers:        2,
		CheckpointRoot: root,
	})
	st2, err := client2.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st2.ID != st.ID {
		t.Fatalf("resubmitted spec got id %s, want %s", st2.ID, st.ID)
	}
	if st2.Restored == 0 {
		t.Error("resumed campaign restored nothing from the checkpoint")
	}
	if st2 = waitDone(t, client2, st2.ID); st2.State != campaignd.StateDone {
		t.Fatalf("resumed campaign ended %s: %s", st2.State, st2.Error)
	}
	got, err := client2.Result(ctx, st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("dataset after SIGTERM + resume differs from the uninterrupted run")
	}
}

// TestLeaseExpiryRecovers: with heartbeats disabled and executions
// slower than the lease, leases expire mid-run and tasks are re-executed
// elsewhere — the dedupe keeps the dataset identical and the drain
// leaves no lease residue.
func TestLeaseExpiryRecovers(t *testing.T) {
	spec := testSpec(4)
	clean := cleanDataset(t, spec)
	o := &obs.Observer{Metrics: obs.NewMetrics()}
	srv, client := startService(t, campaignd.Config{
		Workers:        2,
		Lease:          20 * time.Millisecond,
		HeartbeatEvery: -1, // force expiry under live workers
		Faults: faultinject.New(13, faultinject.Config{
			Measure: faultinject.Rates{Slow: 1, SlowDelay: 50 * time.Millisecond, MaxFaults: 1 << 20},
		}),
		Obs: o,
	})
	ctx := context.Background()
	st, err := client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st = waitDone(t, client, st.ID); st.State != campaignd.StateDone {
		t.Fatalf("campaign ended %s: %s", st.State, st.Error)
	}
	if v := o.Counter("campaignd_lease_expiries_total", "").Value(); v == 0 {
		t.Error("no lease ever expired; the scenario did not exercise reaping")
	}
	got, err := client.Measurements(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := results.WriteMeasurementsCSV(&want, clean); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Error("measurements after lease expiries differ from the clean run")
	}
	srv.Drain()
	<-srv.Done()
	if l := o.Gauge("campaignd_leases_active", "").Value(); l != 0 {
		t.Errorf("active leases %v after drain, want 0", l)
	}
	if d := o.Gauge("campaignd_queue_depth", "").Value(); d != 0 {
		t.Errorf("queue depth %v after drain, want 0", d)
	}
}

// TestEndpoints covers the health and introspection surface.
func TestEndpoints(t *testing.T) {
	o := &obs.Observer{Metrics: obs.NewMetrics()}
	srv, client := startService(t, campaignd.Config{Workers: 1, Obs: o})
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := client.HTTP.Get(client.Base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.String()
	}

	if code, body := get("/healthz"); code != 200 || body != "ok\n" {
		t.Errorf("/healthz = %d %q", code, body)
	}
	if code, _ := get("/readyz"); code != 200 {
		t.Errorf("/readyz = %d before drain", code)
	}
	if code, body := get("/queuez"); code != 200 || !bytes.Contains([]byte(body), []byte(`"capacity": 256`)) {
		t.Errorf("/queuez = %d %q", code, body)
	}
	if code, body := get("/metrics"); code != 200 || !bytes.Contains([]byte(body), []byte("campaignd_queue_depth")) {
		t.Errorf("/metrics = %d %q", code, body)
	}
	if code, _ := get("/campaigns/nope"); code != 404 {
		t.Errorf("unknown campaign = %d, want 404", code)
	}

	// An unfinished campaign's result is 202 + Retry-After.
	spec := testSpec(4)
	spec.DeadlineMS = 60_000
	st, err := client.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.HTTP.Get(client.Base + "/campaigns/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == 200 {
		// Completed already — fine; otherwise it must carry the hint.
	} else if resp.StatusCode != 202 || resp.Header.Get("Retry-After") == "" {
		t.Errorf("running result = %d (Retry-After %q), want 202 with a hint", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	waitDone(t, client, st.ID)

	srv.Drain()
	<-srv.Done()
	if code, _ := get("/readyz"); code != 503 {
		t.Errorf("/readyz = %d after drain, want 503", code)
	}
	if code, _ := get("/healthz"); code != 200 {
		t.Errorf("/healthz = %d after drain, want 200 while serving", code)
	}
}
