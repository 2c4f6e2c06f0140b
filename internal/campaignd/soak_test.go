package campaignd

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"interferometry/internal/core"
	"interferometry/internal/experiments"
	"interferometry/internal/faultinject"
	"interferometry/internal/jobqueue/backoff"
	"interferometry/internal/results"
)

// soakRow is one chaos-soak story: a spec measured over a number of
// rounds, each against a fresh service under one fault topology.
type soakRow struct {
	name   string
	spec   JobSpec
	rounds int
	remote int // remote workers over HTTP; zero runs the coordinator's own loops
	liars  int // of the remote workers, how many lie about every result
	kills  int // coordinator hard-kills per round, restarted on its WAL
	rates  faultinject.Rates
	// faults pins each round's injected total. The schedule is a pure
	// function of the seeds, so a change to retry or attempt accounting
	// shows up here. Kill rows leave it nil: where a kill lands decides
	// which faulted attempts run again.
	faults []int
}

func (r soakRow) faulted() bool {
	return r.rates.Error+r.rates.Panic+r.rates.Slow+r.rates.Spike > 0
}

// storm is the fault mix every faulted row injects into both seams.
// MaxFaults keeps each (site, key) burst finite; a layout can burn
// MaxFaults attempts in the build seam and MaxFaults more in the measure
// seam, so soakMaxAttempts always clears it.
func storm(errRate, panicRate, spikeRate float64) faultinject.Rates {
	return faultinject.Rates{
		Error: errRate, Panic: panicRate,
		Spike: spikeRate, SpikeP99: 10 * time.Millisecond,
		MaxFaults: 2,
	}
}

const (
	soakSeed        = 0xc4a05
	soakMaxAttempts = 2*2 + 1
)

var (
	soakCampaign12 = JobSpec{Benchmark: "429.mcf", Layouts: 12}
	soakCampaign24 = JobSpec{Benchmark: "429.mcf", Layouts: 24}
	soakSearch     = JobSpec{Benchmark: "429.mcf", Layouts: 8, Kind: KindSearch,
		Search: &SearchSpec{Population: 5, Generations: 3}}
)

// TestChaosSoak batters the whole service — HTTP listener, queue, lease
// groups, retries, attestation and audits, the WAL — with injected error
// bursts, panics and latency spikes, lying workers and coordinator
// kills, and requires every round's exports to stay byte-identical to a
// clean single-process run of the same spec (DESIGN.md §9). Each row is
// one fault story at the small scale (budget 200,000); -v prints each
// round's fault counts.
func TestChaosSoak(t *testing.T) {
	rows := []soakRow{
		{name: "local", spec: soakCampaign12, rounds: 3,
			rates: storm(.25, .1, .3), faults: []int{25, 23, 25}},
		// At 24 layouts the lease groups, and the faults inside them,
		// split differently.
		{name: "local-24", spec: soakCampaign24, rounds: 1,
			rates: storm(.25, .1, .3), faults: []int{53}},
		{name: "sharded", spec: soakCampaign12, rounds: 1, remote: 2,
			rates: storm(.25, .1, .3), faults: []int{25}},
		{name: "sharded-24", spec: soakCampaign24, rounds: 1, remote: 2,
			rates: storm(.25, .1, .3), faults: []int{53}},
		{name: "kill", spec: soakCampaign12, rounds: 2, kills: 2,
			rates: storm(.25, .1, .3)},
		{name: "search", spec: soakSearch, rounds: 2,
			rates: storm(.25, .1, .3), faults: []int{20, 12}},
		// Kills land mid-trajectory, usually mid-generation: each
		// restart resumes from the generation checkpoint and the journal,
		// never re-randomizing the trajectory.
		{name: "search-kill", spec: soakSearch, rounds: 2, kills: 2,
			rates: storm(.15, .05, .2)},
		// Fault rates are zero so the provenance columns compare exactly.
		{name: "byzantine", spec: soakCampaign12, rounds: 2, remote: 4, liars: 2,
			rates: storm(0, 0, 0), faults: []int{0, 0}},
		{name: "search-byzantine", spec: soakSearch, rounds: 1, remote: 3, liars: 1,
			rates: storm(0, 0, 0), faults: []int{0}},
	}
	var shared sharedWork
	refs := make(map[string]soakRef) // one clean run per distinct spec
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			id := row.spec.ID(experiments.Small)
			ref, ok := refs[id]
			if !ok {
				ref = cleanReference(t, &shared, row.spec)
				refs[id] = ref
			}
			t.Logf("soak %s: %s, reference %d bytes, %d rounds",
				row.spec.Benchmark, ref.shape, len(ref.measurements), row.rounds)
			for round := 0; round < row.rounds; round++ {
				n := soakRound(t, row, round, ref)
				switch {
				case row.faults != nil && n != row.faults[round]:
					t.Errorf("round %d injected %d faults, want %d", round, n, row.faults[round])
				case row.faulted() && n == 0:
					t.Errorf("round %d injected no faults", round)
				}
			}
		})
	}
}

// soakRef is a spec's clean single-process result: the measurement
// export (for a search, the canonical generations CSV), the search's
// summary report, and the full dataset export with its provenance
// columns.
type soakRef struct {
	shape                            string
	measurements, report, provenance []byte
}

// cleanReference runs the spec once in this process through
// core.RunCampaign or core.RunSearch, on the same translation the
// service uses.
func cleanReference(t *testing.T, shared *sharedWork, spec JobSpec) soakRef {
	var ref soakRef
	var meas, report, prov bytes.Buffer
	if spec.IsSearch() {
		cfg, err := shared.searchConfig(spec, experiments.Small)
		if err != nil {
			t.Fatal(err)
		}
		clean, err := core.RunSearch(cfg)
		if err != nil {
			t.Fatalf("clean reference search: %v", err)
		}
		if err := results.WriteGenerationMeasurementsCSV(&meas, clean); err != nil {
			t.Fatal(err)
		}
		if err := results.WriteJSON(&report, results.SummarizeSearch(clean)); err != nil {
			t.Fatal(err)
		}
		ref.shape = fmt.Sprintf("search %d×%d", clean.Config.Population, clean.Config.Generations)
	} else {
		cfg, err := shared.campaignConfig(spec, experiments.Small)
		if err != nil {
			t.Fatal(err)
		}
		clean, err := core.RunCampaign(cfg)
		if err != nil {
			t.Fatalf("clean reference run: %v", err)
		}
		if err := results.WriteMeasurementsCSV(&meas, clean); err != nil {
			t.Fatal(err)
		}
		if err := results.WriteDatasetCSV(&prov, clean); err != nil {
			t.Fatal(err)
		}
		ref.shape = fmt.Sprintf("%d layouts", len(clean.Obs))
	}
	ref.measurements, ref.report, ref.provenance = meas.Bytes(), report.Bytes(), prov.Bytes()
	return ref
}

// soakRound runs one faulted service instance end to end over HTTP,
// compares its exports against the clean reference and returns how many
// faults the round injected. Each round derives its own injector seed,
// so the schedule varies round to round but repeats run to run.
func soakRound(t *testing.T, row soakRow, round int, ref soakRef) int {
	seed := uint64(soakSeed) + uint64(round)*0x9e3779b9
	injector := faultinject.New(seed, faultinject.Config{Build: row.rates, Measure: row.rates})
	cfg := Config{
		Scale:          experiments.Small,
		Workers:        4, // unused when the coordinator runs no loops
		NoLocalWorkers: row.remote > 0,
		MaxAttempts:    soakMaxAttempts,
		Backoff:        backoff.Policy{Base: time.Millisecond, Cap: 20 * time.Millisecond, Jitter: 0.5},
	}
	if row.remote == 0 {
		// Sharded rows inject in the workers' seams instead.
		cfg.Faults = injector
	}
	if row.liars > 0 {
		// The forged-fingerprint lie verifies structurally; only a
		// re-execution can disown it before the merge.
		cfg.AuditRate = 1
	}
	if row.kills > 0 {
		// Kill rounds need durable coordinator state: a WAL, and
		// checkpoints under it, that every restart reopens.
		dir := t.TempDir()
		cfg.WALDir = dir
		cfg.CheckpointRoot = filepath.Join(dir, "checkpoints")
	}

	var (
		srv     *Server
		httpSrv *http.Server
		client  *Client
	)
	serve := func() {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		srv = s
		srv.Start()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		httpSrv = NewHTTPServer(srv.Handler())
		go httpSrv.Serve(ln)
		client = &Client{Base: "http://" + ln.Addr().String()}
	}
	serve()
	defer func() {
		httpSrv.Close()
		srv.Drain()
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	submit := func() Status {
		st, err := client.SubmitWait(ctx, row.spec)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	var liars []string
	var st Status
	if row.remote > 0 {
		wctx, stopWorkers := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		defer wg.Wait()
		defer stopWorkers()
		start := func(w *Worker) {
			w.Coordinator, w.Wait = client.Base, 500*time.Millisecond
			wg.Add(1)
			go func() {
				defer wg.Done()
				w.Run(wctx)
			}()
		}
		if row.liars > 0 {
			// Stage the fleet: liars first, honest workers only after
			// every liar is quarantined. Nothing a liar reports merges —
			// each corrupt result is rejected or audit-disowned and its
			// task requeued uncharged — so the dataset is the honest
			// workers' alone, and the byte checks below prove it.
			st = submit()
			for n := 0; n < row.liars; n++ {
				id := fmt.Sprintf("soak-r%d-liar%d", round, n)
				liars = append(liars, id)
				start(&Worker{ID: id, Tamper: NewLiar(seed + uint64(n)).Tamper})
			}
			WaitQuarantined(t, srv, liars...)
			t.Logf("round %d: %d byzantine workers quarantined, %d honest workers joining",
				round, row.liars, row.remote-row.liars)
		} else {
			t.Logf("round %d: sharded across %d workers", round, row.remote)
		}
		for n := row.liars; n < row.remote; n++ {
			start(&Worker{ID: fmt.Sprintf("soak-r%d-w%d", round, n), Faults: injector})
		}
	}
	if row.liars == 0 {
		st = submit()
	}

	// Hard-kill and restart the coordinator mid-campaign, after
	// proportional progress, so the kills spread across its lifetime
	// (for a search, across the whole trajectory). Each restart must
	// bring the campaign back from the WAL and its checkpoints on its
	// own.
	total := st.Layouts
	if row.spec.IsSearch() {
		total = st.Layouts * st.Generations
	}
	for k := 1; k <= row.kills; k++ {
		target := total * k / (row.kills + 1)
		for {
			cur, err := client.Status(ctx, st.ID)
			if err != nil {
				t.Fatal(err)
			}
			if cur.State != StateRunning || cur.Completed > target {
				break
			}
			select {
			case <-ctx.Done():
				t.Fatal(context.Cause(ctx))
			case <-time.After(2 * time.Millisecond):
			}
		}
		srv.Kill()
		httpSrv.Close()
		serve()
		if _, err := client.Status(ctx, st.ID); err != nil {
			// The campaign finalized in the instant before the kill, so
			// the WAL rightly dropped it. Re-admit it: the checkpoint
			// makes that an instant resume, not a re-run.
			st = submit()
		}
		t.Logf("round %d: coordinator kill %d/%d, restarted on the same WAL", round, k, row.kills)
	}

	st, err := client.Wait(ctx, st.ID, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("campaign ended %s: %s", st.State, st.Error)
	}
	// Kill rounds fetch the exports page by page: the pages must
	// concatenate to the exact blob bytes.
	var got, gotReport []byte
	var stream bytes.Buffer
	switch {
	case row.spec.IsSearch() && row.kills > 0:
		err = client.StreamCSV(ctx, "/campaigns/"+st.ID+"/generations?canonical=1", 2, &stream)
		got = stream.Bytes()
	case row.spec.IsSearch():
		got, err = client.Generations(ctx, st.ID, true)
	case row.kills > 0:
		err = client.StreamCSV(ctx, "/campaigns/"+st.ID+"/measurements", 3, &stream)
		got = stream.Bytes()
	default:
		got, err = client.Measurements(ctx, st.ID)
	}
	if err != nil {
		t.Fatal(err)
	}
	if row.spec.IsSearch() {
		if gotReport, err = client.SearchReport(ctx, st.ID); err != nil {
			t.Fatal(err)
		}
	}

	b, m := injector.Counts(faultinject.SiteBuild), injector.Counts(faultinject.SiteMeasure)
	report := fmt.Sprintf("round %d: %d faults (build err=%d panic=%d slow=%d spike=%d / measure err=%d panic=%d slow=%d spike=%d)",
		round, injector.Injected(),
		b[faultinject.KindError], b[faultinject.KindPanic], b[faultinject.KindSlow], b[faultinject.KindSpike],
		m[faultinject.KindError], m[faultinject.KindPanic], m[faultinject.KindSlow], m[faultinject.KindSpike])
	if !bytes.Equal(got, ref.measurements) {
		t.Fatalf("%s: measurements diverged from the clean run (%d vs %d bytes)", report, len(got), len(ref.measurements))
	}
	if !bytes.Equal(gotReport, ref.report) {
		t.Fatalf("%s: search report diverged from the clean run (%d vs %d bytes)", report, len(gotReport), len(ref.report))
	}
	if row.liars > 0 {
		// The fleet's health must tell the same story as the bytes:
		// every liar quarantined, every honest worker still trusted.
		health := srv.WorkerHealth()
		for _, id := range liars {
			if !health[id].Quarantined {
				t.Fatalf("%s: byzantine worker %s not quarantined (health %+v)", report, id, health[id])
			}
		}
		for id, h := range health {
			if h.Quarantined && !slices.Contains(liars, id) {
				t.Fatalf("%s: honest worker %s was quarantined (health %+v)", report, id, h)
			}
		}
		if !row.faulted() && !row.spec.IsSearch() {
			// With no seam faults every clean attempt count is 1, so
			// equal bytes prove the liars' requeued tasks were never
			// charged an attempt.
			prov, err := client.Result(ctx, st.ID)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(prov, ref.provenance) {
				t.Fatalf("%s: provenance export diverged from the clean run (%d vs %d bytes): a requeued task was charged an attempt", report, len(prov), len(ref.provenance))
			}
		}
	}
	t.Log(report + " identical")
	return injector.Injected()
}

// WaitQuarantined polls the coordinator's fleet health until every one
// of the given workers is quarantined, and fails t after 30 s. A liar
// gets there: every observation it reports is rejected or
// audit-disowned, and the quarantine threshold is finite.
func WaitQuarantined(t testing.TB, srv *Server, workers ...string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		health := srv.WorkerHealth()
		if !slices.ContainsFunc(workers, func(id string) bool { return !health[id].Quarantined }) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("workers %v never quarantined; health %+v", workers, health)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
