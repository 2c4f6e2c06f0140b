package campaignd

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"interferometry/internal/core"
	"interferometry/internal/experiments"
	"interferometry/internal/faultinject"
	"interferometry/internal/jobqueue/backoff"
	"interferometry/internal/results"
)

// SoakConfig parameterizes a chaos soak run (campaignd -chaos).
type SoakConfig struct {
	// Spec is the campaign measured every round.
	Spec JobSpec
	// Scale supplies the spec's defaults. Zero means experiments.Small.
	Scale experiments.Scale
	// Rounds is how many faulted service rounds to run; each round uses
	// a derived injector seed, so the fault schedule varies round to
	// round but is reproducible as a whole. Zero means 3.
	Rounds int
	// Seed roots the per-round injector seeds.
	Seed uint64
	// Rates is the fault mix injected into both seams each round.
	// KindCorrupt rates must be zero: a corrupted measurement is not an
	// error the service can observe, so it cannot promise byte-identity
	// under it (that screen is the MAD outlier pass, not campaignd's).
	Rates faultinject.Rates
	// Workers, QueueCapacity, Lease and MaxAttempts configure each
	// round's server as in Config.
	Workers       int
	QueueCapacity int
	Lease         time.Duration
	MaxAttempts   int
	// ShardWorkers, when positive, runs every round in sharded mode:
	// the server becomes a pure coordinator and this many worker
	// processes (in-process Worker instances, sharing the round's fault
	// injector) pull its tasks over real HTTP, each measuring its lease
	// groups in batched walks. The byte-identity check is unchanged —
	// sharding and batching must not move a byte.
	ShardWorkers int
	// ByzantineWorkers, when positive, makes this many of the sharded
	// workers liars (faultinject.Liar): every result they report is
	// corrupted — bit-flipped counters, stale layout seeds, replayed old
	// results, bad or forged fingerprints. The round starts the liars
	// first and waits until the coordinator has quarantined every one of
	// them before the honest workers join, so the byte-identity check
	// proves the corrupt results never reached a merged dataset and the
	// requeues charged no attempts. Requires ShardWorkers >
	// ByzantineWorkers so honest workers remain to finish the campaign.
	ByzantineWorkers int
	// AuditRate is the coordinator's spot-audit sampling rate for each
	// round (Config.AuditRate). Byzantine rounds force it to 1 when left
	// zero: the forged-fingerprint lie is structurally valid and only an
	// audit re-execution can disown it before the merge.
	AuditRate float64
	// CoordinatorKills, when positive, runs each round against a
	// WAL-backed coordinator that is hard-killed (Server.Kill — no
	// drain, no flush) this many times mid-campaign and restarted on the
	// same WAL dir. The campaign is submitted exactly once; every
	// restart must resume it from the WAL and checkpoints on its own,
	// and the finished export must still be byte-identical to the clean
	// run. Incompatible with ShardWorkers.
	CoordinatorKills int
	// Timeout bounds each round. Zero means 2 minutes.
	Timeout time.Duration
	// Out receives the per-round report. Nil discards it.
	Out io.Writer
}

func (c SoakConfig) rounds() int {
	if c.Rounds <= 0 {
		return 3
	}
	return c.Rounds
}

func (c SoakConfig) timeout() time.Duration {
	if c.Timeout <= 0 {
		return 2 * time.Minute
	}
	return c.Timeout
}

func (c SoakConfig) scale() experiments.Scale {
	if c.Scale.Name == "" {
		return experiments.Small
	}
	return c.Scale
}

// Soak is the deterministic chaos harness behind campaignd -chaos: it
// computes the spec's reference dataset with a clean single-process
// core.RunCampaign, then repeatedly runs the whole service — real HTTP
// listener, queue, lease groups, retries — under an injected fault
// schedule of error bursts, panics and latency spikes, and fails unless
// every round's measurement export is byte-identical to the reference.
func Soak(cfg SoakConfig) error {
	if cfg.Rates.Corrupt > 0 {
		return fmt.Errorf("campaignd: soak cannot use corrupt faults: a silently wrong measurement is invisible to the service (screen it with the MAD outlier pass instead)")
	}
	if cfg.CoordinatorKills > 0 && cfg.ShardWorkers > 0 {
		return fmt.Errorf("campaignd: coordinator-kill rounds cannot run sharded: restarted coordinators listen on new addresses the workers were not told about")
	}
	if cfg.ByzantineWorkers > 0 && cfg.ByzantineWorkers >= cfg.ShardWorkers {
		return fmt.Errorf("campaignd: byzantine soak needs ShardWorkers > ByzantineWorkers (%d liars of %d workers leaves nobody honest to finish)", cfg.ByzantineWorkers, cfg.ShardWorkers)
	}
	if err := cfg.Spec.validate(); err != nil {
		return err
	}
	out := cfg.Out
	if out == nil {
		out = io.Discard
	}

	// The ground truth: one clean, single-process run of the spec. For a
	// search spec that is core.RunSearch's trajectory — the canonical
	// generations CSV plus the summary report — instead of the dataset.
	// Byzantine rounds without injected seam faults additionally pin the
	// provenance export (status/attempts columns): honest re-execution of
	// a liar's requeued task must still show attempt 1, proving the
	// requeue charged nothing.
	byzProvenance := cfg.ByzantineWorkers > 0 && !cfg.Spec.IsSearch() &&
		cfg.Rates.Error == 0 && cfg.Rates.Panic == 0 && cfg.Rates.Slow == 0 && cfg.Rates.Spike == 0
	var ref, refReport, refProvenance bytes.Buffer
	var shared sharedWork
	if cfg.Spec.IsSearch() {
		searchCfg, err := shared.searchConfig(cfg.Spec, cfg.scale())
		if err != nil {
			return err
		}
		clean, err := core.RunSearch(searchCfg)
		if err != nil {
			return fmt.Errorf("campaignd: clean reference search: %w", err)
		}
		if err := results.WriteGenerationMeasurementsCSV(&ref, clean); err != nil {
			return err
		}
		if err := results.WriteJSON(&refReport, results.SummarizeSearch(clean)); err != nil {
			return err
		}
		fmt.Fprintf(out, "soak %s: search %d×%d, reference %d bytes, %d rounds\n",
			cfg.Spec.Benchmark, clean.Config.Population, clean.Config.Generations, ref.Len(), cfg.rounds())
	} else {
		campCfg, err := shared.campaignConfig(cfg.Spec, cfg.scale())
		if err != nil {
			return err
		}
		clean, err := core.RunCampaign(campCfg)
		if err != nil {
			return fmt.Errorf("campaignd: clean reference run: %w", err)
		}
		if err := results.WriteMeasurementsCSV(&ref, clean); err != nil {
			return err
		}
		if byzProvenance {
			if err := results.WriteDatasetCSV(&refProvenance, clean); err != nil {
				return err
			}
		}
		fmt.Fprintf(out, "soak %s: %d layouts, reference %d bytes, %d rounds\n",
			cfg.Spec.Benchmark, len(clean.Obs), ref.Len(), cfg.rounds())
	}

	for round := 0; round < cfg.rounds(); round++ {
		if err := soakRound(cfg, round, ref.Bytes(), refReport.Bytes(), refProvenance.Bytes(), out); err != nil {
			return fmt.Errorf("campaignd: soak round %d: %w", round, err)
		}
	}
	fmt.Fprintf(out, "soak PASS: %d rounds byte-identical to the clean run\n", cfg.rounds())
	return nil
}

// soakRound runs one faulted service instance end to end over HTTP and
// compares its measurement export against the clean reference (for a
// search spec: the canonical generations CSV and, refReport, the
// summary JSON; for fault-free byzantine rounds, refProvenance, the
// full dataset export with status/attempts columns).
func soakRound(cfg SoakConfig, round int, ref, refReport, refProvenance []byte, out io.Writer) error {
	// MaxFaults keeps every fault burst finite per (site, key), so a
	// bounded retry budget always clears it deterministically. A layout
	// can burn MaxFaults attempts in the build seam and MaxFaults more
	// in the measure seam, so success is guaranteed at 2×MaxFaults+1.
	rates := cfg.Rates
	if rates.MaxFaults <= 0 {
		rates.MaxFaults = 2
	}
	maxAttempts := cfg.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = 2*rates.MaxFaults + 1
	}
	if rates.MaxFaults > (maxAttempts-1)/2 {
		rates.MaxFaults = (maxAttempts - 1) / 2
	}
	injector := faultinject.New(cfg.Seed+uint64(round)*0x9e3779b9, faultinject.Config{
		Build:   rates,
		Measure: rates,
	})

	sharded := cfg.ShardWorkers > 0
	byzantine := cfg.ByzantineWorkers > 0
	auditRate := cfg.AuditRate
	if byzantine && auditRate == 0 {
		// The forged-fingerprint lie verifies structurally; only a
		// re-execution can disown it before the merge, so byzantine
		// rounds audit everything unless told otherwise.
		auditRate = 1
	}
	scfg := Config{
		Scale:         cfg.scale(),
		Workers:       cfg.Workers,
		QueueCapacity: cfg.QueueCapacity,
		Lease:         cfg.Lease,
		MaxAttempts:   maxAttempts,
		AuditRate:     auditRate,
		Backoff:       backoff.Policy{Base: time.Millisecond, Cap: 20 * time.Millisecond, Jitter: 0.5},
	}
	if sharded {
		// The seams live in the workers, so the injector goes there.
		scfg.NoLocalWorkers = true
	} else {
		scfg.Faults = injector
	}
	if cfg.CoordinatorKills > 0 {
		// Kill rounds need durable coordinator state: a WAL (plus
		// checkpoints under it) that every restarted coordinator reopens.
		walDir, werr := os.MkdirTemp("", "campaignd-soak-wal-*")
		if werr != nil {
			return werr
		}
		defer os.RemoveAll(walDir)
		scfg.WALDir = walDir
		scfg.CheckpointRoot = filepath.Join(walDir, "checkpoints")
	}
	srv, err := New(scfg)
	if err != nil {
		return err
	}
	srv.Start()
	defer func() { srv.Drain() }()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := NewHTTPServer(srv.Handler())
	go httpSrv.Serve(ln)
	defer func() { httpSrv.Close() }()

	ctx, cancel := context.WithTimeout(context.Background(), cfg.timeout())
	defer cancel()
	client := &Client{Base: "http://" + ln.Addr().String()}

	var liars []string
	var st Status
	if sharded {
		wctx, stopWorkers := context.WithCancel(context.Background())
		var wwg sync.WaitGroup
		startWorker := func(w *Worker) {
			wwg.Add(1)
			go func() {
				defer wwg.Done()
				w.Run(wctx)
			}()
		}
		defer wwg.Wait()
		defer stopWorkers()
		honest := cfg.ShardWorkers
		if byzantine {
			// Stage the fleet: liars first, honest workers only after
			// every liar is quarantined. The submit races the liars, but
			// nothing they report ever merges — each corrupt result is
			// rejected or audit-disowned and its task requeued uncharged —
			// so the eventual dataset is the honest workers' alone and the
			// byte-identity check below proves it.
			honest -= cfg.ByzantineWorkers
			if st, err = client.SubmitWait(ctx, cfg.Spec); err != nil {
				return err
			}
			for n := 0; n < cfg.ByzantineWorkers; n++ {
				id := fmt.Sprintf("soak-r%d-liar%d", round, n)
				liars = append(liars, id)
				startWorker(&Worker{
					Coordinator: "http://" + ln.Addr().String(),
					ID:          id,
					Wait:        500 * time.Millisecond,
					Tamper:      faultinject.NewLiar(cfg.Seed + uint64(round)*0x9e3779b9 + uint64(n)),
				})
			}
			if err := waitQuarantined(ctx, srv, liars); err != nil {
				return err
			}
			fmt.Fprintf(out, "round %d: %d byzantine workers quarantined, %d honest workers joining\n",
				round, len(liars), honest)
		}
		for n := 0; n < honest; n++ {
			w := &Worker{
				Coordinator: "http://" + ln.Addr().String(),
				Wait:        500 * time.Millisecond,
				Faults:      injector,
			}
			if byzantine {
				w.ID = fmt.Sprintf("soak-r%d-w%d", round, n)
			}
			startWorker(w)
		}
		if !byzantine {
			fmt.Fprintf(out, "round %d: sharded across %d workers\n", round, cfg.ShardWorkers)
		}
	}

	if !byzantine {
		if st, err = client.SubmitWait(ctx, cfg.Spec); err != nil {
			return err
		}
	}

	// Hard-kill and restart the coordinator mid-campaign. The campaign
	// is never resubmitted: each restarted coordinator must bring it
	// back from the WAL and its checkpoints on its own.
	// One task per layout — or, for a search, one per individual across
	// the whole trajectory, so kills land spread across generations (and
	// usually inside one, which is the harsher case: the in-flight
	// generation's progress is lost and re-derived from the checkpoint).
	totalTasks := st.Layouts
	if cfg.Spec.IsSearch() {
		totalTasks = st.Layouts * st.Generations
	}
	for k := 1; k <= cfg.CoordinatorKills; k++ {
		// Let the campaign make proportional progress before each kill,
		// so the kills land spread across its lifetime.
		target := totalTasks * k / (cfg.CoordinatorKills + 1)
		for {
			cur, serr := client.Status(ctx, st.ID)
			if serr != nil {
				return serr
			}
			if cur.State != StateRunning || cur.Completed > target {
				break
			}
			select {
			case <-ctx.Done():
				return context.Cause(ctx)
			case <-time.After(2 * time.Millisecond):
			}
		}
		srv.Kill()
		httpSrv.Close()
		if srv, err = New(scfg); err != nil {
			return fmt.Errorf("coordinator restart %d: %w", k, err)
		}
		srv.Start()
		if ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return err
		}
		httpSrv = NewHTTPServer(srv.Handler())
		go httpSrv.Serve(ln)
		client = &Client{Base: "http://" + ln.Addr().String()}
		if _, serr := client.Status(ctx, st.ID); serr != nil {
			// The campaign finalized in the instant before the kill, so
			// the WAL rightly dropped it. Re-admit: the checkpoint makes
			// this an instant resume, not a re-run.
			if st, err = client.SubmitWait(ctx, cfg.Spec); err != nil {
				return err
			}
		}
		fmt.Fprintf(out, "round %d: coordinator kill %d/%d, restarted on the same WAL\n",
			round, k, cfg.CoordinatorKills)
	}

	if st, err = client.Wait(ctx, st.ID, 50*time.Millisecond); err != nil {
		return err
	}
	if st.State != StateDone {
		return fmt.Errorf("campaign ended %s: %s", st.State, st.Error)
	}
	var got, gotReport []byte
	switch {
	case cfg.Spec.IsSearch() && cfg.CoordinatorKills > 0:
		// Exercise the paginated generations path too: streamed pages
		// must concatenate to the exact blob bytes.
		var stream bytes.Buffer
		if err := client.StreamGenerations(ctx, st.ID, 2, true, &stream); err != nil {
			return err
		}
		got = stream.Bytes()
	case cfg.Spec.IsSearch():
		if got, err = client.Generations(ctx, st.ID, true); err != nil {
			return err
		}
	case cfg.CoordinatorKills > 0:
		// Exercise the paginated results path too: streamed pages must
		// concatenate to the exact blob bytes.
		var stream bytes.Buffer
		if err := client.StreamMeasurements(ctx, st.ID, 3, &stream); err != nil {
			return err
		}
		got = stream.Bytes()
	default:
		if got, err = client.Measurements(ctx, st.ID); err != nil {
			return err
		}
	}
	if cfg.Spec.IsSearch() {
		if gotReport, err = client.SearchReport(ctx, st.ID); err != nil {
			return err
		}
	}

	counts := injector.Counts(faultinject.SiteBuild)
	mcounts := injector.Counts(faultinject.SiteMeasure)
	fmt.Fprintf(out, "round %d: %d faults (build err=%d panic=%d slow=%d spike=%d / measure err=%d panic=%d slow=%d spike=%d)",
		round, injector.Injected(),
		counts[faultinject.KindError], counts[faultinject.KindPanic], counts[faultinject.KindSlow], counts[faultinject.KindSpike],
		mcounts[faultinject.KindError], mcounts[faultinject.KindPanic], mcounts[faultinject.KindSlow], mcounts[faultinject.KindSpike])
	if !bytes.Equal(got, ref) {
		fmt.Fprintf(out, " MISMATCH\n")
		return fmt.Errorf("measurements diverged from the clean run (%d vs %d bytes)", len(got), len(ref))
	}
	if cfg.Spec.IsSearch() && !bytes.Equal(gotReport, refReport) {
		fmt.Fprintf(out, " REPORT MISMATCH\n")
		return fmt.Errorf("search report diverged from the clean run (%d vs %d bytes)", len(gotReport), len(refReport))
	}
	if byzantine {
		// The fleet's health must tell the same story as the bytes: every
		// liar quarantined, every honest worker still trusted.
		health := srv.WorkerHealth()
		for _, id := range liars {
			h, ok := health[id]
			if !ok || !h.Quarantined {
				fmt.Fprintf(out, " LIAR AT LARGE\n")
				return fmt.Errorf("byzantine worker %s not quarantined (health %+v)", id, h)
			}
		}
		for id, h := range health {
			if h.Quarantined && !slices.Contains(liars, id) {
				fmt.Fprintf(out, " HONEST WORKER CONDEMNED\n")
				return fmt.Errorf("honest worker %s was quarantined (health %+v)", id, h)
			}
		}
		if len(refProvenance) > 0 {
			// With no seam faults injected, every clean attempt count is 1;
			// matching bytes prove the liars' requeued tasks were never
			// charged an attempt.
			gotProv, perr := client.Result(ctx, st.ID)
			if perr != nil {
				return perr
			}
			if !bytes.Equal(gotProv, refProvenance) {
				fmt.Fprintf(out, " PROVENANCE MISMATCH\n")
				return fmt.Errorf("provenance export diverged from the clean run (%d vs %d bytes): a requeued task was charged an attempt", len(gotProv), len(refProvenance))
			}
		}
	}
	fmt.Fprintf(out, " identical\n")
	return nil
}

// waitQuarantined polls the coordinator's fleet health until every one
// of the given workers is quarantined (or ctx expires). The liars are
// guaranteed to get there: every observation they report is rejected or
// audit-disowned, and the quarantine threshold is finite.
func waitQuarantined(ctx context.Context, srv *Server, workers []string) error {
	for {
		health := srv.WorkerHealth()
		all := true
		for _, id := range workers {
			if h, ok := health[id]; !ok || !h.Quarantined {
				all = false
				break
			}
		}
		if all {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("waiting for byzantine quarantine: %w", context.Cause(ctx))
		case <-time.After(2 * time.Millisecond):
		}
	}
}
