package core_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"interferometry/internal/core"
	"interferometry/internal/faultinject"
	"interferometry/internal/jobqueue/backoff"
	"interferometry/internal/obs"
	"interferometry/internal/pmc"
)

// TestLayoutRunnerMatchesRunCampaign drives every layout through the
// exported runner — out of order, in chunks of one and two, on varying
// worker slots — and checks the assembled dataset is interchangeable
// with RunCampaign's.
func TestLayoutRunnerMatchesRunCampaign(t *testing.T) {
	cfg := smallCampaign(8)
	want, err := core.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}

	r, err := core.NewLayoutRunner(cfg, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Layouts() != 8 || r.Workers() != 3 {
		t.Fatalf("Layouts()=%d Workers()=%d", r.Layouts(), r.Workers())
	}
	obs := make([]core.Observation, 8)
	for n, chunk := range [][]int{{5}, {0, 7}, {2}, {1, 6}, {3, 4}} {
		units := make([]core.Unit, len(chunk))
		for k, i := range chunk {
			units[k] = core.Unit{Layout: i}
		}
		if err := r.Measure(n%3, units, 1, func(k int, o core.Observation, err error) {
			if err != nil {
				t.Fatalf("layout %d: %v", chunk[k], err)
			}
			obs[chunk[k]] = o
		}); err != nil {
			t.Fatal(err)
		}
	}
	ds, err := r.Dataset(obs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Obs) != len(want.Obs) {
		t.Fatalf("got %d observations, want %d", len(ds.Obs), len(want.Obs))
	}
	for i := range want.Obs {
		if ds.Obs[i] != want.Obs[i] {
			t.Fatalf("observation %d differs: runner %+v vs campaign %+v", i, ds.Obs[i], want.Obs[i])
		}
	}
	if ds.Trace.Instrs != want.Trace.Instrs {
		t.Error("trace differs between runner and campaign")
	}
}

// TestLayoutRunnerRepeatedExecutionIdentical re-runs the same layout:
// duplicate executions (the lease-expiry case) must be byte-identical.
func TestLayoutRunnerRepeatedExecutionIdentical(t *testing.T) {
	r, err := core.NewLayoutRunner(smallCampaign(2), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	var prev core.Observation
	for n := 0; n < 3; n++ {
		if err := r.Measure(n%2, []core.Unit{{Layout: 1}}, 1, func(_ int, o core.Observation, err error) {
			if err != nil {
				t.Fatal(err)
			}
			if n > 0 && o != prev {
				t.Fatalf("execution %d of layout 1 differs: %+v vs %+v", n, o, prev)
			}
			prev = o
		}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestLayoutRunnerValidation(t *testing.T) {
	if _, err := core.NewLayoutRunner(core.CampaignConfig{}, 1, nil); err == nil {
		t.Error("empty config accepted")
	}
	r, err := core.NewLayoutRunner(smallCampaign(2), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Measure(1, []core.Unit{{Layout: 0}}, 1, func(int, core.Observation, error) {
		t.Error("Measure ran on an out-of-range worker slot")
	}); err == nil {
		t.Error("out-of-range worker slot accepted by Measure")
	}
	if err := r.Measure(0, []core.Unit{{Layout: 0}, {Layout: 2}}, 1, func(int, core.Observation, error) {
		t.Error("Measure ran a chunk holding an out-of-range layout")
	}); err == nil {
		t.Error("out-of-range layout accepted by Measure")
	}
	fo := r.FailedObservation(core.Unit{Layout: 1}, 3)
	if fo.Status != core.StatusFailed || fo.Attempts != 3 || fo.LayoutSeed == 0 || fo.Cycles != 0 {
		t.Errorf("FailedObservation = %+v", fo)
	}
	if _, err := r.Dataset(make([]core.Observation, 1), nil); err == nil {
		t.Error("short observation slice accepted by Dataset")
	}
}

// TestMeasureStopsOnContext: once the campaign's context is done,
// Measure builds and measures nothing more, and every unit left reports
// the cause.
func TestMeasureStopsOnContext(t *testing.T) {
	stop := errors.New("operator stop")
	units := []core.Unit{{Layout: 0}, {Layout: 1}, {Layout: 2}}
	measure := func(ctx context.Context, onDone func(k int, err error)) (stopped, builds int) {
		cfg := smallCampaign(3)
		cfg.Context = ctx
		// Every build is a counted, near-instant slow fault.
		faults := faultinject.New(1, faultinject.Config{
			Build: faultinject.Rates{Slow: 1, SlowDelay: time.Microsecond, MaxFaults: 1 << 20},
		})
		cfg.Faults = faults
		r, err := core.NewLayoutRunner(cfg, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Measure(0, units, 2, func(k int, _ core.Observation, err error) {
			if errors.Is(err, stop) {
				stopped++
			}
			onDone(k, err)
		}); err != nil {
			t.Fatal(err)
		}
		return stopped, faults.Counts(faultinject.SiteBuild)[faultinject.KindSlow]
	}

	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(stop)
	if stopped, builds := measure(ctx, func(int, error) {}); stopped != 3 || builds != 0 {
		t.Errorf("canceled campaign: %d of 3 units report the cause, %d builds ran", stopped, builds)
	}

	ctx, cancel = context.WithCancelCause(context.Background())
	stopped, _ := measure(ctx, func(k int, err error) {
		if k == 0 && err == nil {
			cancel(stop) // the rest of the chunk is built but never measured
		}
	})
	if stopped != 2 {
		t.Errorf("campaign canceled after the chunk's first unit: %d of 2 units report the cause", stopped)
	}
}

// TestLayoutRunnerSeamsCarryFaults: the runner's seams include the
// configured injector, and Measure recovers an injected panic into the
// unit's error, a *PanicError, exactly like the in-process supervisor.
func TestLayoutRunnerSeamsCarryFaults(t *testing.T) {
	cfg := smallCampaign(2)
	cfg.Faults = faultinject.New(11, faultinject.Config{
		Build: faultinject.Rates{Panic: 1, MaxFaults: 1},
	})
	r, err := core.NewLayoutRunner(cfg, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	measure := func() (err error) {
		if merr := r.Measure(0, []core.Unit{{Layout: 0}}, 1, func(_ int, _ core.Observation, uerr error) {
			err = uerr
		}); merr != nil {
			t.Fatal(merr)
		}
		return err
	}
	var pe *core.PanicError
	if err := measure(); !errors.As(err, &pe) {
		t.Fatalf("injected panic returned %v, want *PanicError", err)
	}
	// MaxFaults exhausted: the retry goes clean.
	if err := measure(); err != nil {
		t.Fatalf("retry after injected panic: %v", err)
	}
	if err := core.Guard(func() error { return nil }); err != nil {
		t.Fatalf("Guard(nil func) = %v", err)
	}
}

// TestCheckpointSinkRoundTrip writes observations through the sink and
// resumes them through a second sink and through RunCampaign itself.
func TestCheckpointSinkRoundTrip(t *testing.T) {
	cfg := smallCampaign(4)
	cfg.Checkpoint = core.CheckpointConfig{Dir: t.TempDir()}
	want, err := core.RunCampaign(smallCampaign(4))
	if err != nil {
		t.Fatal(err)
	}

	sink, err := core.OpenCheckpointSink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sink.Restored()) != 0 {
		t.Fatalf("fresh sink restored %d observations", len(sink.Restored()))
	}
	// Persist half the campaign, as a partial run would.
	sink.Put(0, want.Obs[0])
	sink.Put(2, want.Obs[2])
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	cfg.Checkpoint.Resume = true
	resumed, err := core.OpenCheckpointSink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := resumed.Restored()
	if len(got) != 2 || got[0] != want.Obs[0] || got[2] != want.Obs[2] {
		t.Fatalf("restored %+v, want layouts 0 and 2", got)
	}
	sink.Put(1, want.Obs[1]) // writes after Close surface at the writer; just finish the resumed sink
	resumed.Put(1, want.Obs[1])
	resumed.Put(3, want.Obs[3])
	if err := resumed.Close(); err != nil {
		t.Fatal(err)
	}

	// The completed checkpoint resumes under RunCampaign byte-identically.
	ds, err := core.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Obs {
		if ds.Obs[i] != want.Obs[i] {
			t.Fatalf("observation %d differs after checkpoint resume", i)
		}
	}
	if _, err := core.OpenCheckpointSink(smallCampaign(1)); err == nil {
		t.Error("sink without a directory accepted")
	}
}

// TestCampaignBackoffSpacesRetries: a faulty campaign with a backoff
// policy still converges to the clean result, and cancellation during a
// backoff sleep aborts the campaign promptly.
func TestCampaignBackoffSpacesRetries(t *testing.T) {
	clean, err := core.RunCampaign(smallCampaign(6))
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallCampaign(6)
	cfg.MaxAttempts = 3
	cfg.Faults = faultinject.New(21, faultinject.Config{
		Measure: faultinject.Rates{Error: 0.5, MaxFaults: 2},
	})
	cfg.Backoff = backoff.Policy{Base: time.Millisecond, Cap: 4 * time.Millisecond, Jitter: 0.5}
	ds, err := core.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	retried := 0
	for i := range ds.Obs {
		if ds.Obs[i].Status == core.StatusRetried {
			retried++
		}
		if ds.Obs[i].Cycles != clean.Obs[i].Cycles || ds.Obs[i].LayoutSeed != clean.Obs[i].LayoutSeed {
			t.Fatalf("observation %d differs from clean run under backoff", i)
		}
	}
	if retried == 0 {
		t.Error("fault injection at 50% never forced a retry")
	}

	// A canceled context interrupts the backoff sleep with the cause.
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(errors.New("operator stop"))
	cfg2 := smallCampaign(2)
	cfg2.Context = ctx
	cfg2.MaxAttempts = 3
	cfg2.Backoff = backoff.Policy{Base: time.Minute}
	cfg2.Faults = faultinject.New(3, faultinject.Config{
		Measure: faultinject.Rates{Error: 1, MaxFaults: 1},
	})
	start := time.Now()
	if _, err := core.RunCampaign(cfg2); err == nil {
		t.Fatal("canceled campaign succeeded")
	}
	if time.Since(start) > 10*time.Second {
		t.Error("cancellation did not interrupt the backoff sleep")
	}
}

// TestMeasureEnginesAndDeclines: a chunk of four is measured by one
// batched walk and by no scalar replay, bit-identical to each unit
// measured alone; a chunk of one replays on the scalar engine without a
// decline; and a FidelityPaperNaive chunk declines the walk, counted by
// reason, and replays every layout on the scalar engine.
func TestMeasureEnginesAndDeclines(t *testing.T) {
	for _, tc := range []struct {
		name          string
		fidelity      pmc.Fidelity
		group         int
		batch, scalar uint64
		fidelityDecl  uint64
	}{
		{"group of four", pmc.FidelityPaper, 4, 4, 0, 0},
		{"group of one", pmc.FidelityPaper, 1, 0, 1, 0},
		{"naive fidelity", pmc.FidelityPaperNaive, 2, 0, 2, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			measure := func(r *core.LayoutRunner, units []core.Unit) []core.Observation {
				t.Helper()
				out := make([]core.Observation, len(units))
				if err := r.Measure(0, units, 1, func(k int, o core.Observation, err error) {
					if err != nil {
						t.Fatalf("layout %d: %v", units[k].Layout, err)
					}
					out[k] = o
				}); err != nil {
					t.Fatal(err)
				}
				return out
			}
			o := &obs.Observer{Metrics: obs.NewMetrics()}
			cfg := smallCampaign(tc.group)
			cfg.Fidelity = tc.fidelity
			plain, err := core.NewLayoutRunner(cfg, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Obs = o
			r, err := core.NewLayoutRunner(cfg, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			units := make([]core.Unit, tc.group)
			for i := range units {
				units[i] = core.Unit{Layout: i}
			}
			got := measure(r, units)
			for i, u := range units {
				if want := measure(plain, []core.Unit{u})[0]; got[i] != want {
					t.Errorf("layout %d: in the chunk %+v, alone %+v", i, got[i], want)
				}
				if got[i].Attempts != 1 {
					t.Errorf("layout %d: Attempts %d, want 1", i, got[i].Attempts)
				}
			}
			counter := func(name string) uint64 { return o.Counter(name, "").Value() }
			if got := counter(`interferometry_engine_layouts_total{engine="batch"}`); got != tc.batch {
				t.Errorf("batched lanes %d, want %d", got, tc.batch)
			}
			if got := counter(`interferometry_engine_layouts_total{engine="scalar"}`); got != tc.scalar {
				t.Errorf("scalar replays %d, want %d", got, tc.scalar)
			}
			if got := counter(`interferometry_engine_declines_total{reason="fidelity"}`); got != tc.fidelityDecl {
				t.Errorf("fidelity declines %d, want %d", got, tc.fidelityDecl)
			}
		})
	}
}
