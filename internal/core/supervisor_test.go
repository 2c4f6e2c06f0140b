package core_test

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"interferometry/internal/core"
	"interferometry/internal/faultinject"
	"interferometry/internal/uarch/branch"
)

// TestCampaignRetriesClearInjectedFaults is the headline fault-tolerance
// acceptance test: a 100-layout campaign with injected build and
// measurement faults — at a rate the retry budget can absorb — completes
// without error, and every retried observation is bit-identical to the
// clean run's, because retries re-derive the same seeds through the same
// deterministic pipeline.
func TestCampaignRetriesClearInjectedFaults(t *testing.T) {
	clean, err := core.RunCampaign(smallCampaign(100))
	if err != nil {
		t.Fatal(err)
	}

	cfg := smallCampaign(100)
	// Worst case per layout: a build fault on attempt 1, a measurement
	// fault on attempt 2, success on attempt 3 (MaxFaults bounds each
	// site's faults per layout at one).
	cfg.MaxAttempts = 3
	inj := faultinject.New(42, faultinject.Config{
		Build:   faultinject.Rates{Error: 0.15, Corrupt: 0.1},
		Measure: faultinject.Rates{Error: 0.15},
	})
	cfg.Faults = inj
	ds, err := core.RunCampaign(cfg)
	if err != nil {
		t.Fatalf("campaign did not absorb injected faults: %v", err)
	}
	if inj.Injected() == 0 {
		t.Fatal("injector fired no faults — the test exercised nothing")
	}
	if len(ds.Failures) != 0 || ds.EffectiveN() != 100 {
		t.Fatalf("faults within the retry budget degraded the dataset: %d failures, effective %d",
			len(ds.Failures), ds.EffectiveN())
	}
	retried := 0
	for i := range ds.Obs {
		if ds.Obs[i].Measurement != clean.Obs[i].Measurement {
			t.Fatalf("layout %d: retried measurement differs from clean run", i)
		}
		if ds.Obs[i].LayoutSeed != clean.Obs[i].LayoutSeed || ds.Obs[i].HeapSeed != clean.Obs[i].HeapSeed {
			t.Fatalf("layout %d: seeds differ from clean run", i)
		}
		if ds.Obs[i].Status == core.StatusRetried {
			retried++
			if ds.Obs[i].Attempts < 2 {
				t.Errorf("layout %d marked retried after %d attempts", i, ds.Obs[i].Attempts)
			}
		}
	}
	if retried == 0 {
		t.Error("no observation was marked retried despite injected faults")
	}
}

// TestCampaignSurvivesWorkerPanic: an injected panic in a worker surfaces
// as an error instead of killing the process.
func TestCampaignSurvivesWorkerPanic(t *testing.T) {
	cfg := smallCampaign(6)
	cfg.MaxAttempts = 1
	cfg.Faults = faultinject.New(1, faultinject.Config{
		Build: faultinject.Rates{Panic: 1},
	})
	ds, err := core.RunCampaign(cfg)
	if err == nil {
		t.Fatal("campaign with panicking builds reported success")
	}
	if ds != nil {
		t.Error("aborted campaign returned a dataset")
	}
	var pe *core.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v does not expose the recovered *PanicError", err)
	}
}

// TestCampaignRetriesAcrossPanic: a recovered panic costs one attempt,
// like any other failure. With one injected build panic per layout and
// a retry to spare, every layout comes back retried and bit-identical
// to the clean run, at chunk width 1 and at the automatic width.
func TestCampaignRetriesAcrossPanic(t *testing.T) {
	clean, err := core.RunCampaign(smallCampaign(6))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		batch int
	}{{"scalar", 1}, {"auto", 0}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallCampaign(6)
			cfg.Workers = 2
			cfg.BatchSize = tc.batch
			cfg.MaxAttempts = 2
			cfg.Faults = faultinject.New(5, faultinject.Config{
				Build: faultinject.Rates{Panic: 1, MaxFaults: 1},
			})
			ds, err := core.RunCampaign(cfg)
			if err != nil {
				t.Fatalf("campaign did not retry across the injected panics: %v", err)
			}
			for i, o := range ds.Obs {
				if o.Status != core.StatusRetried || o.Attempts != 2 {
					t.Errorf("layout %d: status %v after %d attempts, want retried after 2", i, o.Status, o.Attempts)
				}
				if o.Measurement != clean.Obs[i].Measurement || o.LayoutSeed != clean.Obs[i].LayoutSeed || o.HeapSeed != clean.Obs[i].HeapSeed {
					t.Errorf("layout %d differs from the clean run", i)
				}
			}
		})
	}
}

// TestCampaignDegradesWithinBudget: permanent failures within the failure
// budget mark their layouts StatusFailed; every consumer then works on
// the effective sample, and the surviving observations are bit-identical
// to an undisturbed campaign's.
func TestCampaignDegradesWithinBudget(t *testing.T) {
	clean, err := core.RunCampaign(smallCampaign(30))
	if err != nil {
		t.Fatal(err)
	}

	cfg := smallCampaign(30)
	cfg.MaxAttempts = 1 // no retries: every injected fault is permanent
	cfg.FailureBudget = 30
	inj := faultinject.New(11, faultinject.Config{
		Measure: faultinject.Rates{Error: 0.2, Panic: 0.1},
	})
	cfg.Faults = inj
	ds, err := core.RunCampaign(cfg)
	if err != nil {
		t.Fatalf("campaign within failure budget aborted: %v", err)
	}
	if len(ds.Failures) == 0 {
		t.Fatal("no layout failed — the test exercised nothing")
	}
	failedIdx := map[int]bool{}
	for _, f := range ds.Failures {
		failedIdx[f.Index] = true
		if !strings.Contains(f.Err, "inject") && !strings.Contains(f.Err, "panic") {
			t.Errorf("failure %d does not name the injected cause: %s", f.Index, f.Err)
		}
	}
	if got := ds.EffectiveN(); got != 30-len(ds.Failures) {
		t.Fatalf("EffectiveN = %d with %d failures in 30", got, len(ds.Failures))
	}
	for i := range ds.Obs {
		if failedIdx[i] {
			if ds.Obs[i].Status != core.StatusFailed || ds.Obs[i].Cycles != 0 {
				t.Fatalf("failed layout %d: status %v, cycles %d", i, ds.Obs[i].Status, ds.Obs[i].Cycles)
			}
			continue
		}
		if ds.Obs[i].Measurement != clean.Obs[i].Measurement {
			t.Fatalf("surviving layout %d differs from clean run", i)
		}
	}
	if n := len(ds.CPIs()); n != ds.EffectiveN() {
		t.Fatalf("CPIs() returned %d values for effective sample %d", n, ds.EffectiveN())
	}
	model, err := ds.MPKIModel()
	if err != nil {
		t.Fatal(err)
	}
	if model.Fit.N != ds.EffectiveN() {
		t.Errorf("model fitted on %d points, effective sample is %d", model.Fit.N, ds.EffectiveN())
	}

	// Downstream sweeps run over the effective sample only: failed layouts
	// are skipped, not fabricated.
	evals, err := ds.EvaluatePredictors(model, []branch.Factory{
		{Name: "bimodal-64", New: func() branch.Predictor { return branch.NewBimodal(64) }},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(evals[0].MPKIPerLayout); got != ds.EffectiveN() {
		t.Fatalf("MPKIPerLayout has %d entries, effective sample is %d", got, ds.EffectiveN())
	}
	for k, v := range evals[0].MPKIPerLayout {
		if math.IsNaN(v) {
			t.Fatalf("MPKIPerLayout[%d] is NaN with no eval-sweep failures", k)
		}
	}
}

// TestCampaignAbortsOverBudget: once more layouts fail than the budget
// allows, the campaign aborts with an error identifying both the abort
// and the injected cause.
func TestCampaignAbortsOverBudget(t *testing.T) {
	cfg := smallCampaign(10)
	cfg.MaxAttempts = 1
	cfg.FailureBudget = 2
	cfg.Faults = faultinject.New(2, faultinject.Config{
		Measure: faultinject.Rates{Error: 1, MaxFaults: 10},
	})
	_, err := core.RunCampaign(cfg)
	if !errors.Is(err, core.ErrSweepAborted) {
		t.Fatalf("error %v does not wrap ErrSweepAborted", err)
	}
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("error %v does not name the injected cause", err)
	}
}

// TestOutlierScreenRepairsCorruptMeasurements: a corrupted measurement is
// internally consistent (it passes Measurement.Check), so only the MAD
// screen can catch it. With the screen on, the corrupted observations are
// re-measured and the final dataset is bit-identical to the clean run.
func TestOutlierScreenRepairsCorruptMeasurements(t *testing.T) {
	clean, err := core.RunCampaign(smallCampaign(40))
	if err != nil {
		t.Fatal(err)
	}

	cfg := smallCampaign(40)
	cfg.MaxAttempts = 1
	cfg.OutlierMAD = 10
	inj := faultinject.New(8, faultinject.Config{
		Measure: faultinject.Rates{Corrupt: 0.1},
	})
	cfg.Faults = inj
	ds, err := core.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := inj.Counts(faultinject.SiteMeasure)[faultinject.KindCorrupt]
	if corrupted == 0 {
		t.Fatal("no measurement was corrupted — the test exercised nothing")
	}
	repaired := 0
	for i := range ds.Obs {
		if ds.Obs[i].Measurement != clean.Obs[i].Measurement {
			t.Fatalf("layout %d still corrupted after the outlier screen (CPI %.3f vs %.3f)",
				i, ds.Obs[i].CPI(), clean.Obs[i].CPI())
		}
		if ds.Obs[i].Status == core.StatusRetried {
			repaired++
		}
	}
	if repaired != corrupted {
		t.Errorf("%d observations marked retried, %d were corrupted", repaired, corrupted)
	}
}

// TestOutlierScreenKeepsGenuineOutliers: with no corruption, the screen
// re-measures anything it flags, gets the identical result back, and
// changes nothing — a heavy-tailed layout is data, not an artifact.
func TestOutlierScreenKeepsGenuineOutliers(t *testing.T) {
	base, err := core.RunCampaign(smallCampaign(40))
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallCampaign(40)
	cfg.OutlierMAD = 1 // aggressive: flags ordinary spread
	screened, err := core.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range screened.Obs {
		if screened.Obs[i] != base.Obs[i] {
			t.Fatalf("screen with no corruption changed observation %d", i)
		}
	}
}

// TestCampaignContextCancel: a canceled config context aborts the
// campaign with the cancellation as cause.
func TestCampaignContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := smallCampaign(10)
	cfg.Context = ctx
	_, err := core.RunCampaign(cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled campaign returned %v", err)
	}
}
