package core_test

import (
	"bytes"
	"fmt"
	"testing"

	"interferometry/internal/core"
	"interferometry/internal/faultinject"
	"interferometry/internal/heap"
	"interferometry/internal/machine"
	"interferometry/internal/obs"
	"interferometry/internal/pmc"
	"interferometry/internal/results"
)

// runPair runs the same campaign config twice — at BatchSize 1, the
// scalar-replay reference, and batched — and returns both datasets. mutate lets a
// caller attach per-run state (a fresh fault injector) to each config.
func runPair(t *testing.T, cfg core.CampaignConfig, batch int, mutate func(*core.CampaignConfig)) (seq, bat *core.Dataset) {
	t.Helper()
	scfg := cfg
	scfg.BatchSize = 1
	if mutate != nil {
		mutate(&scfg)
	}
	seq, err := core.RunCampaign(scfg)
	if err != nil {
		t.Fatalf("sequential campaign: %v", err)
	}
	bcfg := cfg
	bcfg.BatchSize = batch
	if mutate != nil {
		mutate(&bcfg)
	}
	bat, err = core.RunCampaign(bcfg)
	if err != nil {
		t.Fatalf("batched campaign: %v", err)
	}
	return seq, bat
}

// assertDatasetsIdentical compares two datasets observation by
// observation (exact struct equality, so every counter and cycle float
// must match bit for bit after Go's == on float64) and then through both
// canonical CSV exports byte for byte.
func assertDatasetsIdentical(t *testing.T, seq, bat *core.Dataset) {
	t.Helper()
	if len(seq.Obs) != len(bat.Obs) {
		t.Fatalf("observation counts differ: sequential %d, batched %d", len(seq.Obs), len(bat.Obs))
	}
	for i := range seq.Obs {
		if seq.Obs[i] != bat.Obs[i] {
			t.Fatalf("observation %d differs:\nsequential %+v\nbatched    %+v", i, seq.Obs[i], bat.Obs[i])
		}
	}
	if len(seq.Failures) != len(bat.Failures) {
		t.Fatalf("failure counts differ: sequential %d, batched %d", len(seq.Failures), len(bat.Failures))
	}
	for i := range seq.Failures {
		if seq.Failures[i] != bat.Failures[i] {
			t.Fatalf("failure %d differs:\nsequential %+v\nbatched    %+v", i, seq.Failures[i], bat.Failures[i])
		}
	}
	for _, export := range []struct {
		name  string
		write func(*bytes.Buffer, *core.Dataset) error
	}{
		{"measurements", func(b *bytes.Buffer, ds *core.Dataset) error { return results.WriteMeasurementsCSV(b, ds) }},
		{"dataset", func(b *bytes.Buffer, ds *core.Dataset) error { return results.WriteDatasetCSV(b, ds) }},
	} {
		var sb, bb bytes.Buffer
		if err := export.write(&sb, seq); err != nil {
			t.Fatalf("%s CSV (sequential): %v", export.name, err)
		}
		if err := export.write(&bb, bat); err != nil {
			t.Fatalf("%s CSV (batched): %v", export.name, err)
		}
		if !bytes.Equal(sb.Bytes(), bb.Bytes()) {
			t.Errorf("%s CSV differs between sequential and batched runs", export.name)
		}
	}
}

// TestBatchedCampaignIdenticalToSequential pins the acceptance
// criterion: a batched campaign's results are byte-identical to the
// sequential campaign's, across heap modes, fidelities and batch widths
// (including widths that do not divide the layout count).
func TestBatchedCampaignIdenticalToSequential(t *testing.T) {
	for _, tc := range []struct {
		name     string
		mode     heap.Mode
		fidelity pmc.Fidelity
		batch    int
	}{
		{"bump/fast/b4", heap.ModeBump, pmc.FidelityFast, 4},
		{"bump/paper/b2", heap.ModeBump, pmc.FidelityPaper, 2},
		{"rand/fast/b7", heap.ModeRandomized, pmc.FidelityFast, 7},
		{"rand/paper/b4", heap.ModeRandomized, pmc.FidelityPaper, 4},
		{"bump/fast/auto", heap.ModeBump, pmc.FidelityFast, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallCampaign(13)
			cfg.HeapMode = tc.mode
			cfg.Fidelity = tc.fidelity
			cfg.Workers = 2
			seq, bat := runPair(t, cfg, tc.batch, nil)
			assertDatasetsIdentical(t, seq, bat)
		})
	}
}

// TestBatchedCampaignWithFaultsIdentical runs the comparison under a
// deterministic fault storm — build errors, build panics, corrupted
// executables, measurement errors and corrupted measurements — with
// retries, a failure budget and the outlier screen all engaged. The
// injector's decisions are a pure function of (seed, site, layout seed,
// attempt), so the batched campaign must fail, retry and recover in
// exactly the same places as the sequential one.
func TestBatchedCampaignWithFaultsIdentical(t *testing.T) {
	seeds := []uint64{3, 17, 29, 101}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			cfg := smallCampaign(15)
			cfg.Workers = 2
			cfg.MaxAttempts = 3
			cfg.FailureBudget = 15
			cfg.OutlierMAD = 8
			mutate := func(c *core.CampaignConfig) {
				c.Faults = faultinject.New(seed, faultinject.Config{
					Build:   faultinject.Rates{Error: 0.15, Panic: 0.05, Corrupt: 0.1, MaxFaults: 2},
					Measure: faultinject.Rates{Error: 0.15, Corrupt: 0.1, MaxFaults: 2},
				})
			}
			seq, bat := runPair(t, cfg, 4, mutate)
			assertDatasetsIdentical(t, seq, bat)
		})
	}
}

// TestBatchedCampaignManySeeds is the campaign-level property sweep:
// across many base seeds, heap modes and batch widths, batched results
// must stay bit-identical to sequential ones. The machine-level
// property test (TestBatchMatchesSequential) covers the replay engine
// itself, including predictor overrides; this sweep covers everything
// the campaign layers on top — seed derivation, noise synthesis,
// retries, recording.
func TestBatchedCampaignManySeeds(t *testing.T) {
	trials := 12
	if testing.Short() {
		trials = 3
	}
	for trial := 0; trial < trials; trial++ {
		cfg := smallCampaign(9)
		cfg.BaseSeed = uint64(1000 + trial*7919)
		if trial%2 == 1 {
			cfg.HeapMode = heap.ModeRandomized
		}
		cfg.Workers = 1 + trial%3
		batch := []int{2, 3, 7, 9}[trial%4]
		seq, bat := runPair(t, cfg, batch, nil)
		assertDatasetsIdentical(t, seq, bat)
	}
}

// TestBatchedCampaignPaperNaiveStaysSequential: FidelityPaperNaive
// executes every protocol run, so a campaign at that fidelity runs
// chunks of one whatever its BatchSize, and a BatchSize-4 campaign is
// byte-identical to the BatchSize-1 reference.
func TestBatchedCampaignPaperNaiveStaysSequential(t *testing.T) {
	cfg := smallCampaign(6)
	cfg.Fidelity = pmc.FidelityPaperNaive
	cfg.RunsPerGroup = 2
	seq, bat := runPair(t, cfg, 4, nil)
	assertDatasetsIdentical(t, seq, bat)
}

// TestUnbatchableGeometryRunsSequentially: a machine the batch banks
// cannot hold (a 16-way L2) is refused once per campaign — one geometry
// decline, no batched lane — and the campaign runs chunks of one, which
// never walk, byte-identical to BatchSize 1.
func TestUnbatchableGeometryRunsSequentially(t *testing.T) {
	cfg := smallCampaign(6)
	cfg.Workers = 2
	cfg.Machine = machine.XeonE5440()
	cfg.Machine.L2.Ways = 16
	seq, bat := runPair(t, cfg, 0, func(c *core.CampaignConfig) {
		c.Obs = &obs.Observer{Metrics: obs.NewMetrics()}
	})
	assertDatasetsIdentical(t, seq, bat)
	counter := func(name string) uint64 { return bat.Config.Obs.Counter(name, "").Value() }
	if got := counter(`interferometry_engine_declines_total{reason="geometry"}`); got != 1 {
		t.Errorf("geometry declines %d, want 1 per campaign", got)
	}
	if got := counter(`interferometry_engine_layouts_total{engine="batch"}`); got != 0 {
		t.Errorf("batched lanes %d, want 0", got)
	}
	if got := counter(`interferometry_engine_layouts_total{engine="scalar"}`); got != 6 {
		t.Errorf("scalar replays %d, want 6", got)
	}
}
