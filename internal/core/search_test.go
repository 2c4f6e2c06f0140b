package core

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"interferometry/internal/pmc"
	"interferometry/internal/progen"
	"interferometry/internal/stats"
	"interferometry/internal/testprog"
	"interferometry/internal/toolchain"
)

// searchTestConfig is the shared small search every determinism test
// runs: big enough to exercise batching, elitism and tournament
// breeding, small enough to settle in milliseconds.
func searchTestConfig() SearchConfig {
	return SearchConfig{
		Campaign: CampaignConfig{
			Program:   testprog.ManyBranches(60, 300),
			InputSeed: 1,
			Budget:    60000,
			BaseSeed:  42,
		},
		Population:  8,
		Generations: 4,
	}
}

// trajectoryOf summarizes a search result for byte-for-byte comparison:
// the trajectory hash, every generation hash, and the best genome's
// canonical encoding.
func trajectoryOf(t *testing.T, res *SearchResult) string {
	t.Helper()
	out := res.TrajectoryHash + "\n"
	for _, g := range res.Generations {
		out += g.PopHash + "\n"
	}
	return out + string(toolchain.EncodeGenome(res.Best.Genome))
}

// TestSearchSmoke is the short-mode search smoke test: a small seeded
// search must settle every generation, produce a valid best individual
// and a stable trajectory hash.
func TestSearchSmoke(t *testing.T) {
	res, err := RunSearch(searchTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Generations) != 4 {
		t.Fatalf("settled %d generations, want 4", len(res.Generations))
	}
	if !res.Best.valid() {
		t.Fatal("best individual is not valid")
	}
	if res.TrajectoryHash == "" || len(res.TrajectoryHash) != 64 {
		t.Fatalf("malformed trajectory hash %q", res.TrajectoryHash)
	}
	for _, g := range res.Generations {
		if len(g.Individuals) != 8 {
			t.Fatalf("generation %d has %d individuals, want 8", g.Gen, len(g.Individuals))
		}
		if err := g.Best().Genome.Validate(toolchain.NewBuilder(res.Config.Campaign.Program, res.Config.Campaign.Compile, res.Config.Campaign.Link).Units()); err != nil {
			t.Fatalf("generation %d best genome invalid: %v", g.Gen, err)
		}
	}
}

// TestSearchTrajectoryDeterminism pins the tentpole guarantee: the same
// spec and seed walk a byte-identical trajectory — per-generation
// population hashes and the final best layout — whatever the worker
// count and whether replay is batched or sequential.
func TestSearchTrajectoryDeterminism(t *testing.T) {
	base := searchTestConfig()
	var want string
	for _, tc := range []struct {
		name     string
		workers  int
		batch    int
		fidelity pmc.Fidelity
	}{
		{name: "1-worker-batched", workers: 1},
		{name: "4-worker-batched", workers: 4},
		{name: "1-worker-sequential", workers: 1, batch: 1},
		{name: "4-worker-sequential", workers: 4, batch: 1},
		{name: "paper-naive", workers: 2, fidelity: pmc.FidelityPaperNaive},
	} {
		cfg := base
		cfg.Campaign.Workers = tc.workers
		cfg.Campaign.BatchSize = tc.batch
		cfg.Campaign.Fidelity = tc.fidelity
		res, err := RunSearch(cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := trajectoryOf(t, res)
		if tc.fidelity == pmc.FidelityPaperNaive {
			// Different fidelity measures differently; it only needs to
			// be self-consistent, which the next loop iteration of the
			// same config would show. Skip the cross-comparison.
			continue
		}
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Errorf("%s: trajectory diverged from 1-worker-batched", tc.name)
		}
	}
}

// TestSearchTieBreakPinned mutation-verifies the determinism pin: the
// selection order is a package variable precisely so this test can
// flip its fingerprint tie-break and watch the trajectory move. If
// flipping the tie-break changes nothing, the pin has rotted into dead
// code and the determinism suite is vacuous.
func TestSearchTieBreakPinned(t *testing.T) {
	cfg := searchTestConfig()
	// Equal-CPI ties need to actually occur for the tie-break to
	// matter: a tiny budget and population make collisions likely, but
	// the flip below also reverses the valid-CPI ordering, which any
	// population with two distinct CPIs exercises.
	clean, err := RunSearch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	orig := searchBetter
	defer func() { searchBetter = orig }()
	searchBetter = func(a, b *Individual) bool {
		av, bv := a.valid(), b.valid()
		if av != bv {
			return av
		}
		if av {
			ac, bc := a.Obs.CPI(), b.Obs.CPI()
			if ac != bc {
				return ac > bc // flipped: prefer WORSE CPI
			}
		}
		return a.Genome.Fingerprint() > b.Genome.Fingerprint() // flipped
	}
	flipped, err := RunSearch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if clean.TrajectoryHash == flipped.TrajectoryHash {
		t.Fatal("flipping the selection order did not change the trajectory — the determinism pin is vacuous")
	}
}

// TestSearchDegradedIndividualCannotWin is the regression test for the
// selection-fitness bug: the campaign-wide MAD screen assumes i.i.d.
// layouts, and naively reusing it per-genome let a degraded individual
// (failed observation with leftover counters) outrank real ones. A
// failed individual must lose selection to every valid one regardless
// of its counters, and breeding must draw only from valid parents.
func TestSearchDegradedIndividualCannotWin(t *testing.T) {
	cfg := searchTestConfig()
	s, err := NewSearch(cfg, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	genomes, err := s.Genomes(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	observations, err := s.Evaluate(nil, genomes)
	if err != nil {
		t.Fatal(err)
	}
	// Degrade every individual but index 3 to StatusFailed — with
	// fabricated counters that would give them the best CPI in the
	// population if status were ignored.
	for i := range observations {
		if i == 3 {
			continue
		}
		observations[i].Status = StatusFailed
		observations[i].Cycles = 1
		observations[i].Instructions = 1000000
	}
	res, err := s.Settle(0, genomes, observations)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestIdx != 3 {
		t.Fatalf("degraded individual won selection: best index %d, want 3", res.BestIdx)
	}
	// Breeding must only ever draw the single valid parent: every elite
	// is its clone and every child is a self-crossover of it.
	next, err := s.Genomes(1, &res)
	if err != nil {
		t.Fatal(err)
	}
	if fp := next[0].Fingerprint(); fp != genomes[3].Fingerprint() {
		t.Errorf("elite 0 fingerprint %016x is not the sole valid parent %016x", fp, genomes[3].Fingerprint())
	}
}

// TestSearchScreenRepairsInvalidMeasurement: the per-generation screen
// re-measures an invalid (garbage-counter) observation back to the
// clean deterministic value, marked retried — and an individual whose
// re-measurement cannot be valid is degraded to StatusFailed rather
// than entering selection with garbage counters.
func TestSearchScreenRepairsInvalidMeasurement(t *testing.T) {
	cfg := searchTestConfig()
	s, err := NewSearch(cfg, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	genomes, err := s.Genomes(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	observations, err := s.Evaluate(nil, genomes)
	if err != nil {
		t.Fatal(err)
	}
	want := observations[2].Measurement
	observations[2].Measurement = pmc.Measurement{Cycles: 999} // invalid: zero instructions
	res, err := s.Settle(0, genomes, observations)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Individuals[2].Obs
	if got.Status != StatusRetried {
		t.Fatalf("repaired individual has status %v, want StatusRetried", got.Status)
	}
	if got.Measurement != want {
		t.Fatal("re-measurement did not restore the clean counters")
	}
}

// TestSearchResumeByteIdentical: a search killed after a settled
// generation and resumed on the same checkpoint directory walks the
// identical remaining trajectory — same generation hashes, same best
// layout, same trajectory hash.
func TestSearchResumeByteIdentical(t *testing.T) {
	cfg := searchTestConfig()
	cfg.Campaign.Checkpoint = CheckpointConfig{Dir: t.TempDir()}
	clean, err := RunSearch(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Simulate a kill after generation 1: keep the header and the first
	// two generation records.
	src := filepath.Join(cfg.Campaign.Checkpoint.Dir, SearchCheckpointFile)
	f, err := os.Open(src)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	f.Close()
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 1+4 {
		t.Fatalf("checkpoint has %d lines, want header + 4 generations", len(lines))
	}
	dir2 := t.TempDir()
	trunc := lines[0] + "\n" + lines[1] + "\n" + lines[2] + "\n"
	if err := os.WriteFile(filepath.Join(dir2, SearchCheckpointFile), []byte(trunc), 0o644); err != nil {
		t.Fatal(err)
	}

	cfg2 := searchTestConfig()
	cfg2.Campaign.Checkpoint = CheckpointConfig{Dir: dir2, Resume: true}
	resumed, err := RunSearch(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := trajectoryOf(t, resumed), trajectoryOf(t, clean); got != want {
		t.Fatal("resumed search diverged from the uninterrupted one")
	}
}

// TestSearchResumeFromTornCheckpoint: a search killed mid-append leaves
// its last generation record torn. The resume drops it, walks the
// uninterrupted trajectory from the settled prefix, and its appends
// leave the same file bytes as the uninterrupted run.
func TestSearchResumeFromTornCheckpoint(t *testing.T) {
	cfg := searchTestConfig()
	cfg.Campaign.Checkpoint = CheckpointConfig{Dir: t.TempDir()}
	clean, err := RunSearch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cleanFile, err := os.ReadFile(filepath.Join(cfg.Campaign.Checkpoint.Dir, SearchCheckpointFile))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(cleanFile, []byte("\n"))
	if len(lines) != 1+4+1 { // header, 4 generations, the empty rest
		t.Fatalf("checkpoint has %d lines, want header + 4 generations", len(lines)-1)
	}
	dir2 := t.TempDir()
	path := filepath.Join(dir2, SearchCheckpointFile)
	torn := bytes.Join([][]byte{lines[0], lines[1], lines[2], lines[3][:len(lines[3])/2]}, nil)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	cfg2 := searchTestConfig()
	cfg2.Campaign.Checkpoint = CheckpointConfig{Dir: dir2, Resume: true}
	resumed, err := RunSearch(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := trajectoryOf(t, resumed), trajectoryOf(t, clean); got != want {
		t.Fatal("resumed search diverged from the uninterrupted one")
	}
	resumedFile, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resumedFile, cleanFile) {
		t.Fatal("resumed generation checkpoint differs from the uninterrupted run's")
	}
}

// TestSearchCheckpointRefusesCorruption: a generation record whose
// content does not recompute to its recorded population hash must
// refuse to resume.
func TestSearchCheckpointRefusesCorruption(t *testing.T) {
	cfg := searchTestConfig()
	cfg.Generations = 2
	cfg.Campaign.Checkpoint = CheckpointConfig{Dir: t.TempDir()}
	if _, err := RunSearch(cfg); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(cfg.Campaign.Checkpoint.Dir, SearchCheckpointFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tampered := []byte(string(data))
	// Flip a digit inside the first pop_hash occurrence.
	idx := -1
	for i := 0; i+10 < len(tampered); i++ {
		if string(tampered[i:i+10]) == `"pop_hash"` {
			idx = i + 12
			break
		}
	}
	if idx < 0 {
		t.Fatal("no pop_hash in checkpoint")
	}
	if tampered[idx] == 'a' {
		tampered[idx] = 'b'
	} else {
		tampered[idx] = 'a'
	}
	if err := os.WriteFile(path, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg2 := searchTestConfig()
	cfg2.Generations = 2
	cfg2.Campaign.Checkpoint = CheckpointConfig{Dir: cfg.Campaign.Checkpoint.Dir, Resume: true}
	if _, err := RunSearch(cfg2); err == nil {
		t.Fatal("corrupted checkpoint resumed without error")
	}
}

// TestSearchBeatsRandomSampling is the acceptance gate: a seeded search
// over 400.perlbench must find a layout whose CPI beats the median of
// an equal-budget random sample drawn under a held-out seed, and the
// margin is reported with a bootstrap confidence interval on the
// sampling median.
func TestSearchBeatsRandomSampling(t *testing.T) {
	if testing.Short() {
		t.Skip("full perlbench search in -short mode")
	}
	spec, ok := progen.ByName("400.perlbench")
	if !ok {
		t.Fatal("400.perlbench spec missing")
	}
	prog, err := progen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := SearchConfig{
		Campaign: CampaignConfig{
			Program:   prog,
			InputSeed: 3,
			Budget:    150000,
			BaseSeed:  2026,
		},
		Population:  10,
		Generations: 6,
	}
	res, err := RunSearch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	best := res.Best.Obs.CPI()

	// The baseline samples under a held-out seed: same budget in
	// measurements (population x generations layouts), disjoint seed
	// streams.
	base := cfg.Campaign
	base.BaseSeed = HeldOutSeed(cfg.Campaign.BaseSeed)
	cpis, err := SampleLayoutCPIs(base, cfg.Population*cfg.Generations)
	if err != nil {
		t.Fatal(err)
	}
	med := stats.Median(cpis)
	ci, err := stats.BootstrapQuantileCI(cpis, 0.5, 1000, base.BaseSeed, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("search best CPI %.6f vs sampling median %.6f (95%% CI [%.6f, %.6f], n=%d)",
		best, med, ci.Low, ci.High, len(cpis))
	if best >= med {
		t.Errorf("search best CPI %.6f does not beat the random-sampling median %.6f", best, med)
	}
	if best >= ci.Low {
		t.Logf("note: search best %.6f is inside the sampling median CI — margin is not significant at this budget", best)
	}
}

// BenchmarkSearch measures search throughput in generations per second
// for the perf log.
func BenchmarkSearch(b *testing.B) {
	cfg := searchTestConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := RunSearch(cfg)
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
	b.ReportMetric(float64(b.N*cfg.Generations)/b.Elapsed().Seconds(), "generations/s")
}
