package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"sort"

	"interferometry/internal/interp"
	"interferometry/internal/obs"
	"interferometry/internal/stats"
	"interferometry/internal/toolchain"
	"interferometry/internal/xrand"
)

// Layout search (§6.3 turned inside out): instead of sampling random
// layouts to measure how much layout matters, a search campaign
// optimizes over the layout space — a seeded evolutionary loop breeding
// procedure orders and link orders toward low CPI. The search is an
// ordinary campaign underneath: every individual goes through the same
// build and measure seams, the same batched replay, the same retry and
// outlier machinery, so a search result carries exactly the provenance
// a sampling campaign's does. Everything is keyed off BaseSeed; the
// same spec and seed reproduce the same trajectory byte for byte,
// whatever the worker count, batching, or scheduler.

// SearchConfig describes one layout-search campaign. The embedded
// CampaignConfig supplies the benchmark, machine, fidelity, seeds,
// retries, workers and checkpointing; Layouts is ignored (the
// population is the per-generation layout count).
type SearchConfig struct {
	Campaign CampaignConfig

	// Population is the number of individuals per generation. Zero
	// means 16.
	Population int
	// Generations is the number of generations to run. Zero means 8.
	Generations int
	// Elite is how many of the best individuals survive unchanged into
	// the next generation. Zero means 2.
	Elite int
	// TournamentK is the tournament size for parent selection. Zero
	// means 3.
	TournamentK int
}

func (c *SearchConfig) population() int {
	if c.Population <= 0 {
		return 16
	}
	return c.Population
}

func (c *SearchConfig) generations() int {
	if c.Generations <= 0 {
		return 8
	}
	return c.Generations
}

func (c *SearchConfig) elite() int {
	if c.Elite <= 0 {
		return 2
	}
	return c.Elite
}

func (c *SearchConfig) tournamentK() int {
	if c.TournamentK <= 0 {
		return 3
	}
	return c.TournamentK
}

// Resolved returns the config with the search defaults filled in, so
// callers hashing or validating the search shape see effective values
// rather than spellings of them.
func (c SearchConfig) Resolved() SearchConfig {
	c.Population = c.population()
	c.Generations = c.generations()
	c.Elite = c.elite()
	c.TournamentK = c.tournamentK()
	return c
}

// Search seed tags: generation-zero genomes and the per-generation
// evolution stream.
const (
	tagGenZero uint64 = 0x67656e30 // "gen0"
	tagEvolve  uint64 = 0x65766f6c // "evol"
)

// genomeSeed derives the seed of the i-th generation-zero genome.
func (c *SearchConfig) genomeSeed(i int) uint64 {
	return xrand.Mix(c.Campaign.BaseSeed, tagGenZero, uint64(i)) | 1
}

// evolveRand returns the evolution stream of one generation: selection,
// crossover and mutation draw from it in a fixed order, so the bred
// population depends only on (BaseSeed, gen, parent population).
func (c *SearchConfig) evolveRand(gen int) *xrand.Rand {
	return xrand.New(xrand.Mix(c.Campaign.BaseSeed, tagEvolve, uint64(gen)))
}

// Individual is one measured genome of a generation.
type Individual struct {
	Genome toolchain.Genome
	Obs    Observation
}

// valid reports whether the individual's measurement can compete in
// selection: failed or garbage-counter observations never breed.
func (in *Individual) valid() bool {
	return in.Obs.Status != StatusFailed && measurementValid(in.Obs.Measurement)
}

// searchBetter is the total order selection uses: valid individuals
// before invalid, then ascending CPI, then ascending fingerprint so
// equal-CPI individuals rank identically on every worker topology. It
// is a package variable, not an inline closure, so the determinism
// suite can flip the tie-break and watch the trajectory change
// (mutation-verification of the pin).
var searchBetter = func(a, b *Individual) bool {
	av, bv := a.valid(), b.valid()
	if av != bv {
		return av
	}
	if av {
		ac, bc := a.Obs.CPI(), b.Obs.CPI()
		if ac != bc {
			return ac < bc
		}
	}
	return a.Genome.Fingerprint() < b.Genome.Fingerprint()
}

// GenerationResult is one settled generation.
type GenerationResult struct {
	Gen         int
	Individuals []Individual
	// BestIdx is the index of the generation's best individual under
	// the selection order.
	BestIdx int
	// PopHash is the SHA-256 of the settled population: every
	// individual's genome encoding and measurement counters, in
	// population order. Status and attempt counts are excluded, so a
	// retried individual hashes identically to a first-attempt success
	// and the hash pins results, not schedules.
	PopHash string
}

// Best returns the generation's best individual.
func (g *GenerationResult) Best() Individual {
	return g.Individuals[g.BestIdx]
}

// SearchResult is the outcome of a search campaign.
type SearchResult struct {
	Benchmark   string
	Config      SearchConfig
	Generations []GenerationResult
	// Best is the best individual across all generations; BestGen is
	// the generation that produced it.
	Best    Individual
	BestGen int
	// TrajectoryHash is the SHA-256 over the per-generation population
	// hashes: two searches with equal trajectory hashes walked the
	// identical sequence of populations and measurements.
	TrajectoryHash string
}

// Search runs a layout-search campaign generation by generation. It is
// driven either by RunSearch (in-process) or by a scheduler that farms
// each generation's individuals out to workers and hands the settled
// observations back to Settle.
type Search struct {
	cfg    SearchConfig
	runner *LayoutRunner
	units  []toolchain.Unit
	so     *searchObs
}

// searchObs holds the search-level instruments.
type searchObs struct {
	generations *obs.Counter
	bestCPI     *obs.Gauge
}

func newSearchObs(o *obs.Observer) *searchObs {
	if o == nil {
		return nil
	}
	return &searchObs{
		generations: o.Counter("interferometry_search_generations_total", "search generations settled"),
		bestCPI:     o.Gauge("interferometry_search_best_cpi", "best CPI found so far by the layout search"),
	}
}

// NewSearch validates the config and prepares the shared trace, seams
// and per-worker harnesses (workers <= 0 means 1). The embedded
// campaign's Layouts is overridden with the population size. trace is
// handed to NewLayoutRunner: the embedded campaign's trace, or nil to
// interpret it.
func NewSearch(cfg SearchConfig, workers int, trace *interp.Trace) (*Search, error) {
	if cfg.Population < 0 || cfg.Generations < 0 {
		return nil, errors.New("core: search population and generations must be non-negative")
	}
	if cfg.elite() >= cfg.population() {
		return nil, fmt.Errorf("core: elite %d must be smaller than population %d", cfg.elite(), cfg.population())
	}
	cfg.Campaign.Layouts = cfg.population()
	cfg.Campaign.FirstLayout = 0
	runner, err := NewLayoutRunner(cfg.Campaign, workers, trace)
	if err != nil {
		return nil, err
	}
	units := toolchain.NewBuilder(cfg.Campaign.Program, cfg.Campaign.Compile, cfg.Campaign.Link).Units()
	return &Search{
		cfg:    cfg,
		runner: runner,
		units:  units,
		so:     newSearchObs(cfg.Campaign.Obs),
	}, nil
}

// Config returns the search configuration with defaults resolved into
// the embedded campaign (Layouts = population).
func (s *Search) Config() SearchConfig { return s.cfg }

// Generations returns the configured generation count.
func (s *Search) Generations() int { return s.cfg.generations() }

// Population returns the configured population size.
func (s *Search) Population() int { return s.cfg.population() }

// Runner exposes the per-genome pipeline for external schedulers.
func (s *Search) Runner() *LayoutRunner { return s.runner }

// Genomes derives generation gen's population. Generation zero is
// seeded directly from the base seed; later generations breed from the
// previous settled generation: the elite individuals survive unchanged
// and the rest are tournament-selected crossovers with mutation. Only
// valid individuals compete — a failed or degraded individual can
// neither survive as an elite nor be drawn as a parent.
func (s *Search) Genomes(gen int, prev *GenerationResult) ([]toolchain.Genome, error) {
	pop := s.cfg.population()
	out := make([]toolchain.Genome, 0, pop)
	if gen == 0 {
		for i := 0; i < pop; i++ {
			out = append(out, toolchain.GenomeOf(s.units, s.cfg.genomeSeed(i)))
		}
		return out, nil
	}
	if prev == nil {
		return nil, fmt.Errorf("core: generation %d needs the settled generation %d", gen, gen-1)
	}
	// Rank the parents; the valid prefix is the breeding pool.
	ranked := make([]*Individual, len(prev.Individuals))
	for i := range prev.Individuals {
		ranked[i] = &prev.Individuals[i]
	}
	sort.SliceStable(ranked, func(a, b int) bool { return searchBetter(ranked[a], ranked[b]) })
	nValid := 0
	for _, in := range ranked {
		if !in.valid() {
			break
		}
		nValid++
	}
	if nValid == 0 {
		return nil, fmt.Errorf("core: generation %d has no valid parent", gen-1)
	}
	rng := s.cfg.evolveRand(gen)
	pick := func() toolchain.Genome {
		best := nValid
		for k := 0; k < s.cfg.tournamentK(); k++ {
			if c := rng.Intn(nValid); c < best {
				best = c
			}
		}
		return ranked[best].Genome
	}
	for e := 0; e < s.cfg.elite() && e < nValid; e++ {
		out = append(out, ranked[e].Genome.Clone())
	}
	for len(out) < pop {
		child := toolchain.CrossoverGenomes(pick(), pick(), rng)
		out = append(out, toolchain.MutateGenome(child, rng))
	}
	return out, nil
}

// Evaluate measures one generation's population in-process: chunked
// across the runner's workers, each chunk through LayoutRunner.Measure
// with the campaign's retry budget per genome. Failures never abort the
// generation — an individual that exhausts its attempts becomes a
// StatusFailed observation and loses selection. The only errors are
// cancellation and a released runner.
func (s *Search) Evaluate(ctx context.Context, genomes []toolchain.Genome) ([]Observation, error) {
	if ctx == nil {
		ctx = s.cfg.Campaign.context()
	}
	r := s.runner
	if err := r.acquire(0); err != nil {
		return nil, err
	}
	defer r.mu.RUnlock()
	units := make([]Unit, len(genomes))
	for i := range genomes {
		units[i] = Unit{Genome: &genomes[i]}
	}
	out := make([]Observation, len(units))
	attempts := r.cfg.maxAttempts()
	_, err := superviseChunksT(ctx, r.workers, len(units), r.cfg.batchSize(r.workers), 0, newSupTel(r.cfg.Obs), func(w, lo, hi int, _ func(int, error), _ func() bool) {
		chunk := units[lo:hi]
		r.measure(ctx, w, chunk, attempts, func(k int, o Observation, err error) {
			if err != nil {
				o = r.FailedObservation(chunk[k], attempts)
			}
			out[lo+k] = o
		})
	})
	if err != nil && ctx.Err() != nil {
		return nil, fmt.Errorf("core: search evaluation canceled: %w", context.Cause(ctx))
	}
	return out, err
}

// Settle turns one generation's raw observations into a settled
// GenerationResult: the per-generation outlier screen re-measures
// flagged individuals, invalid-but-unfailed measurements are degraded
// to StatusFailed so garbage counters can never win selection (the
// i.i.d. assumption behind the campaign-wide screen does not hold
// within a converging population, so the screen here flags only
// invalid counter reads, never slow-but-real CPIs), the best
// individual is ranked, and the population hash is computed. An error
// means the generation produced no valid individual.
func (s *Search) Settle(gen int, genomes []toolchain.Genome, observations []Observation) (GenerationResult, error) {
	if len(genomes) != len(observations) {
		return GenerationResult{}, fmt.Errorf("core: %d genomes with %d observations", len(genomes), len(observations))
	}
	inds := make([]Individual, len(genomes))
	for i := range genomes {
		inds[i] = Individual{Genome: genomes[i], Obs: observations[i]}
	}
	if err := s.screenGeneration(inds); err != nil {
		return GenerationResult{}, err
	}
	best := -1
	for i := range inds {
		if !inds[i].valid() {
			continue
		}
		if best < 0 || searchBetter(&inds[i], &inds[best]) {
			best = i
		}
	}
	if best < 0 {
		return GenerationResult{}, fmt.Errorf("core: search generation %d: no valid individual", gen)
	}
	res := GenerationResult{
		Gen:         gen,
		Individuals: inds,
		BestIdx:     best,
		PopHash:     populationHash(inds),
	}
	if s.so != nil {
		s.so.generations.Inc()
	}
	return res, nil
}

// screenGeneration is the search-side counterpart of screenOutliers,
// adapted for a non-i.i.d. population: individuals of a converging
// generation legitimately cluster, so CPI distance from the median is
// evidence of a corrupt counter read only when the measurement is
// already invalid. Invalid unfailed measurements are re-measured once
// on slot 0; a re-measurement that comes back valid replaces the
// observation (StatusRetried, attempts accumulated), anything else is
// degraded to StatusFailed. Failed individuals are left alone. A
// re-measurement is never canceled: its outcome settles a generation
// that is then checkpointed, so a stopped one would degrade its
// individual for good. The only error is a released runner.
func (s *Search) screenGeneration(inds []Individual) error {
	r := s.runner
	if err := r.acquire(0); err != nil {
		return err
	}
	defer r.mu.RUnlock()
	for i := range inds {
		in := &inds[i]
		if in.Obs.Status == StatusFailed || measurementValid(in.Obs.Measurement) {
			continue
		}
		prev := in.Obs
		u := Unit{Genome: &in.Genome}
		r.measure(context.WithoutCancel(r.cfg.context()), 0, []Unit{u}, 1, func(_ int, o Observation, err error) {
			if err == nil && measurementValid(o.Measurement) {
				o.Status = StatusRetried
				o.Attempts += prev.Attempts
				in.Obs = o
				return
			}
			in.Obs = r.FailedObservation(u, prev.Attempts+1)
		})
	}
	return nil
}

// populationHash hashes the settled population: genome encodings and
// measurement counters, in order. Status and Attempts are deliberately
// excluded — a retried measurement is bit-identical to a clean one, so
// the hash pins what was measured, not how many tries it took.
func populationHash(inds []Individual) string {
	h := sha256.New()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for i := range inds {
		enc := toolchain.EncodeGenome(inds[i].Genome)
		word(uint64(len(enc)))
		h.Write(enc)
		o := &inds[i].Obs
		word(o.LayoutSeed)
		word(o.HeapSeed)
		word(o.Cycles)
		word(o.Instructions)
		for _, ev := range o.Events {
			word(ev)
		}
		word(uint64(o.Runs))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Finalize assembles the search result from the settled generations:
// the best individual across the whole trajectory (earliest generation
// wins ties) and the trajectory hash.
func (s *Search) Finalize(gens []GenerationResult) (*SearchResult, error) {
	if len(gens) == 0 {
		return nil, errors.New("core: search finished with no settled generation")
	}
	h := sha256.New()
	bestGen := 0
	for k := range gens {
		h.Write([]byte(gens[k].PopHash))
		b := gens[k].Best()
		cur := gens[bestGen].Best()
		if k > 0 && searchBetter(&b, &cur) {
			bestGen = k
		}
	}
	best := gens[bestGen].Best()
	if s.so != nil && best.valid() {
		s.so.bestCPI.Set(best.Obs.CPI())
	}
	return &SearchResult{
		Benchmark:      s.cfg.Campaign.Program.Name,
		Config:         s.cfg,
		Generations:    append([]GenerationResult(nil), gens...),
		Best:           best,
		BestGen:        gens[bestGen].Gen,
		TrajectoryHash: hex.EncodeToString(h.Sum(nil)),
	}, nil
}

// RunSearch executes the search campaign in-process: generation by
// generation through Genomes → Evaluate → Settle, checkpointing each
// settled generation when the embedded campaign configures a
// checkpoint directory, and resuming a prefix of settled generations
// bit-identically on restart.
func RunSearch(cfg SearchConfig) (*SearchResult, error) {
	workers := normalizeWorkers(cfg.Campaign.Workers, cfg.population())
	s, err := NewSearch(cfg, workers, nil)
	if err != nil {
		return nil, err
	}
	var sink *SearchCheckpointSink
	var gens []GenerationResult
	if cfg.Campaign.Checkpoint.Dir != "" {
		sink, err = OpenSearchCheckpointSink(s)
		if err != nil {
			return nil, err
		}
		defer sink.Close() // the error returns; the success path closes below
		gens = sink.Restored()
	}
	ctx := cfg.Campaign.context()
	for gen := len(gens); gen < s.Generations(); gen++ {
		var prev *GenerationResult
		if gen > 0 {
			prev = &gens[gen-1]
		}
		genomes, err := s.Genomes(gen, prev)
		if err != nil {
			return nil, err
		}
		observations, err := s.Evaluate(ctx, genomes)
		if err != nil {
			return nil, err
		}
		res, err := s.Settle(gen, genomes, observations)
		if err != nil {
			return nil, err
		}
		if sink != nil {
			if err := sink.Put(res); err != nil {
				return nil, err
			}
		}
		gens = append(gens, res)
	}
	if sink != nil {
		if err := sink.Close(); err != nil {
			return nil, err
		}
	}
	return s.Finalize(gens)
}

// HeldOutSeed derives a base seed disjoint from every stream seed
// derives: baselines sampled under it share nothing with the search's
// genome, layout, heap or noise streams, so a search-vs-sampling
// comparison is out-of-sample by construction.
func HeldOutSeed(seed uint64) uint64 {
	return xrand.Mix(seed, 0x68656c64) // "held"
}

// SampleLayoutCPIs measures n random layouts of the search's campaign
// config (the §6.3 sampling the search is compared against) and
// returns the CPIs of the usable observations. The layout seeds derive
// from the campaign's BaseSeed exactly as RunCampaign's do, so a
// baseline run under a held-out seed shares nothing with the search's
// genome streams.
func SampleLayoutCPIs(cfg CampaignConfig, n int) ([]float64, error) {
	cfg.Layouts = n
	cfg.Checkpoint = CheckpointConfig{}
	ds, err := RunCampaign(cfg)
	if err != nil {
		return nil, err
	}
	cpis := ds.CPIs()
	valid := cpis[:0]
	for _, c := range cpis {
		if !math.IsNaN(c) && !math.IsInf(c, 0) {
			valid = append(valid, c)
		}
	}
	if len(valid) == 0 {
		return nil, stats.ErrInsufficientData
	}
	return valid, nil
}
