package core

import (
	"fmt"

	"interferometry/internal/heap"
	"interferometry/internal/interp"
	"interferometry/internal/machine"
	"interferometry/internal/pmc"
	"interferometry/internal/toolchain"
	"interferometry/internal/xrand"
)

// This file is the genome side of the per-layout pipeline: search
// campaigns measure explicit layout permutations (toolchain.Genome)
// instead of seed-derived reorderings, but everything downstream of the
// build — the counter harness, the plausibility check, the batched
// replay, fault injection — is shared with the seed path. A genome's
// stable identity is its fingerprint; it plays the role the layout seed
// plays for indexed layouts: it keys the fault streams, the heap and
// noise seed derivations, the artifact cache, and the provenance check
// on results streamed back from remote workers. Fingerprints are forced
// even and layout seeds forced odd, so the two keyspaces never collide
// in a shared cache or fault plan.

// genomeSeam is the build seam of the search path: an explicit
// permutation in, an executable out. Builder and CachedBuilder satisfy
// it.
type genomeSeam interface {
	BuildGenome(g toolchain.Genome) (*toolchain.Executable, error)
}

// genomeHeapSeed derives the heap-randomizer seed of a genome from its
// fingerprint, with the same nonzero guarantee as the indexed heapSeed.
func (c *CampaignConfig) genomeHeapSeed(fp uint64) uint64 {
	if s := xrand.Mix(c.BaseSeed, 0x68656170, fp); s != 0 {
		return s
	}
	return 0x68656170
}

// genomeNoiseSeed derives the noise stream of a genome from its
// fingerprint, nonzero like genomeHeapSeed.
func (c *CampaignConfig) genomeNoiseSeed(fp uint64) uint64 {
	if s := xrand.Mix(c.BaseSeed, 0x6e6f6973, fp); s != 0 {
		return s
	}
	return 0x6e6f6973
}

// genomeBuildAdapter presents one genome build as a seed-keyed Builder
// so the fault injector can wrap it: the injector keys its fault
// streams off the seed argument, and buildGenome passes the genome's
// fingerprint, giving every genome its own deterministic fault draw
// exactly as every layout seed gets one.
type genomeBuildAdapter struct {
	gb genomeSeam
	g  toolchain.Genome
}

func (a *genomeBuildAdapter) Build(uint64) (*toolchain.Executable, error) {
	return a.gb.BuildGenome(a.g)
}

// buildGenome is one attempt through the genome build seam: explicit
// reorder+link plus the executable integrity check. Faults, when
// configured, wrap per call and key off the fingerprint.
func buildGenome(cfg *CampaignConfig, co *campaignObs, gb genomeSeam, g toolchain.Genome, w int) (*toolchain.Executable, error) {
	fp := g.Fingerprint()
	st := co.stageStart("compile", fp, tagCompile, w)
	defer st.end()
	var build buildSeam = &genomeBuildAdapter{gb: gb, g: g}
	if cfg.Faults != nil {
		build = cfg.Faults.WrapBuilder(build)
	}
	exe, err := build.Build(fp)
	if err != nil {
		return nil, fmt.Errorf("core: genome %016x: %w", fp, err)
	}
	if err := toolchain.CheckExecutable(exe, -1); err != nil {
		return nil, fmt.Errorf("core: genome %016x: %w", fp, err)
	}
	return exe, nil
}

// BuildGenome runs one attempt through the genome build seam: explicit
// reorder+link plus the executable integrity check. Panics from the
// seam (injected or real) propagate; callers run under Guard.
func (r *LayoutRunner) BuildGenome(g toolchain.Genome) (*toolchain.Executable, error) {
	if err := r.acquire(); err != nil {
		return nil, err
	}
	defer r.mu.RUnlock()
	if r.co != nil {
		r.co.attempts.Inc()
	}
	return buildGenome(&r.cfg, r.co, r.gb, g, 0)
}

// MeasureGenome runs one attempt through the measure seam on worker
// slot w for a built genome. The heap and noise seeds derive from the
// genome's fingerprint, so any executable built for the genome measures
// identically wherever it runs; the plausibility check records the
// fingerprint as the run's layout seed with layout index -1 (genomes
// have no campaign-local index).
func (r *LayoutRunner) MeasureGenome(w int, g toolchain.Genome, exe *toolchain.Executable) (Observation, error) {
	if err := r.acquire(); err != nil {
		return Observation{}, err
	}
	defer r.mu.RUnlock()
	if w < 0 || w >= len(r.meas) {
		return Observation{}, fmt.Errorf("core: worker slot %d outside [0,%d)", w, len(r.meas))
	}
	return measureGenomeBuilt(&r.cfg, r.co, r.meas[w], r.trace, exe, g.Fingerprint(), w)
}

// measureGenomeBuilt mirrors measureBuilt with the genome fingerprint
// standing in for the layout seed.
func measureGenomeBuilt(cfg *CampaignConfig, co *campaignObs, meas measureSeam, trace *interp.Trace, exe *toolchain.Executable, fp uint64, w int) (Observation, error) {
	hs := uint64(0)
	if cfg.HeapMode == heap.ModeRandomized {
		hs = cfg.genomeHeapSeed(fp)
	}
	ns := cfg.genomeNoiseSeed(fp)
	st := co.stageStart("run", fp, tagRun, w)
	m, err := meas.Measure(machine.RunSpec{
		Exe:       exe,
		Trace:     trace,
		HeapMode:  cfg.HeapMode,
		HeapSeed:  hs,
		NoiseSeed: ns,
	})
	st.end()
	if err != nil {
		return Observation{}, fmt.Errorf("core: genome %016x: %w", fp, err)
	}
	st = co.stageStart("fit", fp, tagFit, w)
	err = m.Check(trace.Instrs, pmc.RunID{
		Layout:     -1,
		LayoutSeed: fp,
		HeapSeed:   hs,
		NoiseSeed:  ns,
	})
	st.end()
	if err != nil {
		return Observation{}, fmt.Errorf("core: genome %016x: %w", fp, err)
	}
	return Observation{LayoutSeed: fp, HeapSeed: hs, Measurement: m}, nil
}

// PrimeGenomes walks the trace once for a group of built genomes on
// worker slot w, priming the slot's harness exactly like PrimeBatch
// does for indexed layouts. Priming is a pure accelerator: the batched
// replay is pinned bit-identical to the sequential one, and a declined
// prime costs nothing — MeasureGenome simply replays sequentially. The
// exe pointers passed here must be the same pointers later passed to
// MeasureGenome: the det cache matches on executable identity.
func (r *LayoutRunner) PrimeGenomes(w int, gs []toolchain.Genome, exes []*toolchain.Executable) error {
	if err := r.acquire(); err != nil {
		return err
	}
	defer r.mu.RUnlock()
	return r.primeGenomes(w, gs, exes)
}

// primeGenomes is PrimeGenomes for a caller already holding the engines.
func (r *LayoutRunner) primeGenomes(w int, gs []toolchain.Genome, exes []*toolchain.Executable) error {
	if len(gs) != len(exes) {
		return fmt.Errorf("core: %d genomes with %d executables", len(gs), len(exes))
	}
	return r.prime(w, exes, func(j int) uint64 { return r.cfg.genomeHeapSeed(gs[j].Fingerprint()) })
}

// FailedGenomeObservation is the observation recorded for a genome that
// exhausted its attempts: the fingerprint-derived seeds with zero
// counters and StatusFailed, mirroring FailedObservation.
func (r *LayoutRunner) FailedGenomeObservation(g toolchain.Genome, attempts int) Observation {
	fp := g.Fingerprint()
	o := Observation{LayoutSeed: fp, Status: StatusFailed, Attempts: attempts}
	if r.cfg.HeapMode == heap.ModeRandomized {
		o.HeapSeed = r.cfg.genomeHeapSeed(fp)
	}
	return o
}

// GenomeFingerprintSeed exposes the fingerprint a scheduler should
// expect on observations streamed back for a genome — the provenance
// check mirroring LayoutSeed for indexed layouts.
func GenomeFingerprintSeed(g toolchain.Genome) uint64 { return g.Fingerprint() }
