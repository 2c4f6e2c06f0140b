package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"interferometry/internal/heap"
	"interferometry/internal/interp"
	"interferometry/internal/machine"
	"interferometry/internal/pmc"
	"interferometry/internal/toolchain"
)

// LayoutRunner is the campaign's per-layout pipeline, and the only one:
// RunCampaign and Search.Evaluate supervise it in-process, and
// campaignd's task loops (the coordinator's own and remote workers') and
// spot audits drive it one lease group at a time. The shared work (the
// trace, the one compile every layout reorders) is prepared once in
// NewLayoutRunner; after that any unit can be built and measured
// independently on any worker slot, in any order, any number of times,
// and always yields the same observation: every per-unit input is
// re-derived from the campaign config and the unit, never from
// scheduler state.
//
// Measure is the pipeline: build, one shared trace walk, measure,
// retry. Fault injection, when configured, is already inside its build
// and measure seams.
type LayoutRunner struct {
	cfg     CampaignConfig
	co      *campaignObs
	workers int

	// mu guards the engines below against Release: every Measure call
	// holds it shared (acquire), Release exclusively. A nil trace means
	// released.
	mu    sync.RWMutex
	trace *interp.Trace
	build buildSeam
	// builder is the unwrapped builder behind build; genomes link
	// through it by explicit permutation (buildUnit).
	builder *toolchain.Builder
	meas    []measureSeam
	// dets holds each worker slot's det cache, wired as the Det source
	// of the slot's harness behind meas: a walk (walkTrace) leaves its
	// replays there for the slot's measurements. The batch engine is
	// borrowed from batchPool for each walk.
	dets []*detCache

	// attKey is the builder cache key observations are attested
	// against, computed on first use; see AttestationKey.
	attOnce sync.Once
	attKey  string
}

// Unit is one layout a runner builds and measures: campaign layout
// index Layout, or, when Genome is set, that search individual (Layout
// is then only the caller's label).
type Unit struct {
	Layout int
	Genome *toolchain.Genome
}

// String names the unit the way the runner's errors do.
func (u Unit) String() string {
	if u.Genome != nil {
		return fmt.Sprintf("genome %016x", u.Genome.Fingerprint())
	}
	return fmt.Sprintf("layout %d", u.Layout)
}

// unitKeys is what every attempt at a unit derives from it: seed names
// the unit (its layout seed, or a genome's fingerprint) and keys its
// fault draws and retry backoff; heap (zero outside ModeRandomized) and
// noise are its two streams; ref is the campaign-global layout index the
// checks report (-1 for a genome); span is its "layout" span ID.
type unitKeys struct {
	seed, heap, noise, span uint64
	ref                     int
}

func (r *LayoutRunner) keys(u Unit) unitKeys {
	c := &r.cfg
	var k unitKeys
	if u.Genome != nil {
		fp := u.Genome.Fingerprint()
		k = unitKeys{seed: fp, heap: c.genomeHeapSeed(fp), noise: c.genomeNoiseSeed(fp), span: fp, ref: -1}
	} else {
		k = unitKeys{seed: c.layoutSeed(u.Layout), heap: c.heapSeed(u.Layout), noise: c.noiseSeed(u.Layout), ref: c.FirstLayout + u.Layout}
		if r.co != nil {
			k.span = r.co.layoutID(c, u.Layout)
		}
	}
	if c.HeapMode != heap.ModeRandomized {
		k.heap = 0
	}
	return k
}

// NewLayoutRunner validates the config and prepares the shared compile
// plus one measurement harness per worker slot (workers <= 0 means 1).
// trace is the campaign's trace when the caller already holds it — a
// scheduler running many campaigns of one program and budget shares one
// — and must be the trace the config's program, input seed and stop
// rule generate. Nil interprets it here.
func NewLayoutRunner(cfg CampaignConfig, workers int, trace *interp.Trace) (*LayoutRunner, error) {
	if cfg.Program == nil {
		return nil, errors.New("core: campaign needs a program")
	}
	if cfg.Layouts <= 0 {
		return nil, errors.New("core: campaign needs at least one layout")
	}
	if cfg.Budget == 0 && cfg.Limiter.StopCount == 0 {
		return nil, errors.New("core: campaign needs a budget or limiter")
	}
	if workers <= 0 {
		workers = 1
	}
	if trace == nil {
		var err error
		if trace, err = interp.Run(cfg.Program, cfg.InputSeed, cfg.StopRule()); err != nil {
			return nil, fmt.Errorf("core: trace generation failed: %w", err)
		}
	} else if trace.Program != cfg.Program || trace.InputSeed != cfg.InputSeed || trace.Stop != cfg.StopRule() {
		return nil, errors.New("core: trace was not generated from the campaign's program, input seed and stop rule")
	}
	build, builder, meas, dets := newSeams(&cfg, workers)
	return &LayoutRunner{
		cfg:     cfg,
		co:      newCampaignObs(&cfg),
		workers: workers,
		trace:   trace,
		build:   build,
		builder: builder,
		meas:    meas,
		dets:    dets,
	}, nil
}

// Layouts returns the campaign's layout count.
func (r *LayoutRunner) Layouts() int { return r.cfg.Layouts }

// Workers returns the number of worker slots.
func (r *LayoutRunner) Workers() int { return r.workers }

// ErrRunnerReleased is the error of a Measure call on a released runner.
var ErrRunnerReleased = errors.New("core: layout runner released")

// Release drops the runner's engines once its campaign is finished: the
// trace, the build seams, and the per-slot harnesses with their
// machines and det caches. It waits for Measure calls in flight; later
// ones fail with ErrRunnerReleased. What a finished campaign still
// answers is kept: Seed, AttestationKey, Workers and FailedObservation.
func (r *LayoutRunner) Release() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.trace, r.build, r.builder, r.meas, r.dets = nil, nil, nil, nil, nil
}

// acquire pins the engines for one Measure call on worker slot w. On
// success the caller holds r.mu shared and must RUnlock it.
func (r *LayoutRunner) acquire(w int) error {
	r.mu.RLock()
	switch {
	case r.trace == nil:
		r.mu.RUnlock()
		return ErrRunnerReleased
	case w < 0 || w >= len(r.meas):
		r.mu.RUnlock()
		return fmt.Errorf("core: worker slot %d outside [0,%d)", w, len(r.meas))
	}
	return nil
}

// AttestationKey is the toolchain identity observations from this
// runner are fingerprinted against (ObsWire.Attest). Two runners built
// from the same campaign config — coordinator and remote worker —
// derive the same key, so fingerprints stamped on one side verify on
// the other. It costs a compile, so it is derived on the first call:
// a campaign nobody attests never pays for it.
func (r *LayoutRunner) AttestationKey() string {
	r.attOnce.Do(func() {
		r.attKey = toolchain.NewBuilder(r.cfg.Program, r.cfg.Compile, r.cfg.Link).CacheKey()
	})
	return r.attKey
}

func (r *LayoutRunner) checkUnit(u Unit) error {
	if u.Genome == nil && (u.Layout < 0 || u.Layout >= r.cfg.Layouts) {
		return fmt.Errorf("core: layout index %d outside campaign [0,%d)", u.Layout, r.cfg.Layouts)
	}
	return nil
}

// Measure is the per-layout pipeline over one chunk of units on worker
// slot w (two concurrent calls must use distinct slots). Attempt one
// builds every unit; the trace is then walked once for the units that
// built (walkTrace), and each unit is measured from that walk, in
// order. A unit whose attempt fails — a build or measure error, a failed
// check, a recovered panic — is rebuilt and remeasured, spaced by the
// campaign's backoff, until attempts run out.
//
// done receives each unit's outcome in unit order: an observation
// carrying its Attempts (StatusRetried when more than one), or the
// error "core: <unit> failed after N attempts: …". The walk is pinned
// bit-identical to the scalar replay, so the chunk never changes an
// observation. An error from Measure itself means no unit ran: an
// out-of-range unit or slot, or a released runner.
//
// The campaign's Context stops the chunk between steps: once it is
// done, nothing more is built, walked or measured, and each unit left
// reports "core: <unit> not measured: <cause>" (a retry's backoff ends
// too). A canceled campaign so waits out at most one build, walk or
// measurement.
func (r *LayoutRunner) Measure(w int, units []Unit, attempts int, done func(k int, o Observation, err error)) error {
	for _, u := range units {
		if err := r.checkUnit(u); err != nil {
			return err
		}
	}
	if err := r.acquire(w); err != nil {
		return err
	}
	defer r.mu.RUnlock()
	r.measure(r.cfg.context(), w, units, attempts, done)
	return nil
}

// measure is Measure for a caller holding the engines, stopped by ctx.
func (r *LayoutRunner) measure(ctx context.Context, w int, units []Unit, attempts int, done func(k int, o Observation, err error)) {
	attempts = max(attempts, 1)
	stopped := func(u Unit) error {
		if ctx.Err() == nil {
			return nil
		}
		return fmt.Errorf("core: %v not measured: %w", u, context.Cause(ctx))
	}
	keys := make([]unitKeys, len(units))
	exes := make([]*toolchain.Executable, len(units))
	errs := make([]error, len(units))
	var built []*toolchain.Executable
	var heapSeeds []uint64
	for k, u := range units {
		keys[k] = r.keys(u)
		if errs[k] = stopped(u); errs[k] != nil {
			continue
		}
		errs[k] = Guard(func() (err error) {
			exes[k], err = r.buildUnit(w, u, keys[k])
			return err
		})
		if errs[k] == nil {
			built = append(built, exes[k])
			heapSeeds = append(heapSeeds, keys[k].heap)
		}
	}
	if ctx.Err() == nil {
		// A declined walk is counted; the units then replay on the
		// scalar engine.
		_ = r.walkTrace(w, built, heapSeeds)
	}

	for k, u := range units {
		if err := stopped(u); err != nil {
			done(k, Observation{}, err)
			continue
		}
		st := r.co.layoutStage(keys[k].span, w)
		var o Observation
		err := errs[k]
		if err == nil {
			err = Guard(func() (err error) {
				o, err = r.measureUnit(w, u, keys[k], exes[k])
				return err
			})
		}
		for a := 1; ; a++ {
			if err == nil {
				o.Attempts = a
				if a > 1 {
					o.Status = StatusRetried
				}
				break
			}
			if a >= attempts {
				err = fmt.Errorf("core: %v failed after %d attempts: %w", u, attempts, err)
				break
			}
			if r.co != nil {
				r.co.o.Prog().Retry()
			}
			// The jitter keys off the unit's seed, so a resumed or
			// replayed campaign backs off by identical amounts.
			if serr := r.cfg.Backoff.Sleep(ctx, a, r.cfg.BaseSeed, keys[k].seed); serr != nil {
				err = fmt.Errorf("core: %v: retry backoff interrupted: %w", u, serr)
				break
			}
			err = Guard(func() error {
				exe, err := r.buildUnit(w, u, keys[k])
				if err == nil {
					o, err = r.measureUnit(w, u, keys[k], exe)
				}
				return err
			})
		}
		st.end()
		done(k, o, err)
	}
}

// buildUnit is one attempt through the build seam, traced on slot w's
// lane: reorder+link plus the executable integrity check that catches
// silent corruption before it can be measured. A genome links by
// explicit permutation, fault-wrapped per call so its fault draws key
// off its fingerprint as a layout's key off its seed.
func (r *LayoutRunner) buildUnit(w int, u Unit, k unitKeys) (*toolchain.Executable, error) {
	if r.co != nil {
		r.co.attempts.Inc()
	}
	st := r.co.stageStart("compile", k.span, tagCompile, w)
	defer st.end()
	build := r.build
	if u.Genome != nil {
		build = &genomeBuildAdapter{b: r.builder, g: *u.Genome}
		if r.cfg.Faults != nil {
			build = r.cfg.Faults.WrapBuilder(build)
		}
	}
	exe, err := build.Build(k.seed)
	if err != nil {
		return nil, fmt.Errorf("core: %v: %w", u, err)
	}
	if err := toolchain.CheckExecutable(exe, k.ref); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return exe, nil
}

// measureUnit is one attempt through slot w's measure seam: the counter
// harness run plus the plausibility check on its readings. The heap and
// noise seeds are re-derived from the unit, so any executable built for
// it measures identically wherever and whenever it runs.
func (r *LayoutRunner) measureUnit(w int, u Unit, k unitKeys, exe *toolchain.Executable) (Observation, error) {
	st := r.co.stageStart("run", k.span, tagRun, w)
	m, err := r.meas[w].Measure(machine.RunSpec{
		Exe:       exe,
		Trace:     r.trace,
		HeapMode:  r.cfg.HeapMode,
		HeapSeed:  k.heap,
		NoiseSeed: k.noise,
	})
	st.end()
	if err != nil {
		return Observation{}, fmt.Errorf("core: %v: %w", u, err)
	}
	st = r.co.stageStart("fit", k.span, tagFit, w)
	err = m.Check(r.trace.Instrs, pmc.RunID{
		Layout:     k.ref,
		LayoutSeed: k.seed,
		HeapSeed:   k.heap,
		NoiseSeed:  k.noise,
	})
	st.end()
	if err != nil {
		return Observation{}, fmt.Errorf("core: %w", err)
	}
	return Observation{LayoutSeed: k.seed, HeapSeed: k.heap, Measurement: m}, nil
}

// Seed returns the seed u's observations carry: the layout seed the
// campaign derives for a layout, a genome's fingerprint. Schedulers use
// it to validate that a result streamed back from a remote worker
// belongs to the unit it was leased for.
func (r *LayoutRunner) Seed(u Unit) uint64 { return r.keys(u).seed }

// CompletedObservation stamps retry provenance onto a successful
// observation the way the in-process supervisor does: Attempts is the
// number of executions the layout took, and any retry marks the status.
// Schedulers that requeue track attempts themselves, so the stamp is
// explicit here rather than buried in a retry loop they don't use.
func CompletedObservation(o Observation, attempts int) Observation {
	o.Attempts = attempts
	if attempts > 1 {
		o.Status = StatusRetried
	}
	return o
}

// FailedObservation is the observation recorded for a unit that
// exhausted its attempts: its derived seeds with zero counters and
// StatusFailed.
func (r *LayoutRunner) FailedObservation(u Unit, attempts int) Observation {
	k := r.keys(u)
	return Observation{LayoutSeed: k.seed, HeapSeed: k.heap, Status: StatusFailed, Attempts: attempts}
}

// Dataset assembles the campaign dataset from per-layout observations
// (indexed by layout, one per configured layout) and the permanent
// failures. The result is interchangeable with RunCampaign's: same
// config, same trace, same observation order.
func (r *LayoutRunner) Dataset(observations []Observation, failures []LayoutFailure) (*Dataset, error) {
	if len(observations) != r.cfg.Layouts {
		return nil, fmt.Errorf("core: %d observations for a %d-layout campaign", len(observations), r.cfg.Layouts)
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	ds := &Dataset{
		Benchmark: r.cfg.Program.Name,
		Config:    r.cfg,
		Trace:     r.trace,
		Obs:       append([]Observation(nil), observations...),
	}
	ds.Failures = append([]LayoutFailure(nil), failures...)
	sort.Slice(ds.Failures, func(a, b int) bool { return ds.Failures[a].Index < ds.Failures[b].Index })
	return ds, nil
}
