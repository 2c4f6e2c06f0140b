package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"interferometry/internal/heap"
	"interferometry/internal/interp"
	"interferometry/internal/toolchain"
)

// LayoutRunner exposes the campaign's per-layout pipeline to external
// schedulers — campaignd leases layout indices from its job queue and
// drives them through here. The shared work (the trace, the one compile
// every layout reorders) is prepared once in NewLayoutRunner; after that
// any layout index can be built and measured independently on any
// worker slot, in any order, any number of times, and always yields the
// same observation: every per-layout input is re-derived from the
// campaign config, never from scheduler state.
//
// The build and measure seams are exposed separately (instead of one
// measure-layout call) so a scheduler can wrap each in its own circuit
// breaker and attribute failures to the seam that caused them. Fault
// injection, when configured, is already inside both seams.
type LayoutRunner struct {
	cfg     CampaignConfig
	co      *campaignObs
	workers int

	// mu guards the engines below against Release: every seam call
	// holds it shared (acquire), Release exclusively. A nil trace means
	// released.
	mu    sync.RWMutex
	trace *interp.Trace
	build buildSeam
	gb    genomeSeam
	meas  []measureSeam
	// dets holds each worker slot's det cache, wired as the Det source
	// of the slot's harness behind meas: a walk (prime) leaves its
	// replays there for the slot's measurements. The batch engine is
	// borrowed from batchPool for each walk.
	dets []*detCache

	// attKey is the builder cache key observations are attested
	// against; see AttestationKey.
	attKey string
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
	build, gb, meas, dets := newSeams(&cfg, workers)
	return &LayoutRunner{
		cfg:     cfg,
		co:      newCampaignObs(&cfg),
		workers: workers,
		trace:   trace,
		build:   build,
		gb:      gb,
		meas:    meas,
		dets:    dets,
		attKey:  toolchain.NewBuilder(cfg.Program, cfg.Compile, cfg.Link).CacheKey(),
	}, nil
}

// Layouts returns the campaign's layout count.
func (r *LayoutRunner) Layouts() int { return r.cfg.Layouts }

// Workers returns the number of worker slots.
func (r *LayoutRunner) Workers() int { return r.workers }

// ErrRunnerReleased is the error of a seam call on a released runner.
var ErrRunnerReleased = errors.New("core: layout runner released")

// Release drops the runner's engines once its campaign is finished: the
// trace, the build seams, and the per-slot harnesses with their
// machines and det caches. It waits for seam calls in flight; later
// ones fail with ErrRunnerReleased. What a finished campaign still
// answers is kept: the layout-seed derivation, AttestationKey, Workers
// and the failed-observation stamps.
func (r *LayoutRunner) Release() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.trace, r.build, r.gb, r.meas, r.dets = nil, nil, nil, nil, nil
}

// acquire pins the engines for one seam call. On success the caller
// holds r.mu shared and must RUnlock it.
func (r *LayoutRunner) acquire() error {
	r.mu.RLock()
	if r.trace == nil {
		r.mu.RUnlock()
		return ErrRunnerReleased
	}
	return nil
}

// AttestationKey is the toolchain identity observations from this
// runner are fingerprinted against (ObsWire.Attest). Two runners built
// from the same campaign config — coordinator and remote worker —
// derive the same key, so fingerprints stamped on one side verify on
// the other.
func (r *LayoutRunner) AttestationKey() string { return r.attKey }

// BuildLayout runs one attempt through the build seam for layout i:
// reorder+link plus the executable integrity check. Panics from the
// seam (injected or real) propagate; callers run under Guard.
func (r *LayoutRunner) BuildLayout(i int) (*toolchain.Executable, error) {
	if err := r.checkIndex(i); err != nil {
		return nil, err
	}
	if err := r.acquire(); err != nil {
		return nil, err
	}
	defer r.mu.RUnlock()
	if r.co != nil {
		r.co.attempts.Inc()
	}
	return buildLayout(&r.cfg, r.co, r.build, i, 0)
}

// MeasureLayout runs one attempt through the measure seam on worker
// slot w (two concurrent calls must use distinct slots): the counter
// harness plus the plausibility check.
func (r *LayoutRunner) MeasureLayout(w, i int, exe *toolchain.Executable) (Observation, error) {
	if err := r.checkIndex(i); err != nil {
		return Observation{}, err
	}
	if err := r.acquire(); err != nil {
		return Observation{}, err
	}
	defer r.mu.RUnlock()
	if w < 0 || w >= len(r.meas) {
		return Observation{}, fmt.Errorf("core: worker slot %d outside [0,%d)", w, len(r.meas))
	}
	return measureBuilt(&r.cfg, r.co, r.meas[w], r.trace, exe, i, w)
}

// PrimeBatch walks the trace once for a group of built layouts on worker
// slot w, priming the slot's harness so the following MeasureLayout
// calls synthesize their measurements from the shared walk instead of
// replaying per layout. Priming is a pure accelerator: the batched
// replay is pinned bit-identical to the sequential one, and a declined
// prime (unbatchable machine geometry, too many lanes, or a batch
// failure) costs nothing — MeasureLayout simply replays sequentially.
// A group of one is not walked: it replays on the scalar engine. The
// returned error is diagnostic only, and every decline is already
// counted on the campaign's observer; callers may ignore it.
//
// Like MeasureLayout, two concurrent calls must use distinct slots, and
// the priming is consumed by the same slot's MeasureLayout.
func (r *LayoutRunner) PrimeBatch(w int, layouts []int, exes []*toolchain.Executable) error {
	if len(layouts) != len(exes) {
		return fmt.Errorf("core: %d layouts with %d executables", len(layouts), len(exes))
	}
	for _, i := range layouts {
		if err := r.checkIndex(i); err != nil {
			return err
		}
	}
	if err := r.acquire(); err != nil {
		return err
	}
	defer r.mu.RUnlock()
	return r.prime(w, exes, func(j int) uint64 { return r.cfg.heapSeed(layouts[j]) })
}

// prime is PrimeBatch and PrimeGenomes for a caller holding the
// engines: walkTrace into slot w's det cache, with heapSeed deriving
// lane j's heap seed under ModeRandomized.
func (r *LayoutRunner) prime(w int, exes []*toolchain.Executable, heapSeed func(j int) uint64) error {
	if w < 0 || w >= len(r.dets) {
		return fmt.Errorf("core: worker slot %d outside [0,%d)", w, len(r.dets))
	}
	return walkTrace(&r.cfg, r.co, r.dets[w], r.trace, exes, heapSeed)
}

func (r *LayoutRunner) checkIndex(i int) error {
	if i < 0 || i >= r.cfg.Layouts {
		return fmt.Errorf("core: layout index %d outside campaign [0,%d)", i, r.cfg.Layouts)
	}
	return nil
}

// LayoutSeed returns the seed the campaign derives for layout i.
// Schedulers use it to validate that a result streamed back from a
// remote worker belongs to the layout it was leased for.
func (r *LayoutRunner) LayoutSeed(i int) uint64 { return r.cfg.layoutSeed(i) }

// CompletedObservation stamps retry provenance onto a successful
// observation the way the in-process supervisor does: Attempts is the
// number of executions the layout took, and any retry marks the status.
// Schedulers track attempts themselves, so the stamp is explicit here
// rather than buried in a retry loop they don't use.
func CompletedObservation(o Observation, attempts int) Observation {
	o.Attempts = attempts
	if attempts > 1 {
		o.Status = StatusRetried
	}
	return o
}

// FailedObservation is the observation recorded for a layout that
// exhausted its attempts: the derived seeds with zero counters and
// StatusFailed, exactly what the in-process supervisor records.
func (r *LayoutRunner) FailedObservation(i, attempts int) Observation {
	o := Observation{LayoutSeed: r.cfg.layoutSeed(i), Status: StatusFailed, Attempts: attempts}
	if r.cfg.HeapMode == heap.ModeRandomized {
		o.HeapSeed = r.cfg.heapSeed(i)
	}
	return o
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

// Guard runs fn, converting a panic into a *PanicError — the same
// conversion the in-process supervisor applies, so an injected panic in
// a seam is one more retriable task failure instead of a dead process.
func Guard(fn func() error) error {
	return runGuarded(func(int, int) error { return fn() }, 0, 0)
}

// CheckpointSink exposes the campaign checkpoint machinery to external
// schedulers: the same directory layout, header validation and
// atomic-rename durability as RunCampaign's Checkpoint config, so a
// campaign interrupted under campaignd resumes under cmd/interferometry
// and vice versa.
type CheckpointSink struct {
	w        *checkpointWriter
	restored map[int]Observation
}

// OpenCheckpointSink prepares cfg.Checkpoint.Dir and, when
// cfg.Checkpoint.Resume is set, loads previously completed observations
// (failed records are not restored: a resume retries them).
func OpenCheckpointSink(cfg CampaignConfig) (*CheckpointSink, error) {
	if cfg.Checkpoint.Dir == "" {
		return nil, errors.New("core: checkpoint sink needs a directory")
	}
	w, loaded, err := openCheckpoint(&cfg)
	if err != nil {
		return nil, err
	}
	return &CheckpointSink{w: w, restored: loaded}, nil
}

// Restored returns the observations loaded on resume, keyed by
// campaign-local layout index.
func (s *CheckpointSink) Restored() map[int]Observation {
	return s.restored
}

// Put persists one completed observation. Safe for concurrent use;
// write failures surface at Close.
func (s *CheckpointSink) Put(i int, o Observation) {
	s.w.put(i, o)
}

// Close surfaces the first deferred write error.
func (s *CheckpointSink) Close() error {
	return s.w.close()
}
