// Package core implements program interferometry itself (§4): run a
// benchmark under many semantically equivalent layouts, measure each with
// performance counters, fit regression models relating adverse
// microarchitectural events to performance, screen them for statistical
// significance, and use the models to predict the performance of
// hypothetical hardware (§7) — all without a cycle-accurate simulation of
// anything but the structure under study.
//
// At §6.3 scale and beyond, partial failure is the normal case, not a
// crash: campaigns run under a supervisor that recovers worker panics,
// retries failed layouts with bounded attempts, screens implausible
// observations with robust statistics, tolerates a failure budget by
// degrading the dataset instead of discarding it, and checkpoints
// completed observations so an interrupted campaign resumes bit-identical
// to an uninterrupted one.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"interferometry/internal/faultinject"
	"interferometry/internal/heap"
	"interferometry/internal/interp"
	"interferometry/internal/isa"
	"interferometry/internal/jobqueue/backoff"
	"interferometry/internal/machine"
	"interferometry/internal/obs"
	"interferometry/internal/pmc"
	"interferometry/internal/stats"
	"interferometry/internal/toolchain"
	"interferometry/internal/xrand"
)

// CampaignConfig describes one interferometry campaign: a benchmark
// observed through many layout "telescopes" (§4.3).
type CampaignConfig struct {
	// Program is the benchmark. Traces are produced with InputSeed and
	// the stop rule below.
	Program   *isa.Program
	InputSeed uint64
	// Budget stops each run after this many retired instructions (at a
	// block boundary). If Limiter is non-zero it takes precedence and
	// reproduces the paper's run-limiter instrumentation.
	Budget  uint64
	Limiter toolchain.Limiter

	// Layouts is the number of code reorderings to measure. FirstLayout
	// offsets the layout seed sequence so campaigns can be extended
	// (§6.3 samples "in multiples of 100").
	Layouts     int
	FirstLayout int

	// HeapMode selects data-layout perturbation: ModeBump is code
	// reordering only (the paper's default); ModeRandomized adds DieHard
	// heap randomization (§1.3). Under ModeRandomized each layout gets
	// its own heap seed.
	HeapMode heap.Mode

	// Machine is the hardware model. Zero value means machine.XeonE5440().
	Machine machine.Config
	// Fidelity and RunsPerGroup configure the counter harness (§5.5).
	Fidelity     pmc.Fidelity
	RunsPerGroup int

	// BaseSeed keys every derived random stream; the same config is
	// bit-reproducible.
	BaseSeed uint64

	// Workers bounds parallelism. Zero means GOMAXPROCS.
	Workers int

	// BatchSize is the chunk width: each worker takes a contiguous
	// chunk of up to BatchSize layouts and walks the trace once for the
	// whole chunk (machine.Batch), synthesizing every layout's
	// measurement from the shared walk. The walk is pinned bit-identical
	// to scalar replay, so this knob changes only throughput, never
	// results. Zero picks a width automatically (each worker's fair
	// share of the campaign, capped at 32); 1 replays every layout on the
	// scalar engine, the reference the batched paths are compared
	// against. FidelityPaperNaive always runs chunks of one.
	BatchSize int

	// Compile and Link override toolchain defaults when non-zero.
	Compile toolchain.CompileConfig
	Link    toolchain.LinkConfig

	// Context cancels or deadlines the campaign's sweeps, including the
	// dataset sweeps derived from it (EvaluatePredictors, cache
	// evaluation). Nil means context.Background().
	Context context.Context

	// MaxAttempts bounds how many times one layout is built and measured
	// before it counts as failed: build errors, measurement errors,
	// corrupt executables and implausible measurements all trigger a
	// seeded re-measurement of the same layout. Every attempt derives
	// the same seeds, so a retry that succeeds is bit-identical to a
	// first-attempt success. Zero means 2 (one retry).
	MaxAttempts int

	// Backoff spaces retry attempts for one layout: attempt a+1 starts
	// Backoff.Delay(a, BaseSeed, layoutSeed) after attempt a failed,
	// with deterministic seeded jitter. The zero value retries
	// immediately, the historic behavior. campaignd shares the same
	// policy type for its queue-level requeue delays, so in-process and
	// service campaigns space retries identically.
	Backoff backoff.Policy

	// FailureBudget is how many layouts may fail permanently (after
	// retries) before the sweep aborts. Within the budget the campaign
	// completes with those layouts marked StatusFailed and excluded from
	// model fitting; the abort path returns every recorded failure
	// joined into one error. Zero tolerates no failures, the historic
	// behaviour.
	FailureBudget int

	// OutlierMAD enables the robust outlier screen: after the sweep, an
	// observation whose CPI deviates from the campaign median by more
	// than OutlierMAD median absolute deviations (the observations are
	// already per-group medians under the §5.5 protocol) is flagged and
	// re-measured before it can poison the regression. Zero disables
	// the screen; 10 is a reasonable value for real campaigns.
	OutlierMAD float64

	// Checkpoint persists completed observations under a campaign
	// directory and supports resuming. Zero value disables.
	Checkpoint CheckpointConfig

	// Faults optionally injects deterministic faults at the build and
	// measure seams. It exists for the fault-injection test harness;
	// production campaigns leave it nil.
	Faults *faultinject.Injector

	// Obs optionally observes the campaign: metrics, span tracing and
	// progress reporting (DESIGN.md §8). Nil disables all three; the
	// campaign then pays only nil checks.
	Obs *obs.Observer
}

func (c *CampaignConfig) machineConfig() machine.Config {
	if c.Machine.Name == "" {
		return machine.XeonE5440()
	}
	return c.Machine
}

// StopRule is the rule the campaign's trace is generated under: the
// Limiter when set, otherwise the Budget. With Program and InputSeed it
// keys the trace, which a scheduler sharing traces across campaigns
// hands to NewLayoutRunner.
func (c *CampaignConfig) StopRule() interp.StopRule {
	if c.Limiter.StopCount > 0 {
		return c.Limiter.Rule()
	}
	return interp.StopRule{Budget: c.Budget}
}

func (c *CampaignConfig) context() context.Context {
	if c.Context == nil {
		return context.Background()
	}
	return c.Context
}

func (c *CampaignConfig) maxAttempts() int {
	if c.MaxAttempts <= 0 {
		return 2
	}
	return c.MaxAttempts
}

// ObsStatus records how an observation was obtained.
type ObsStatus uint8

// Observation statuses.
const (
	// StatusOK is a first-attempt success.
	StatusOK ObsStatus = iota
	// StatusRetried marks an observation that needed more than one
	// attempt, or was re-measured by the outlier screen. Its measurement
	// is bit-identical to what a clean first attempt produces.
	StatusRetried
	// StatusFailed marks a layout with no valid measurement. Failed
	// observations carry their seeds but zero counters, and every
	// consumer (model fitting, evaluation sweeps, CSV export) skips or
	// flags them.
	StatusFailed
)

func (s ObsStatus) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusRetried:
		return "retried"
	case StatusFailed:
		return "failed"
	default:
		return fmt.Sprintf("ObsStatus(%d)", uint8(s))
	}
}

// Observation is the measurement of one layout.
type Observation struct {
	LayoutSeed uint64
	HeapSeed   uint64
	pmc.Measurement
	// Status distinguishes clean, retried and failed layouts; Attempts
	// counts the measurement attempts that produced the observation.
	Status   ObsStatus
	Attempts int
}

// LayoutFailure records one layout that failed permanently.
type LayoutFailure struct {
	Index      int
	LayoutSeed uint64
	Err        string
}

// Dataset is the outcome of a campaign.
type Dataset struct {
	Benchmark string
	Config    CampaignConfig
	// Trace is the shared layout-independent execution record.
	Trace *interp.Trace
	Obs   []Observation
	// Failures lists the layouts that exhausted their retry budget,
	// sorted by index. Their Obs entries are marked StatusFailed. A
	// non-empty list means the dataset is degraded: fitting and
	// evaluation skip those layouts and report the effective N.
	Failures []LayoutFailure
}

// EffectiveN is the number of layouts with a usable measurement.
func (d *Dataset) EffectiveN() int {
	n := 0
	for i := range d.Obs {
		if d.Obs[i].Status != StatusFailed {
			n++
		}
	}
	return n
}

// usableIdx lists the indices of non-failed observations.
func (d *Dataset) usableIdx() []int {
	idx := make([]int, 0, len(d.Obs))
	for i := range d.Obs {
		if d.Obs[i].Status != StatusFailed {
			idx = append(idx, i)
		}
	}
	return idx
}

// layoutSeed derives the seed of the i-th layout. Layout index 0 uses a
// nonzero seed too: the identity layout is available via Reorder(seed 0)
// but campaigns sample random layouts only, like the paper.
func (c *CampaignConfig) layoutSeed(i int) uint64 {
	return xrand.Mix(c.BaseSeed, 0x6c61796f, uint64(c.FirstLayout+i)) | 1
}

// heapSeed derives the heap-randomizer seed of the i-th layout. Heap seed
// zero is the sentinel for "no randomization" in recorded observations
// (ModeBump), so the derived stream must never produce it: a Mix output
// of zero is remapped to the stream tag.
func (c *CampaignConfig) heapSeed(i int) uint64 {
	if s := xrand.Mix(c.BaseSeed, 0x68656170, uint64(c.FirstLayout+i)); s != 0 {
		return s
	}
	return 0x68656170
}

// noiseSeed derives the noise stream of the i-th layout, with the same
// nonzero guarantee as heapSeed so the three per-layout streams stay
// disjoint from each mode's zero sentinel.
func (c *CampaignConfig) noiseSeed(i int) uint64 {
	if s := xrand.Mix(c.BaseSeed, 0x6e6f6973, uint64(c.FirstLayout+i)); s != 0 {
		return s
	}
	return 0x6e6f6973
}

// buildSeam and measureSeam are the two narrow interfaces every
// measurement passes through; the fault injector wraps them and
// LayoutRunner.Measure retries across them.
type buildSeam interface {
	Build(seed uint64) (*toolchain.Executable, error)
}

type measureSeam interface {
	Measure(spec machine.RunSpec) (pmc.Measurement, error)
}

// newSeams prepares the campaign's two measurement seams: one compile
// shared by every layout and worker (only Reorder+Link depend on the
// layout seed) and one counter harness per worker slot, both wrapped by
// the fault injector when one is configured. Each harness reads its
// slot's det cache, returned alongside, through the pmc.DetSource seam:
// a shared trace walk (walkTrace) leaves its replays there, and an
// empty cache replays on the harness's own scalar machine. The builder
// is returned too: genome builds call it by explicit permutation
// instead of seed, and their fault wrapping happens per call, keyed by
// fingerprint, in LayoutRunner.buildUnit.
func newSeams(cfg *CampaignConfig, workers int) (buildSeam, *toolchain.Builder, []measureSeam, []*detCache) {
	builder := toolchain.NewBuilder(cfg.Program, cfg.Compile, cfg.Link)
	builder.Observe(builderMetrics(cfg.Obs))
	var build buildSeam = builder
	if cfg.Faults != nil {
		cfg.Faults.Observe(cfg.Obs)
		build = cfg.Faults.WrapBuilder(build)
	}
	mcfg := cfg.machineConfig()
	hmetrics := harnessMetrics(cfg.Obs)
	measurers := make([]measureSeam, workers)
	dets := make([]*detCache, workers)
	for w := range measurers {
		dets[w] = &detCache{}
		h := &pmc.Harness{
			Machine:      machine.New(mcfg),
			Fidelity:     cfg.Fidelity,
			RunsPerGroup: cfg.RunsPerGroup,
			Metrics:      hmetrics,
			Det:          dets[w],
		}
		if cfg.Faults != nil {
			measurers[w] = cfg.Faults.WrapMeasurer(h)
		} else {
			measurers[w] = h
		}
	}
	return build, builder, measurers, dets
}

// RunCampaign executes the campaign under the supervisor: one trace,
// Layouts executables, one measurement each, with retries, failure
// budget, outlier screening and checkpointing per the config.
func RunCampaign(cfg CampaignConfig) (*Dataset, error) {
	return runWithTrace(cfg, nil)
}

// runWithTrace is the supervised sweep behind RunCampaign and Extend: a
// LayoutRunner over the campaign, its chunks handed out across the
// runner's worker slots. The trace is layout-independent, so an
// extension passes its parent's instead of re-interpreting the program;
// nil interprets it.
func runWithTrace(cfg CampaignConfig, trace *interp.Trace) (*Dataset, error) {
	workers := normalizeWorkers(cfg.Workers, cfg.Layouts)
	r, err := NewLayoutRunner(cfg, workers, trace)
	if err != nil {
		return nil, err
	}
	co := r.co
	ds := &Dataset{
		Benchmark: cfg.Program.Name,
		Config:    cfg,
		Trace:     r.trace,
		Obs:       make([]Observation, cfg.Layouts),
	}
	campSpan := obs.Span{}
	if co != nil {
		campSpan = co.o.StartSpan("campaign", co.campID, 0, 0)
		co.o.Prog().AddTotal(cfg.Layouts)
	}

	// Each worker takes contiguous chunks of layouts and walks the trace
	// once per chunk. A machine the batch engine cannot hold is refused
	// once, and the campaign then runs chunks of one.
	chunk := cfg.batchSize(workers)
	if chunk > 1 && !batchable(&cfg, co, chunk) {
		chunk = 1
	}

	// Checkpoint: load completed observations on resume, then persist
	// every newly completed one.
	var ckpt *CheckpointSink
	done := make([]bool, cfg.Layouts)
	if cfg.Checkpoint.Dir != "" {
		if ckpt, err = OpenCheckpointSink(cfg); err != nil {
			return nil, err
		}
		loaded := ckpt.Restored()
		for i, o := range loaded {
			ds.Obs[i] = o
			done[i] = true
		}
		if co != nil {
			co.restored.Add(uint64(len(loaded)))
		}
	}

	var mu sync.Mutex
	record := func(i int, o Observation) {
		mu.Lock()
		ds.Obs[i] = o
		mu.Unlock()
		if ckpt != nil {
			ckpt.Put(i, o)
		}
		if co != nil {
			co.layoutsDone.Inc()
			if o.Status == StatusRetried {
				co.layoutsRetried.Inc()
			}
			co.o.Prog().Done()
		}
	}
	attempts := cfg.maxAttempts()
	failed, err := superviseChunksT(cfg.context(), workers, cfg.Layouts, chunk, cfg.FailureBudget, newSupTel(cfg.Obs), func(w, lo, hi int, fail func(i int, err error), _ func() bool) {
		units := make([]Unit, 0, hi-lo)
		for i := lo; i < hi; i++ {
			if done[i] {
				if co != nil {
					co.o.Prog().Done()
				}
				continue
			}
			units = append(units, Unit{Layout: i})
		}
		if err := r.Measure(w, units, attempts, func(k int, o Observation, err error) {
			if err != nil {
				fail(units[k].Layout, err)
				return
			}
			record(units[k].Layout, o)
		}); err != nil {
			fail(lo, err)
		}
	})
	for _, f := range failed {
		o := r.FailedObservation(Unit{Layout: f.Index}, attempts)
		ds.Obs[f.Index] = o
		ds.Failures = append(ds.Failures, LayoutFailure{Index: f.Index, LayoutSeed: o.LayoutSeed, Err: f.Err.Error()})
		if err == nil && ckpt != nil {
			ckpt.Put(f.Index, o)
		}
		if co != nil {
			co.layoutsFailed.Inc()
			co.o.Prog().Fail()
		}
	}
	if err != nil {
		// Aborted (budget exceeded or canceled): completed observations
		// stay checkpointed for a future --resume.
		campSpan.End()
		if ckpt != nil {
			ckpt.Close()
		}
		return nil, fmt.Errorf("core: campaign %s aborted: %w", ds.Benchmark, err)
	}

	if cfg.OutlierMAD > 0 {
		screenOutliers(r, ds, ckpt)
	}
	campSpan.End()
	if co != nil {
		co.o.Prog().Finish()
	}
	if ckpt != nil {
		if err := ckpt.Close(); err != nil {
			return nil, err
		}
	}
	return ds, nil
}

// measurementValid reports whether a measurement's counters can enter
// the outlier screen's robust statistics: a zero instruction count or a
// non-finite CPI is not a slow layout, it is a corrupt counter read, and
// feeding it to stats.Median/MAD would violate their NaN contract (and,
// before that contract existed, silently poison the screen's threshold).
func measurementValid(m pmc.Measurement) bool {
	if m.Instructions == 0 {
		return false
	}
	cpi := m.CPI()
	return !math.IsNaN(cpi) && !math.IsInf(cpi, 0)
}

// screenOutliers is the robust-statistics screen: observations whose CPI
// sits further than cfg.OutlierMAD median absolute deviations from the
// campaign median are re-measured through r. In a deterministic pipeline
// the re-measurement reproduces a genuine outlier exactly (it is then
// kept — a real heavy-tailed layout, not an artifact); a corrupted
// measurement comes back different and is replaced, marked
// StatusRetried. The screen is best-effort for valid observations:
// re-measurement failures keep the original. Invalid measurements
// (NaN/zero-instruction counter reads) are excluded from the median and
// MAD, always re-measured, and degraded to StatusFailed when the
// re-measurement cannot produce a valid reading — garbage counters must
// not pose as data. A re-measurement that ends in a recovered panic is
// counted (outlier_screen_panics) and settled like any failed one.
//
// The pool has one worker per runner slot, capped by the number of
// flagged layouts, and re-measures one layout per call.
func screenOutliers(r *LayoutRunner, ds *Dataset, ckpt *CheckpointSink) {
	cfg, co := &r.cfg, r.co
	idx := ds.usableIdx()
	var valid, flagged []int
	var cpis []float64
	for _, i := range idx {
		if !measurementValid(ds.Obs[i].Measurement) {
			flagged = append(flagged, i)
			continue
		}
		valid = append(valid, i)
		cpis = append(cpis, ds.Obs[i].CPI())
	}
	if len(valid) >= 5 {
		med := stats.Median(cpis)
		if mad := stats.MAD(cpis); mad > 0 {
			thresh := cfg.OutlierMAD * mad
			for k, i := range valid {
				if math.Abs(cpis[k]-med) > thresh {
					flagged = append(flagged, i)
				}
			}
		}
	}
	if len(flagged) == 0 {
		return
	}
	sort.Ints(flagged)
	screenSpan := obs.Span{}
	if co != nil {
		co.outliersFlagged.Add(uint64(len(flagged)))
		screenSpan = co.o.StartSpan("outlier-screen", obs.SpanID(co.campID, tagOutlier), co.campID, 0)
	}
	var mu sync.Mutex
	// settle applies one flagged layout's re-measurement outcome.
	settle := func(i int, o Observation, err error) {
		mu.Lock()
		defer mu.Unlock()
		var pe *PanicError
		if co != nil && errors.As(err, &pe) {
			co.screenPanics.Inc()
		}
		prev := ds.Obs[i]
		if err == nil && measurementValid(o.Measurement) {
			if o.Measurement != prev.Measurement {
				o.Status = StatusRetried
				o.Attempts += prev.Attempts
				ds.Obs[i] = o
				if ckpt != nil {
					ckpt.Put(i, o)
				}
				if co != nil {
					co.outliersRepaired.Inc()
					co.o.Prog().Repair()
				}
			}
			return
		}
		if measurementValid(prev.Measurement) {
			// A valid outlier whose re-measurement failed: keep it, the
			// screen never degrades a usable observation.
			return
		}
		// The stored observation is a corrupt counter read and it could
		// not be re-measured into a valid one: degrade it to failed so
		// fitting and evaluation exclude it.
		cause := fmt.Errorf("core: layout %d: invalid measurement (corrupt counters) and re-measurement produced no valid reading", i)
		if err != nil {
			cause = fmt.Errorf("core: layout %d: invalid measurement (corrupt counters): re-measurement failed: %w", i, err)
		}
		failed := r.FailedObservation(Unit{Layout: i}, prev.Attempts+cfg.maxAttempts())
		ds.Obs[i] = failed
		ds.Failures = append(ds.Failures, LayoutFailure{Index: i, LayoutSeed: failed.LayoutSeed, Err: cause.Error()})
		if ckpt != nil {
			ckpt.Put(i, failed)
		}
		if co != nil {
			co.layoutsFailed.Inc()
		}
	}
	workers := min(r.Workers(), len(flagged))
	// Tolerate every re-measurement failing: the screen improves the
	// dataset when it can and never degrades it.
	unsettled, _ := superviseForT(cfg.context(), workers, len(flagged), len(flagged), newSupTel(cfg.Obs), func(w, fi int) error {
		i := flagged[fi]
		return r.Measure(w, []Unit{{Layout: i}}, cfg.maxAttempts(), func(_ int, o Observation, err error) {
			settle(i, o, err)
		})
	})
	// Measure settles every layout it runs, so a recorded failure is a
	// re-measurement that never ran.
	for _, f := range unsettled {
		settle(flagged[f.Index], Observation{}, f.Err)
	}
	sort.Slice(ds.Failures, func(a, b int) bool { return ds.Failures[a].Index < ds.Failures[b].Index })
	screenSpan.End()
}

// Extend runs additional layouts (the §6.3 escalation: "we sample a
// number of code reorderings in multiples of 100") and returns a new
// dataset containing all observations. The already-computed trace is
// reused — the trace is layout-independent, so re-interpreting the
// program would be wasted work and a second failure surface. The nested
// sweep never touches the parent's checkpoint directory.
func (d *Dataset) Extend(more int) (*Dataset, error) {
	cfg := d.Config
	cfg.FirstLayout += cfg.Layouts
	cfg.Layouts = more
	cfg.Checkpoint = CheckpointConfig{}
	extra, err := runWithTrace(cfg, d.Trace)
	if err != nil {
		return nil, err
	}
	merged := &Dataset{
		Benchmark: d.Benchmark,
		Config:    d.Config,
		Trace:     d.Trace,
		Obs:       append(append([]Observation(nil), d.Obs...), extra.Obs...),
		Failures:  append([]LayoutFailure(nil), d.Failures...),
	}
	for _, f := range extra.Failures {
		f.Index += len(d.Obs)
		merged.Failures = append(merged.Failures, f)
	}
	merged.Config.Layouts = len(merged.Obs)
	return merged, nil
}

// CPIs returns the CPI of every usable observation; layouts marked
// StatusFailed are skipped, so a degraded dataset fits its models on the
// effective sample. The order matches PKIs.
func (d *Dataset) CPIs() []float64 {
	idx := d.usableIdx()
	out := make([]float64, len(idx))
	for k, i := range idx {
		out[k] = d.Obs[i].CPI()
	}
	return out
}

// PKIs returns the per-1000-instruction rate of an event for every
// usable observation, skipping failed layouts like CPIs.
func (d *Dataset) PKIs(ev pmc.Event) []float64 {
	idx := d.usableIdx()
	out := make([]float64, len(idx))
	for k, i := range idx {
		out[k] = d.Obs[i].PKI(ev)
	}
	return out
}
