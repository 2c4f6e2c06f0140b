package core

import (
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"interferometry/internal/heap"
	"interferometry/internal/interp"
	"interferometry/internal/machine"
	"interferometry/internal/pmc"
	"interferometry/internal/toolchain"
)

// This file is the campaign side of batched replay (machine.Batch): a
// worker takes a contiguous chunk of layout indices, builds each
// executable, walks the trace ONCE for the whole chunk, and then drives
// every layout through the exact per-layout pipeline the sequential path
// uses — measureBuilt, plausibility check, retry tail, checkpoint. The
// batch primes a per-worker detCache that the worker's pmc.Harness
// consults through the pmc.DetSource seam, so the harness synthesizes
// each measurement from the batch's deterministic replay instead of
// re-simulating. Batch.Run is pinned bit-identical to
// Machine.RunDeterministic lane by lane, which makes the whole batched
// campaign byte-identical to the sequential one: same observations, same
// statuses, same CSV bytes.

// AutoBatchLanes caps the automatic batch width: an in-process campaign
// gives each worker its fair share of the layouts up to this many lanes,
// and a campaignd worker tops a lease group up to this many tasks.
const AutoBatchLanes = 32

// maxBatchLanes is the walk engines' lane limit (one miss-mask word).
const maxBatchLanes = 64

// AutoBatch is the automatic batch width of one of workers consumers
// sharing tasks: its fair share, ceil(tasks/workers), capped at
// AutoBatchLanes and at least 1.
func AutoBatch(tasks, workers int) int {
	if workers < 1 {
		workers = 1
	}
	return max(1, min((tasks+workers-1)/workers, AutoBatchLanes))
}

// batchSize resolves the campaign's effective batch width for a worker
// count: 0 is automatic (each worker's fair share of the campaign,
// AutoBatch), 1 disables batching. FidelityPaperNaive always runs
// sequentially — that fidelity exists to literally execute every
// protocol run, so serving it from a shared replay would defeat its
// purpose as the equivalence reference.
func (c *CampaignConfig) batchSize(workers int) int {
	if c.Fidelity == pmc.FidelityPaperNaive {
		return 1
	}
	b := c.BatchSize
	if b == 0 {
		b = AutoBatch(c.Layouts, workers)
	}
	if b < 1 {
		b = 1
	}
	if b > maxBatchLanes {
		b = maxBatchLanes
	}
	return b
}

// detCache holds the deterministic replays of one batch chunk, keyed by
// the run spec fields that determine the deterministic outcome. It backs
// the worker's pmc.Harness through the pmc.DetSource seam. Entries are
// only ever written from a successful machine.Batch.Run, whose results
// are pinned bit-identical to the scalar path, so a hit can never change
// a measurement. The cache is per worker slot and reset at every chunk;
// lookups are a linear scan over at most one chunk of entries.
type detCache struct {
	specs []machine.RunSpec
	cs    []machine.Counters
	dets  []float64
}

func (dc *detCache) reset() {
	dc.specs = dc.specs[:0]
	dc.cs = dc.cs[:0]
	dc.dets = dc.dets[:0]
}

func (dc *detCache) put(spec machine.RunSpec, c machine.Counters, det float64) {
	dc.specs = append(dc.specs, spec)
	dc.cs = append(dc.cs, c)
	dc.dets = append(dc.dets, det)
}

// Det implements pmc.DetSource. NoiseSeed and DisableNoise are ignored:
// noise perturbs only the final cycle scalar, never the deterministic
// replay. A non-nil Predictor never matches — the batch ran with the
// built-in predictor.
func (dc *detCache) Det(spec machine.RunSpec) (machine.Counters, float64, bool) {
	if spec.Predictor != nil {
		return machine.Counters{}, 0, false
	}
	for j := range dc.specs {
		s := &dc.specs[j]
		if s.Exe == spec.Exe && s.Trace == spec.Trace &&
			s.HeapMode == spec.HeapMode && s.HeapSeed == spec.HeapSeed {
			return dc.cs[j], dc.dets[j], true
		}
	}
	return machine.Counters{}, 0, false
}

// batchSlot is one in-process campaign worker's batched-replay state:
// the walk engines it holds for the campaign, the det cache its harness
// reads, and per-chunk scratch.
type batchSlot struct {
	batch *machine.Batch
	// delta is the delta-replay engine, present only when the campaign's
	// DeltaMode allows it and the machine config passes its geometry
	// gates; nil otherwise. walk tries it before the batched walk.
	delta *machine.Delta
	cache *detCache

	idxs  []int // pending layout indices of the current chunk
	exes  []*toolchain.Executable
	errs  []error
	specs []machine.RunSpec
}

// walk measures specs in one trace walk, choosing the engine per the
// campaign's DeltaMode: DeltaOn tries the delta engine d first and falls
// back to the batched walk b on any decline; DeltaAuto additionally
// requires the recording's profitability preflight to pass. Both engines
// are pinned bit-identical to the scalar path, so the choice never
// changes results. A panic in either engine is recovered as a failed
// walk. Every outcome is counted on co. The returned slices belong to
// the engine that produced them and are reused by its next walk.
func walk(cfg *CampaignConfig, co *campaignObs, b *machine.Batch, d *machine.Delta, specs []machine.RunSpec) (cs []machine.Counters, dets []float64, err error) {
	defer func() {
		if v := recover(); v != nil {
			cs, dets, err = nil, nil, &PanicError{Value: v, Stack: debug.Stack()}
			co.declined(declineWalkPanic)
		}
	}()
	if d != nil && len(specs) > 0 {
		use := cfg.Delta == DeltaOn
		if cfg.Delta == DeltaAuto {
			ok, perr := d.Preflight(specs[0])
			use = perr == nil && ok
			if !use {
				co.declined(declineDeltaPreflight)
			}
		}
		if use {
			if cs, dets, err := d.Run(specs); err == nil {
				co.walked(true, len(specs))
				return cs, dets, nil
			}
			// A decline (unsupported layout shape, spec mix, or a
			// defensive divergence check) costs only the preflight;
			// the batched walk below measures the same specs.
			co.declined(declineDeltaError)
		}
	}
	if cs, dets, err = b.Run(specs); err != nil {
		co.declined(declineWalkError)
		return nil, nil, err
	}
	co.walked(false, len(specs))
	return cs, dets, nil
}

// batchPool recycles batch engines across campaigns and walks: a Batch's
// SoA state is megabytes of bank tables, and allocating (and zeroing) it
// per walk costs more than a small group's shared walk saves. Run
// re-derives all layout-dependent state and flushes every bank, so a
// recycled engine is indistinguishable from a fresh one; only engines
// matching the campaign's exact machine config and lane need are reused.
var batchPool = sync.Pool{}

// getBatch returns a pooled or fresh engine for the config, or an error
// when the configuration cannot be batched.
func getBatch(mcfg machine.Config, lanes int) (*machine.Batch, error) {
	if v := batchPool.Get(); v != nil {
		b := v.(*machine.Batch)
		if b.Config() == mcfg && b.MaxLanes() >= lanes {
			return b, nil
		}
		// Wrong geometry: drop it rather than chaining Gets.
	}
	return machine.NewBatch(mcfg, lanes)
}

// deltaPool recycles delta engines the same way batchPool recycles batch
// engines: the per-lane replay state is sized by the machine config, and
// a held recording is reused only for the trace it was built from, so a
// recycled engine measures exactly like a fresh one.
var deltaPool = sync.Pool{}

// getDelta returns a pooled or fresh delta engine for the config, or nil
// when the configuration fails the delta geometry gates (the campaign
// then simply never tries delta replay — never an error).
func getDelta(mcfg machine.Config, lanes int) *machine.Delta {
	if v := deltaPool.Get(); v != nil {
		d := v.(*machine.Delta)
		if d.Config() == mcfg && d.MaxLanes() >= lanes {
			return d
		}
	}
	d, err := machine.NewDelta(mcfg, lanes)
	if err != nil {
		return nil
	}
	return d
}

// putEngines returns walk engines to their pools as they are; either
// may be nil. A returned engine keeps its program-keyed tables (the
// batch engine's block tables, the delta engine's recording, both
// matched by program identity and trace key), so the next walk of the
// same trace reuses them. sync.Pool drops idle entries within two
// garbage collections, which bounds what a pooled engine pins.
func putEngines(b *machine.Batch, d *machine.Delta) {
	if b != nil {
		batchPool.Put(b)
	}
	if d != nil {
		deltaPool.Put(d)
	}
}

// newBatchSlots builds one batchSlot per worker and wires each harness's
// Det source. It returns nil when the machine configuration cannot be
// batched (a cache or BTB geometry over 8 ways); the caller falls back
// to the sequential path. Unless the campaign disabled delta replay,
// each slot also carries a delta engine for walk to try first. The
// slots' engines must be released back to their pools with
// releaseBatchSlots when the campaign finishes.
func newBatchSlots(mcfg machine.Config, harnesses []*pmc.Harness, lanes int, dm DeltaMode) []*batchSlot {
	slots := make([]*batchSlot, len(harnesses))
	for w := range slots {
		b, err := getBatch(mcfg, lanes)
		if err != nil {
			return nil
		}
		slots[w] = &batchSlot{batch: b, cache: &detCache{}}
		if dm != DeltaOff {
			slots[w].delta = getDelta(mcfg, lanes)
		}
		harnesses[w].Det = slots[w].cache
	}
	return slots
}

// releaseBatchSlots returns every slot's engines to their pools when
// the campaign finishes. Invalidate first drops the engines'
// program-keyed tables so a pooled engine does not pin the finished
// campaign's program in memory.
func releaseBatchSlots(slots []*batchSlot) {
	for _, s := range slots {
		if s == nil {
			continue
		}
		if s.batch != nil {
			s.batch.Invalidate()
		}
		if s.delta != nil {
			s.delta.Invalidate()
		}
		putEngines(s.batch, s.delta)
		s.batch, s.delta = nil, nil
	}
}

// measureChunk drives the layouts of one chunk [lo, hi) on worker w,
// phase by phase:
//
//	A. one guarded build attempt per layout (exactly attempt one of
//	   measureLayout);
//	B. one batched trace walk over every successfully built layout,
//	   priming the worker's det cache — a batch failure just leaves the
//	   cache empty and phase C simulates sequentially;
//	C. per layout, the sequential pipeline: measureBuilt through the
//	   (possibly fault-wrapped) measure seam, then on any failure the
//	   same retry tail measureLayout runs — full build+measure attempts
//	   with the campaign's backoff, identical error wrapping, identical
//	   attempt accounting.
//
// A panic in a per-layout phase is that layout's final failure (the
// sequential supervisor does not retry panics); a panic in the shared
// batch walk is treated as a batch failure, costing only the shortcut.
// deliver and fail receive each layout's outcome exactly as the
// sequential sweep body would produce it.
func measureChunk(cfg *CampaignConfig, co *campaignObs, slot *batchSlot, meas measureSeam, build buildSeam, trace *interp.Trace, lo, hi, w int, done []bool, deliver func(i int, o Observation), fail func(i int, err error)) {
	slot.idxs = slot.idxs[:0]
	for i := lo; i < hi; i++ {
		if done[i] {
			if co != nil {
				co.o.Prog().Done()
			}
			continue
		}
		slot.idxs = append(slot.idxs, i)
	}
	if len(slot.idxs) == 0 {
		return
	}
	slot.exes = slot.exes[:0]
	slot.errs = slot.errs[:0]
	slot.cache.reset()

	// Phase A: attempt one's build for every layout in the chunk.
	for _, i := range slot.idxs {
		if co != nil {
			co.attempts.Inc()
		}
		var exe *toolchain.Executable
		err := runGuarded(func(_, _ int) error {
			var berr error
			exe, berr = buildLayout(cfg, co, build, i, w)
			return berr
		}, w, i)
		if err != nil {
			exe = nil
		}
		slot.exes = append(slot.exes, exe)
		slot.errs = append(slot.errs, err)
	}

	// Phase B: one trace walk for every built layout. The spec mirrors
	// measureBuilt's exactly (Batch.Run ignores the noise fields).
	slot.specs = slot.specs[:0]
	for j, i := range slot.idxs {
		if slot.exes[j] == nil {
			continue
		}
		hs := uint64(0)
		if cfg.HeapMode == heap.ModeRandomized {
			hs = cfg.heapSeed(i)
		}
		slot.specs = append(slot.specs, machine.RunSpec{
			Exe:      slot.exes[j],
			Trace:    trace,
			HeapMode: cfg.HeapMode,
			HeapSeed: hs,
		})
	}
	if len(slot.specs) > 0 {
		if cs, dets, err := walk(cfg, co, slot.batch, slot.delta, slot.specs); err == nil {
			for j := range slot.specs {
				slot.cache.put(slot.specs[j], cs[j], dets[j])
			}
		}
	}

	// Phase C: the per-layout pipeline, sequential semantics verbatim.
	for j, i := range slot.idxs {
		layoutStage := newLayoutStage(cfg, co, i, w)
		var o Observation
		err := slot.errs[j]
		if err == nil {
			err = runGuarded(func(_, _ int) error {
				var merr error
				o, merr = measureBuilt(cfg, co, meas, trace, slot.exes[j], i, w)
				return merr
			}, w, i)
		}
		if err == nil {
			o.Attempts = 1
		} else if _, isPanic := err.(*PanicError); isPanic {
			// A recovered panic is the layout's final failure: the
			// sequential supervisor never retries across a panic.
			layoutStage.end()
			fail(i, err)
			continue
		} else {
			firstErr := err
			err = runGuarded(func(_, _ int) error {
				var rerr error
				o, rerr = resumeLayout(cfg, co, meas, build, trace, i, w, firstErr)
				return rerr
			}, w, i)
			if err != nil {
				layoutStage.end()
				fail(i, err)
				continue
			}
		}
		layoutStage.end()
		deliver(i, o)
	}
}

// resumeLayout is measureLayout's retry tail: attempt one already failed
// with firstErr, so run attempts 2..maxAttempts with the same backoff
// spacing, retry telemetry, status stamping and error wrapping as the
// sequential loop.
func resumeLayout(cfg *CampaignConfig, co *campaignObs, meas measureSeam, build buildSeam, trace *interp.Trace, i, w int, firstErr error) (Observation, error) {
	attempts := cfg.maxAttempts()
	lastErr := firstErr
	for a := 1; a < attempts; a++ {
		if co != nil {
			co.o.Prog().Retry()
		}
		if serr := cfg.Backoff.Sleep(cfg.context(), a, cfg.BaseSeed, cfg.layoutSeed(i)); serr != nil {
			return Observation{}, fmt.Errorf("core: layout %d: retry backoff interrupted: %w", i, serr)
		}
		obs, err := measureLayoutOnce(cfg, co, meas, build, trace, i, w)
		if err == nil {
			obs.Attempts = a + 1
			obs.Status = StatusRetried
			return obs, nil
		}
		lastErr = err
	}
	return Observation{}, fmt.Errorf("core: layout %d failed after %d attempts: %w", i, attempts, lastErr)
}

// newLayoutStage opens the per-layout observability stage the sequential
// measureLayout opens: a "layout" span on the worker and the layout
// duration histogram.
func newLayoutStage(cfg *CampaignConfig, co *campaignObs, i, w int) stage {
	if co == nil {
		return stage{}
	}
	layID := co.layoutID(cfg, i)
	return stage{
		co:   co,
		span: co.o.StartSpan("layout", layID, co.campID, w+1),
		hist: co.layoutSec,
		t0:   time.Now(),
	}
}
