package core

import (
	"errors"
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

// maxBatchLanes is the batch engine's lane limit (one miss-mask word).
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
// the det cache its harness reads and per-chunk scratch. The walk
// engine is borrowed for each walk (walkTrace).
type batchSlot struct {
	cache *detCache

	idxs  []int // pending layout indices of the current chunk
	exes  []*toolchain.Executable
	errs  []error
	built []int // the chunk's successfully built layouts, walked together
	bexes []*toolchain.Executable
}

// walkTrace is the one trace walk behind every shared replay: in-process
// chunks (measureChunk), LayoutRunner.PrimeBatch and PrimeGenomes, and
// through those campaignd's lease groups. It replays trace once for exes
// on a batch engine borrowed from batchPool and leaves each layout's
// deterministic replay in dc, where the slot's harness finds it;
// heapSeed derives lane j's heap seed under ModeRandomized.
//
// Fewer than two layouts are not walked: they replay on the scalar
// engine. FidelityPaperNaive, a group over the engine's lanes, a machine
// geometry the banks cannot hold, and a walk that fails or panics
// decline, leaving dc empty so every layout replays on the scalar
// engine. The walk is pinned bit-identical to the scalar replay, so no
// outcome changes a result. Every outcome is counted on co, and the
// returned error is diagnostic only.
func walkTrace(cfg *CampaignConfig, co *campaignObs, dc *detCache, trace *interp.Trace, exes []*toolchain.Executable, heapSeed func(j int) uint64) (err error) {
	dc.reset()
	switch {
	case len(exes) < 2:
		return nil
	case cfg.Fidelity == pmc.FidelityPaperNaive:
		co.declined(declineFidelity)
		return errors.New("core: FidelityPaperNaive executes every run; no shared walk")
	case len(exes) > maxBatchLanes:
		co.declined(declineLanes)
		return fmt.Errorf("core: %d layouts exceed the walk's %d lanes", len(exes), maxBatchLanes)
	}
	b, err := getBatch(cfg.machineConfig(), len(exes))
	if err != nil {
		co.declined(declineGeometry)
		return err
	}
	defer func() {
		if v := recover(); v != nil {
			// A panicked engine is dropped, not pooled.
			dc.reset()
			err = &PanicError{Value: v, Stack: debug.Stack()}
			co.declined(declineWalkPanic)
			return
		}
		batchPool.Put(b)
	}()
	for j, exe := range exes {
		hs := uint64(0)
		if cfg.HeapMode == heap.ModeRandomized {
			hs = heapSeed(j)
		}
		dc.specs = append(dc.specs, machine.RunSpec{
			Exe:      exe,
			Trace:    trace,
			HeapMode: cfg.HeapMode,
			HeapSeed: hs,
		})
	}
	cs, dets, err := b.Run(dc.specs)
	if err != nil {
		dc.reset()
		co.declined(declineWalkError)
		return err
	}
	// The engine's result slices are reused by its next walk, so the
	// replays are copied into the cache before the engine goes back.
	dc.cs = append(dc.cs, cs...)
	dc.dets = append(dc.dets, dets...)
	co.walked(len(exes))
	return nil
}

// batchPool recycles batch engines across campaigns and walks: a Batch's
// SoA state is megabytes of bank tables, and allocating (and zeroing) it
// per walk costs more than a small group's shared walk saves. Run
// re-derives all layout-dependent state and flushes every bank, so a
// recycled engine is indistinguishable from a fresh one; only engines
// matching the campaign's exact machine config and lane need are reused.
// A pooled engine keeps its program-keyed block tables, so the next walk
// of the same program reuses them; sync.Pool drops idle entries within
// two garbage collections, which bounds what a pooled engine pins.
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

// batchable reports whether the batch engine accepts the campaign's
// machine config at the given width. An in-process campaign asks once:
// a refusal is counted as one decline and the campaign runs the
// sequential supervisor. The engine built to find out is pooled for the
// campaign's first walk.
func batchable(cfg *CampaignConfig, co *campaignObs, lanes int) bool {
	b, err := getBatch(cfg.machineConfig(), lanes)
	if err != nil {
		co.declined(declineGeometry)
		return false
	}
	batchPool.Put(b)
	return true
}

// measureChunk drives the layouts of one chunk [lo, hi) on worker w,
// phase by phase:
//
//	A. one guarded build attempt per layout (exactly attempt one of
//	   measureLayout);
//	B. one trace walk (walkTrace) over every successfully built layout,
//	   priming the worker's det cache — a declined walk, or a chunk with
//	   one layout built, leaves the cache empty and phase C replays on
//	   the scalar engine;
//	C. per layout, the sequential pipeline: measureBuilt through the
//	   (possibly fault-wrapped) measure seam, then on any failure the
//	   same retry tail measureLayout runs — full build+measure attempts
//	   with the campaign's backoff, identical error wrapping, identical
//	   attempt accounting.
//
// A panic in a per-layout phase is that layout's final failure (the
// sequential supervisor does not retry panics); a panic in the shared
// walk is a declined walk, costing only the shortcut.
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
	slot.built = slot.built[:0]
	slot.bexes = slot.bexes[:0]

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
		} else {
			slot.built = append(slot.built, i)
			slot.bexes = append(slot.bexes, exe)
		}
		slot.exes = append(slot.exes, exe)
		slot.errs = append(slot.errs, err)
	}

	// Phase B: one trace walk for every built layout. A decline is
	// counted and only means phase C replays on the scalar engine.
	_ = walkTrace(cfg, co, slot.cache, trace, slot.bexes, func(j int) uint64 { return cfg.heapSeed(slot.built[j]) })

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
