package core

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync/atomic"

	"interferometry/internal/machine"
	"interferometry/internal/pmc"
	"interferometry/internal/toolchain"
)

// This file is the campaign side of batched replay (machine.Batch):
// LayoutRunner.Measure builds a chunk of layouts, walks the trace ONCE
// for the whole chunk (walkTrace), and then drives every layout through
// the per-layout measure and retry steps. The walk primes the slot's
// detCache, which the slot's pmc.Harness consults through the
// pmc.DetSource seam, so the harness synthesizes each measurement from
// the walk's deterministic replay instead of re-simulating. Batch.Run is
// pinned bit-identical to Machine.RunDeterministic lane by lane, which
// makes a campaign of any chunk width byte-identical to one of width 1:
// same observations, same statuses, same CSV bytes.

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

// batchSize resolves the campaign's chunk width for a worker count: 0
// is automatic (each worker's fair share of the campaign, AutoBatch), 1
// is the scalar-replay reference. FidelityPaperNaive always runs chunks
// of one — that fidelity exists to literally execute every protocol
// run, so serving it from a shared replay would defeat its purpose as
// the equivalence reference.
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

// walkTrace is the one trace walk behind every shared replay; Measure is
// its only caller. It replays the trace once for exes on a batch engine
// borrowed from batchPool and leaves each layout's deterministic replay
// in slot w's det cache, where the slot's harness finds it; heapSeeds[j]
// is lane j's heap seed (zero outside ModeRandomized).
//
// Fewer than two layouts are not walked: they replay on the scalar
// engine. FidelityPaperNaive, a group over the engine's lanes, a machine
// geometry the banks cannot hold, and a walk that fails or panics
// decline, leaving the cache empty so every layout replays on the scalar
// engine. The walk is pinned bit-identical to the scalar replay, so no
// outcome changes a result. Every outcome is counted on the campaign's
// observer, and the returned error is diagnostic only.
func (r *LayoutRunner) walkTrace(w int, exes []*toolchain.Executable, heapSeeds []uint64) (err error) {
	cfg, co, dc := &r.cfg, r.co, r.dets[w]
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
		putBatch(b)
	}()
	for j, exe := range exes {
		dc.specs = append(dc.specs, machine.RunSpec{
			Exe:      exe,
			Trace:    r.trace,
			HeapMode: cfg.HeapMode,
			HeapSeed: heapSeeds[j],
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
// of the same program reuses them. The pool is one list for every
// processor and holds one idle engine per processor the process starts
// with, so a walk never misses an idle engine and builds another, and a
// process walking on k slots holds k engines from run to run. Like a
// sync.Pool it gives them up after a garbage collection cycle without a
// walk (batchAging), so a process that stops walking does not keep them.
var batchPool = make(chan *machine.Batch, runtime.GOMAXPROCS(0))

// batchLends counts getBatch calls for batchAging.
var batchLends atomic.Uint64

// getBatch returns a pooled or fresh engine for the config, or an error
// when the configuration cannot be batched.
func getBatch(mcfg machine.Config, lanes int) (*machine.Batch, error) {
	batchLends.Add(1)
	select {
	case b := <-batchPool:
		if b.Config() == mcfg && b.MaxLanes() >= lanes {
			return b, nil
		}
		// Wrong geometry: drop it rather than draining the pool.
	default:
	}
	return machine.NewBatch(mcfg, lanes)
}

// putBatch returns an engine to the pool, or drops it when the pool is
// full.
func putBatch(b *machine.Batch) {
	select {
	case batchPool <- b:
	default:
	}
}

// batchAging empties the pool after a garbage collection cycle in which
// no engine was lent. It is the finalizer of an object nothing else
// references and re-arms itself, so it runs once per cycle. (The pool
// field also keeps the object out of the tiny allocator, whose shared
// blocks can hold a finalizer back.)
type batchAging struct {
	pool  chan *machine.Batch
	lends uint64
}

func init() { runtime.SetFinalizer(&batchAging{pool: batchPool}, (*batchAging).collected) }

func (a *batchAging) collected() {
	if n := batchLends.Load(); n != a.lends {
		a.lends = n
	} else {
		for len(a.pool) > 0 {
			select {
			case <-a.pool:
			default:
			}
		}
	}
	runtime.SetFinalizer(a, (*batchAging).collected)
}

// batchable reports whether the batch engine accepts the campaign's
// machine config at the given width. An in-process campaign asks once:
// a refusal is counted as one decline and the campaign runs chunks of
// one, which never walk. The engine built to find out is pooled for the
// campaign's first walk.
func batchable(cfg *CampaignConfig, co *campaignObs, lanes int) bool {
	b, err := getBatch(cfg.machineConfig(), lanes)
	if err != nil {
		co.declined(declineGeometry)
		return false
	}
	putBatch(b)
	return true
}
