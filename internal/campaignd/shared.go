package campaignd

import (
	"fmt"
	"sync"

	"interferometry/internal/core"
	"interferometry/internal/experiments"
	"interferometry/internal/interp"
	"interferometry/internal/isa"
	"interferometry/internal/progen"
)

// maxSharedTraces bounds the traces one process holds for sharing. It is
// the worker runner cache's bound (maxWorkerRunners): a worker never
// needs more traces than it holds runners, and a coordinator's admitted
// campaigns overwhelmingly share one benchmark and budget.
const maxSharedTraces = maxWorkerRunners

// sharedWork is one process's cache of the work every campaign of a
// benchmark and budget would otherwise repeat: the generated program per
// suite name, and the interpreted trace per (program, input seed, stop
// rule). Both are pure functions of their keys and read-only once built
// (a layout moves addresses, never the instruction stream), so every
// campaign and runner in the process shares them. Programs are bounded
// by the suite; traces by maxSharedTraces, dropping the least recently
// used, so memory does not grow with the campaigns or budgets submitted.
// A runner keeps the trace it was handed for as long as it lives, so
// eviction only stops new runners from sharing it. The lock guards only
// the tables: each key's build runs outside it, once, and concurrent
// first requests for that key wait for the one build while other keys
// go ahead.
type sharedWork struct {
	mu       sync.Mutex
	programs map[string]*sharedBuild[*isa.Program]
	traces   []*traceEntry // least recently used first
	// interpret generates a trace; nil means interp.Run. Tests
	// substitute a build they can hold open.
	interpret func(*isa.Program, uint64, interp.StopRule) (*interp.Trace, error)
}

// sharedBuild is one key's build: the first caller runs it, later
// callers wait for and share its outcome.
type sharedBuild[T any] struct {
	once sync.Once
	v    T
	err  error
}

func (b *sharedBuild[T]) get(build func() (T, error)) (T, error) {
	b.once.Do(func() { b.v, b.err = build() })
	return b.v, b.err
}

// traceKey names a trace: what interp.Run is a pure function of.
type traceKey struct {
	prog *isa.Program
	seed uint64
	stop interp.StopRule
}

type traceEntry struct {
	key traceKey
	sharedBuild[*interp.Trace]
}

// program returns the suite program of a benchmark, generating it on
// first use.
func (sw *sharedWork) program(name string) (*isa.Program, error) {
	ps, ok := progen.ByName(name)
	if !ok {
		return nil, fmt.Errorf("campaignd: unknown benchmark %q", name)
	}
	sw.mu.Lock()
	b, ok := sw.programs[name]
	if !ok {
		if sw.programs == nil {
			sw.programs = make(map[string]*sharedBuild[*isa.Program])
		}
		b = &sharedBuild[*isa.Program]{}
		sw.programs[name] = b
	}
	sw.mu.Unlock()
	return b.get(func() (*isa.Program, error) { return progen.Generate(ps) })
}

// trace returns the trace of cfg's program, input seed and stop rule,
// interpreting it on first use, and marks it most recently used. A
// failed interpretation is not kept.
func (sw *sharedWork) trace(cfg core.CampaignConfig) (*interp.Trace, error) {
	run := sw.interpret
	if run == nil {
		run = interp.Run
	}
	e := sw.traceEntry(traceKey{prog: cfg.Program, seed: cfg.InputSeed, stop: cfg.StopRule()})
	t, err := e.get(func() (*interp.Trace, error) {
		t, err := run(e.key.prog, e.key.seed, e.key.stop)
		if err != nil {
			return nil, fmt.Errorf("campaignd: trace generation failed: %w", err)
		}
		return t, nil
	})
	if err != nil {
		sw.mu.Lock()
		for i, held := range sw.traces {
			if held == e {
				sw.traces = append(sw.traces[:i], sw.traces[i+1:]...)
				break
			}
		}
		sw.mu.Unlock()
	}
	return t, err
}

// traceEntry returns key's entry, adding it (and dropping the least
// recently used beyond maxSharedTraces) on first use, and marks it most
// recently used.
func (sw *sharedWork) traceEntry(key traceKey) *traceEntry {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	for i, e := range sw.traces {
		if e.key == key {
			sw.traces = append(append(sw.traces[:i], sw.traces[i+1:]...), e)
			return e
		}
	}
	if len(sw.traces) == maxSharedTraces {
		sw.traces = append(sw.traces[:0], sw.traces[1:]...)
	}
	e := &traceEntry{key: key}
	sw.traces = append(sw.traces, e)
	return e
}

// campaignConfig translates a spec into the core campaign config on the
// shared program — the single place the service, the workers and the
// chaos soak's clean reference agree on what a spec means.
func (sw *sharedWork) campaignConfig(spec JobSpec, scale experiments.Scale) (core.CampaignConfig, error) {
	prog, err := sw.program(spec.Benchmark)
	if err != nil {
		return core.CampaignConfig{}, err
	}
	return core.CampaignConfig{
		Program:   prog,
		InputSeed: 1,
		Budget:    spec.effectiveBudget(scale),
		Layouts:   spec.effectiveLayouts(scale),
		Fidelity:  scale.Fidelity,
		BaseSeed:  spec.effectiveSeed(),
	}, nil
}

// searchConfig translates a search spec into the core search config —
// the single definition the service, the remote workers and the chaos
// soak's clean reference share of what a search spec means.
func (sw *sharedWork) searchConfig(spec JobSpec, scale experiments.Scale) (core.SearchConfig, error) {
	campaign, err := sw.campaignConfig(spec, scale)
	if err != nil {
		return core.SearchConfig{}, err
	}
	cfg := spec.searchShape()
	cfg.Campaign = campaign
	return cfg, nil
}

// runner builds a layout runner for cfg on the shared trace.
func (sw *sharedWork) runner(cfg core.CampaignConfig, workers int) (*core.LayoutRunner, error) {
	trace, err := sw.trace(cfg)
	if err != nil {
		return nil, err
	}
	return core.NewLayoutRunner(cfg, workers, trace)
}
