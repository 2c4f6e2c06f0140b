// Package faultinject is a seeded, deterministic fault injector for the
// campaign supervisor's test harness. It wraps the two seams every
// measurement passes through — Build (layout linking) and Measure
// (counter harness) — and injects errors, panics, corrupted results and
// slow calls at configurable rates.
//
// Determinism is the whole point: the decision for a given call is a pure
// function of (injector seed, site, key, attempt), where the key is the
// layout seed and the attempt counts prior calls for that (site, key).
// The same campaign run with the same injector therefore fails in exactly
// the same places regardless of worker count or goroutine scheduling, and
// a bounded retry deterministically clears an injected fault once the
// attempt number exceeds MaxFaults. That is what lets the test suite
// assert bit-identical recovery: a faulty campaign with retries must
// reproduce the clean campaign's measurements exactly.
package faultinject

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"interferometry/internal/machine"
	"interferometry/internal/obs"
	"interferometry/internal/pmc"
	"interferometry/internal/toolchain"
	"interferometry/internal/xrand"
)

// ErrInjected is the sentinel wrapped by every injected error, so tests
// can distinguish injected failures from real ones with errors.Is.
var ErrInjected = errors.New("faultinject: injected failure")

// Site identifies an injection seam.
type Site uint8

// Injection sites.
const (
	// SiteBuild is the toolchain Build seam (one call per layout link).
	SiteBuild Site = iota
	// SiteMeasure is the pmc Measure seam (one call per observation).
	SiteMeasure
	numSites
)

func (s Site) String() string {
	switch s {
	case SiteBuild:
		return "build"
	case SiteMeasure:
		return "measure"
	default:
		return fmt.Sprintf("Site(%d)", uint8(s))
	}
}

// Kind is the fault injected into one call.
type Kind uint8

// Fault kinds. At most one fault fires per call.
const (
	KindNone Kind = iota
	// KindError makes the call return an error wrapping ErrInjected.
	KindError
	// KindPanic makes the call panic, exercising worker panic recovery.
	KindPanic
	// KindCorrupt lets the call succeed but corrupts its result: a build
	// gets an out-of-segment block address (caught by
	// toolchain.CheckExecutable), a measurement gets its cycle count
	// scaled ×1024 (caught by the campaign's MAD outlier screen).
	KindCorrupt
	// KindSlow delays the call by Rates.SlowDelay, then lets it through:
	// a fixed stretch that holds work in flight for deadline,
	// lease-expiry and drain tests.
	KindSlow
	// KindSpike delays the call by a seeded exponential draw calibrated
	// so its 99th percentile is Rates.SpikeP99, then lets it through —
	// the tail-latency fault, which stretches one task's build or
	// measurement, and with it the lease group holding it, against
	// heartbeats, lease expiry and deadlines.
	KindSpike
	numKinds
)

func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindError:
		return "error"
	case KindPanic:
		return "panic"
	case KindCorrupt:
		return "corrupt"
	case KindSlow:
		return "slow"
	case KindSpike:
		return "spike"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Rates configures per-call fault probabilities for one site. The
// probabilities are evaluated cumulatively (Error first, then Panic,
// Corrupt, Slow, Spike), so their sum must be <= 1.
type Rates struct {
	Error   float64
	Panic   float64
	Corrupt float64
	Slow    float64
	Spike   float64
	// SlowDelay is the latency of a KindSlow fault. Zero means 1ms.
	SlowDelay time.Duration
	// SpikeP99 calibrates KindSpike: delays are drawn from a seeded
	// exponential distribution whose 99th percentile is SpikeP99, so
	// most spikes are mild and a deterministic few are tail events.
	// Zero means 10ms.
	SpikeP99 time.Duration
	// MaxFaults bounds how many calls for the same (site, key) may fault
	// before the injector lets every later call through, so a caller with
	// MaxFaults+1 attempts always eventually succeeds. Zero means 1.
	MaxFaults int
}

func (r Rates) maxFaults() int {
	if r.MaxFaults <= 0 {
		return 1
	}
	return r.MaxFaults
}

func (r Rates) spikeP99() time.Duration {
	if r.SpikeP99 <= 0 {
		return 10 * time.Millisecond
	}
	return r.SpikeP99
}

// Config sets the per-site rates of an injector.
type Config struct {
	Build   Rates
	Measure Rates
}

// Injector decides, deterministically, which calls fault. It is safe for
// concurrent use.
type Injector struct {
	seed uint64
	cfg  Config

	mu       sync.Mutex
	attempts map[attemptKey]uint64
	counts   [numSites][numKinds]int
	metrics  [numSites][numKinds]*obs.Counter
	total    *obs.Counter
}

type attemptKey struct {
	site Site
	key  uint64
}

// New returns an injector keyed by seed. Two injectors with the same seed
// and config make identical decisions.
func New(seed uint64, cfg Config) *Injector {
	return &Injector{seed: seed, cfg: cfg, attempts: make(map[attemptKey]uint64)}
}

// Observe mirrors every future injected fault into per-site, per-kind
// counters of o's registry (interferometry_faults_injected_total plus
// interferometry_fault_<site>_<kind>_total), so a fault-injection
// campaign's metrics dump shows exactly what was thrown at it. Call
// before the injector is shared across workers.
func (in *Injector) Observe(o *obs.Observer) {
	if o == nil {
		return
	}
	total := o.Counter("interferometry_faults_injected_total", "faults injected across all sites and kinds")
	in.mu.Lock()
	defer in.mu.Unlock()
	for s := Site(0); s < numSites; s++ {
		for k := KindNone + 1; k < numKinds; k++ {
			name := fmt.Sprintf("interferometry_fault_%s_%s_total", s, Kind(k))
			help := fmt.Sprintf("%s faults injected at the %s seam", Kind(k), s)
			in.metrics[s][k] = o.Counter(name, help)
		}
	}
	in.total = total
}

// Counts returns how many faults of each kind have fired at a site.
func (in *Injector) Counts(site Site) map[Kind]int {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[Kind]int)
	for k := KindNone + 1; k < numKinds; k++ {
		if n := in.counts[site][k]; n > 0 {
			out[k] = n
		}
	}
	return out
}

// Injected returns the total number of faults fired across all sites.
func (in *Injector) Injected() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	total := 0
	for s := Site(0); s < numSites; s++ {
		for k := KindNone + 1; k < numKinds; k++ {
			total += in.counts[s][k]
		}
	}
	return total
}

func (in *Injector) rates(site Site) Rates {
	if site == SiteBuild {
		return in.cfg.Build
	}
	return in.cfg.Measure
}

// decide draws the fault for the next call at (site, key), returning
// the kind and the call's attempt number (kind-specific draws, like the
// spike duration, key off it). The attempt number is the count of prior
// calls for that pair, so the decision sequence per key is stable under
// any goroutine interleaving as long as calls for one key are not
// concurrent with each other (the supervisor measures each layout on a
// single worker at a time).
func (in *Injector) decide(site Site, key uint64) (Kind, uint64) {
	r := in.rates(site)
	in.mu.Lock()
	ak := attemptKey{site, key}
	attempt := in.attempts[ak]
	in.attempts[ak] = attempt + 1
	in.mu.Unlock()
	if attempt >= uint64(r.maxFaults()) {
		return KindNone, attempt
	}
	p := xrand.New(xrand.Mix(in.seed, 0xfa017+uint64(site), key, attempt)).Float64()
	kind := KindNone
	switch {
	case p < r.Error:
		kind = KindError
	case p < r.Error+r.Panic:
		kind = KindPanic
	case p < r.Error+r.Panic+r.Corrupt:
		kind = KindCorrupt
	case p < r.Error+r.Panic+r.Corrupt+r.Slow:
		kind = KindSlow
	case p < r.Error+r.Panic+r.Corrupt+r.Slow+r.Spike:
		kind = KindSpike
	}
	if kind != KindNone {
		in.mu.Lock()
		in.counts[site][kind]++
		c, total := in.metrics[site][kind], in.total
		in.mu.Unlock()
		c.Inc()
		total.Inc()
	}
	return kind, attempt
}

func (in *Injector) sleep(site Site) {
	d := in.rates(site).SlowDelay
	if d <= 0 {
		d = time.Millisecond
	}
	time.Sleep(d)
}

// SpikeDelay returns the deterministic latency of the KindSpike fault at
// (site, key, attempt): an inverse-CDF exponential draw scaled so that
// P(delay <= SpikeP99) = 0.99. The draw is a pure function of the
// injector seed and the call coordinates, so a replayed campaign spikes
// by exactly the same amounts in exactly the same places.
func (in *Injector) SpikeDelay(site Site, key, attempt uint64) time.Duration {
	p99 := in.rates(site).spikeP99()
	u := xrand.New(xrand.Mix(in.seed, 0x5b1ce+uint64(site), key, attempt)).Float64()
	// Exponential quantile: -ln(1-u)/λ with λ chosen so q(0.99) = p99.
	d := time.Duration(-math.Log1p(-u) / math.Ln10 / 2 * float64(p99))
	// Clamp the unbounded tail at 4×p99 so one unlucky draw cannot stall
	// a worker past any realistic lease; the clamp is itself
	// deterministic, so replays still agree.
	if max := 4 * p99; d > max {
		d = max
	}
	return d
}

func (in *Injector) spike(site Site, key, attempt uint64) {
	time.Sleep(in.SpikeDelay(site, key, attempt))
}

// Builder is the narrow build seam: toolchain.Builder satisfies it.
type Builder interface {
	Build(seed uint64) (*toolchain.Executable, error)
}

// Measurer is the narrow measurement seam: pmc.Harness satisfies it.
type Measurer interface {
	Measure(spec machine.RunSpec) (pmc.Measurement, error)
}

// WrapBuilder returns a Builder that injects faults keyed by the layout
// seed before delegating to b.
func (in *Injector) WrapBuilder(b Builder) Builder {
	return &faultyBuilder{in: in, b: b}
}

// WrapMeasurer returns a Measurer that injects faults keyed by the
// executable's layout seed before delegating to m.
func (in *Injector) WrapMeasurer(m Measurer) Measurer {
	return &faultyMeasurer{in: in, m: m}
}

type faultyBuilder struct {
	in *Injector
	b  Builder
}

func (f *faultyBuilder) Build(seed uint64) (*toolchain.Executable, error) {
	kind, attempt := f.in.decide(SiteBuild, seed)
	switch kind {
	case KindError:
		return nil, fmt.Errorf("%w: build for layout seed %#x", ErrInjected, seed)
	case KindPanic:
		panic(fmt.Sprintf("faultinject: build panic for layout seed %#x", seed))
	case KindSlow:
		f.in.sleep(SiteBuild)
	case KindSpike:
		f.in.spike(SiteBuild, seed, attempt)
	case KindCorrupt:
		exe, err := f.b.Build(seed)
		if err != nil {
			return nil, err
		}
		return corruptExecutable(exe), nil
	}
	return f.b.Build(seed)
}

// corruptExecutable returns a shallow copy of exe with one block address
// pushed past the text segment — the kind of silent build corruption
// toolchain.CheckExecutable exists to catch. The input is not modified
// (the builder's other consumers must keep seeing a clean executable).
func corruptExecutable(exe *toolchain.Executable) *toolchain.Executable {
	cp := *exe
	cp.BlockAddr = append([]uint64(nil), exe.BlockAddr...)
	if len(cp.BlockAddr) > 0 {
		cp.BlockAddr[0] = cp.CodeLimit + 0x1000
	}
	return &cp
}

type faultyMeasurer struct {
	in *Injector
	m  Measurer
}

func (f *faultyMeasurer) Measure(spec machine.RunSpec) (pmc.Measurement, error) {
	key := uint64(0)
	if spec.Exe != nil {
		key = spec.Exe.Seed
	}
	kind, attempt := f.in.decide(SiteMeasure, key)
	switch kind {
	case KindError:
		return pmc.Measurement{}, fmt.Errorf("%w: measurement for layout seed %#x", ErrInjected, key)
	case KindPanic:
		panic(fmt.Sprintf("faultinject: measurement panic for layout seed %#x", key))
	case KindSlow:
		f.in.sleep(SiteMeasure)
	case KindSpike:
		f.in.spike(SiteMeasure, key, attempt)
	case KindCorrupt:
		m, err := f.m.Measure(spec)
		if err != nil {
			return pmc.Measurement{}, err
		}
		// A wildly implausible cycle count models a disturbed measurement
		// (SMI storm, co-scheduled noise): the counters are internally
		// consistent, so only a robust statistical screen can flag it.
		m.Cycles *= 1024
		return m, nil
	}
	return f.m.Measure(spec)
}
