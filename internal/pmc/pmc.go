// Package pmc is the performance-monitoring-counter harness. It
// reproduces the measurement protocol of §5.5: "the Intel Xeon processor
// allows up to two user-defined microarchitectural events to be counted
// simultaneously. We are interested in more than two events, so we make
// multiple runs of each benchmark... We group the counters into three
// sets of two. For each set we run each benchmark five times and take the
// measurements given by the run with the median number of cycles."
//
// The harness also offers a fast fidelity for large campaigns, where the
// machine model's ability to expose every counter in one run is used
// directly; the paper-faithful protocol remains available and is what the
// protocol tests exercise.
package pmc

import (
	"errors"
	"fmt"

	"interferometry/internal/machine"
	"interferometry/internal/obs"
	"interferometry/internal/stats"
	"interferometry/internal/xrand"
)

// Event identifies one programmable counter event (§5.5 lists the five
// statistics collected; elapsed cycles are a fixed counter available in
// every run).
type Event uint8

// Counter events.
const (
	EvInstructions Event = iota
	EvBranchMispredicts
	EvL1IMisses
	EvL2Misses
	EvL1DMisses
	NumEvents
)

// String names the event like a PAPI preset.
func (e Event) String() string {
	switch e {
	case EvInstructions:
		return "INST_RETIRED"
	case EvBranchMispredicts:
		return "BR_MISP_RETIRED"
	case EvL1IMisses:
		return "L1I_MISSES"
	case EvL2Misses:
		return "L2_MISSES"
	case EvL1DMisses:
		return "L1D_MISSES"
	default:
		return fmt.Sprintf("Event(%d)", uint8(e))
	}
}

// read extracts the event's value from a counter snapshot.
func (e Event) read(c machine.Counters) uint64 {
	switch e {
	case EvInstructions:
		return c.Instructions
	case EvBranchMispredicts:
		return c.BranchMispredicts
	case EvL1IMisses:
		return c.L1IMisses
	case EvL2Misses:
		return c.L2Misses
	case EvL1DMisses:
		return c.L1DMisses
	default:
		panic("pmc: unknown event")
	}
}

// Group is one programming of the two counter slots.
type Group [2]Event

// StandardGroups is the paper's three groups of two covering the five
// events (one slot is spare).
var StandardGroups = []Group{
	{EvInstructions, EvBranchMispredicts},
	{EvL1IMisses, EvL2Misses},
	{EvL1DMisses, EvInstructions},
}

// Fidelity selects the measurement protocol.
type Fidelity uint8

// Fidelities.
const (
	// FidelityFast reads all counters in a single run. Cycles still carry
	// system noise; use it for large campaigns.
	FidelityFast Fidelity = iota
	// FidelityPaper reproduces the §5.5 protocol (RunsPerGroup runs per
	// standard group, keep the median-cycles run of each group) via a
	// single deterministic replay: all 3×RunsPerGroup runs share identical
	// deterministic state, and the noise model perturbs only the final
	// cycle scalar from a per-run seed, so the noisy observations can be
	// synthesized from one simulation. The resulting Measurement is
	// bit-identical to FidelityPaperNaive.
	FidelityPaper
	// FidelityPaperNaive literally performs every run of the §5.5
	// protocol. It exists as the reference for the equivalence tests and
	// costs 3×RunsPerGroup full simulations per measurement.
	FidelityPaperNaive
)

// DetSource supplies precomputed deterministic replays. The batched
// campaign path walks the trace once for a whole group of layouts
// (machine.Batch) and hands the per-layout results to its harnesses
// through this seam, so Measure skips the scalar simulation it would
// otherwise run. A source must return exactly what
// machine.RunDeterministic returns for the spec — same counters, a
// bit-identical raw cycle float — or report ok=false, in which case the
// harness simulates as usual.
type DetSource interface {
	// Det returns the deterministic counters and raw cycle count for
	// spec, or ok=false when the source has no replay for it.
	Det(spec machine.RunSpec) (c machine.Counters, det float64, ok bool)
}

// Harness measures executables on a machine. A harness is not safe for
// concurrent use; create one per goroutine.
type Harness struct {
	Machine *machine.Machine
	// RunsPerGroup is the paper's five. Zero means 5.
	RunsPerGroup int
	Fidelity     Fidelity
	// Metrics optionally counts the harness's work. Nil disables.
	Metrics *HarnessMetrics
	// Det optionally short-circuits the deterministic replay at
	// FidelityFast and FidelityPaper; a source hit is bit-identical to
	// simulating by the DetSource contract, so results do not depend on
	// whether one is wired. FidelityPaperNaive ignores it — that
	// fidelity exists to literally execute every protocol run.
	Det DetSource

	// Per-measurement scratch, reused across Measure calls.
	cycles []float64
	noisy  []uint64
	snaps  []machine.Counters
}

// det resolves one deterministic replay: from the Det source when it has
// the spec, otherwise by simulating on the harness's own machine, which
// scalar reports.
func (h *Harness) det(spec machine.RunSpec) (c machine.Counters, det float64, scalar bool, err error) {
	if h.Det != nil {
		if c, d, ok := h.Det.Det(spec); ok {
			return c, d, false, nil
		}
	}
	c, det, err = h.Machine.RunDeterministic(spec)
	return c, det, true, err
}

// HarnessMetrics are the harness's observability counters, resolved by
// the caller (internal/core builds them from its obs registry; pmc
// itself stays ignorant of metric names). Any field — or the whole
// struct — may be nil.
type HarnessMetrics struct {
	// Measurements counts Measure calls that completed successfully.
	Measurements *obs.Counter
	// Simulations counts full deterministic replays consumed — executed
	// on this harness's machine, or served by its Det source (which ran
	// the replay inside a batched trace walk).
	Simulations *obs.Counter
	// SynthRuns counts protocol runs synthesized from a shared
	// simulation instead of simulated (the FidelityPaper fast path).
	SynthRuns *obs.Counter
	// Scalar counts measurements whose deterministic replay ran on the
	// harness's own machine, one layout at a time, rather than coming
	// from its Det source.
	Scalar *obs.Counter
}

// RunID identifies one measurement for error reporting: the campaign
// layout index and the full seed tuple, enough to reproduce a failed
// invariant from the message alone.
type RunID struct {
	// Layout is the campaign-global layout index; negative means unknown
	// (a measurement made outside a campaign).
	Layout     int
	LayoutSeed uint64
	HeapSeed   uint64
	NoiseSeed  uint64
}

// done records one successful measurement: how many full simulations it
// cost, how many protocol runs were synthesized instead of simulated, and
// whether the harness's own machine replayed it.
func (hm *HarnessMetrics) done(sims, synth uint64, scalar bool) {
	if hm == nil {
		return
	}
	hm.Measurements.Inc()
	hm.Simulations.Add(sims)
	hm.SynthRuns.Add(synth)
	if scalar {
		hm.Scalar.Inc()
	}
}

func (id RunID) String() string {
	if id.Layout < 0 {
		return fmt.Sprintf("layout seed %#x, heap seed %#x, noise seed %#x",
			id.LayoutSeed, id.HeapSeed, id.NoiseSeed)
	}
	return fmt.Sprintf("layout %d (layout seed %#x, heap seed %#x, noise seed %#x)",
		id.Layout, id.LayoutSeed, id.HeapSeed, id.NoiseSeed)
}

// Measurement is the merged counter readout of one layout measurement,
// plus derived metrics.
type Measurement struct {
	Cycles       uint64
	Instructions uint64
	Events       [NumEvents]uint64
	// Runs is the total number of protocol runs the measurement reflects
	// (the paper's 15 at paper fidelity). FidelityPaper synthesizes their
	// observations from a single simulation, so Runs can exceed the
	// number of simulations actually executed.
	Runs int
}

// CPI returns cycles per instruction.
func (m Measurement) CPI() float64 {
	if m.Instructions == 0 {
		return 0
	}
	return float64(m.Cycles) / float64(m.Instructions)
}

// PKI returns the event count per 1000 instructions.
func (m Measurement) PKI(e Event) float64 {
	if m.Instructions == 0 {
		return 0
	}
	return float64(m.Events[e]) / float64(m.Instructions) * 1000
}

// MPKI returns branch mispredictions per 1000 instructions.
func (m Measurement) MPKI() float64 { return m.PKI(EvBranchMispredicts) }

// Check validates the internal plausibility of a measurement against the
// trace it claims to measure: the retired-instruction counter is exact by
// construction, cycles cannot be zero for a nonempty trace, and no event
// fires more than once per instruction-and-miss opportunity allows
// (loosely, events cannot exceed cycles + instructions). A violation
// marks a corrupted readout that the campaign supervisor re-measures
// rather than feeding to the regression. The run's identity — layout
// index and seed tuple — is embedded in every message so the failure is
// reproducible from the error string alone.
func (m Measurement) Check(wantInstrs uint64, id RunID) error {
	if m.Instructions != wantInstrs {
		return fmt.Errorf("pmc: %v: measurement retired %d instructions, trace has %d", id, m.Instructions, wantInstrs)
	}
	if wantInstrs > 0 && m.Cycles == 0 {
		return fmt.Errorf("pmc: %v: measurement has zero cycles for a nonempty trace", id)
	}
	for e := Event(0); e < NumEvents; e++ {
		if limit := m.Cycles + m.Instructions; m.Events[e] > limit {
			return fmt.Errorf("pmc: %v: event %s count %d exceeds plausibility bound %d", id, e, m.Events[e], limit)
		}
	}
	return nil
}

// Measure runs the protocol for one layout. The spec's NoiseSeed is used
// as a base; individual runs derive their own seeds from it, so a
// different base models a different measurement session.
func (h *Harness) Measure(spec machine.RunSpec) (Measurement, error) {
	if h.Machine == nil {
		return Measurement{}, errors.New("pmc: harness has no machine")
	}
	runs := h.RunsPerGroup
	if runs <= 0 {
		runs = 5
	}
	switch h.Fidelity {
	case FidelityFast:
		c, det, scalar, err := h.det(spec)
		if err != nil {
			return Measurement{}, err
		}
		if !spec.DisableNoise {
			c.Cycles = h.Machine.NoisyCycles(spec, det)
		}
		var m Measurement
		m.Cycles = c.Cycles
		m.Instructions = c.Instructions
		for e := Event(0); e < NumEvents; e++ {
			m.Events[e] = e.read(c)
		}
		m.Runs = 1
		h.Metrics.done(1, 0, scalar)
		return m, nil

	case FidelityPaper:
		// Single-replay fast path: every protocol run shares identical
		// deterministic state — the per-run NoiseSeed perturbs only the
		// final cycle scalar — so one simulation plus the per-run noise
		// transform reproduces all 3×runs observations exactly.
		c, det, scalar, err := h.det(spec)
		if err != nil {
			return Measurement{}, err
		}
		h.cycles = resize(h.cycles, runs)
		h.noisy = resize(h.noisy, runs)
		var m Measurement
		var seen [NumEvents]bool
		for gi, g := range StandardGroups {
			for r := 0; r < runs; r++ {
				rspec := spec
				rspec.NoiseSeed = xrand.Mix(spec.NoiseSeed, uint64(gi), uint64(r))
				h.noisy[r] = h.Machine.NoisyCycles(rspec, det)
				h.cycles[r] = float64(h.noisy[r])
			}
			med := stats.MedianIndex(h.cycles)
			if gi == 0 {
				// The first group's median run provides cycles and the
				// retired-instruction reference.
				m.Cycles = h.noisy[med]
				m.Instructions = c.Instructions
			}
			for _, e := range g {
				if !seen[e] {
					m.Events[e] = e.read(c)
					seen[e] = true
				}
			}
			m.Runs += runs
		}
		h.Metrics.done(1, uint64(m.Runs), scalar)
		return m, nil

	case FidelityPaperNaive:
		var m Measurement
		var seen [NumEvents]bool
		h.cycles = resize(h.cycles, runs)
		h.snaps = resize(h.snaps, runs)
		for gi, g := range StandardGroups {
			for r := 0; r < runs; r++ {
				rspec := spec
				rspec.NoiseSeed = xrand.Mix(spec.NoiseSeed, uint64(gi), uint64(r))
				c, err := h.Machine.Run(rspec)
				if err != nil {
					return Measurement{}, err
				}
				h.cycles[r] = float64(c.Cycles)
				h.snaps[r] = c
			}
			med := h.snaps[stats.MedianIndex(h.cycles)]
			if gi == 0 {
				// The first group's median run provides cycles and the
				// retired-instruction reference.
				m.Cycles = med.Cycles
				m.Instructions = med.Instructions
			}
			for _, e := range g {
				if !seen[e] {
					m.Events[e] = e.read(med)
					seen[e] = true
				}
			}
			m.Runs += runs
		}
		h.Metrics.done(uint64(m.Runs), 0, true)
		return m, nil

	default:
		return Measurement{}, fmt.Errorf("pmc: unknown fidelity %d", h.Fidelity)
	}
}

// resize returns s with length n, reusing its capacity when possible.
func resize[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}
