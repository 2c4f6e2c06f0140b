// Package pintool is the functional (no-timing) branch instrumentation
// layer, modeled on the paper's Pin tool: "our Pin tool instruments each
// branch with a callback to code that simulates a set of branch
// predictors. The tool counts the number of branches executed and the
// number of branches mispredicted for each predictor simulated" (§5.6,
// §7.1). Because it replays the deterministic trace with no noise model,
// "there is no variance in the simulation result" (§7.2) — a property the
// tests assert.
//
// RunLayouts replays one trace against many code layouts of its program
// at once: a layout changes every branch address but no outcome (§4), so
// one walk serves every layout, one predictor lane per layout. Run is
// its one-layout call. Indirect calls go to the machine model's 512×4
// branch target buffer.
package pintool

import (
	"errors"
	"math/bits"

	"interferometry/internal/interp"
	"interferometry/internal/isa"
	"interferometry/internal/toolchain"
	"interferometry/internal/uarch/branch"
)

// Result is the misprediction outcome for one simulated predictor on one
// executable.
type Result struct {
	Name             string
	Instructions     uint64
	CondBranches     uint64
	CondMispredicts  uint64
	IndirectBranches uint64
	IndirectMispreds uint64
}

// MPKI returns total branch mispredictions (conditional direction plus
// indirect target) per 1000 instructions, comparable to the machine's
// "retired branches mispredicted" counter.
func (r Result) MPKI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.CondMispredicts+r.IndirectMispreds) / float64(r.Instructions) * 1000
}

// CondAccuracy returns the fraction of conditional branches predicted
// correctly.
func (r Result) CondAccuracy() float64 {
	if r.CondBranches == 0 {
		return 1
	}
	return 1 - float64(r.CondMispredicts)/float64(r.CondBranches)
}

// Config controls the replay.
type Config struct {
	// Warmup replays the trace once, training the predictors without
	// counting, before the measured pass. Large tables (a 16KB GAs, a
	// full L-TAGE) need far more training than a short trace provides;
	// warmup removes the cold-start bias so predictor comparisons reflect
	// steady state, as the paper's minutes-long Pin runs did.
	Warmup bool
}

// The BTB simulated alongside every conditional predictor has the
// machine model's geometry (machine.XeonE5440).
const btbSets, btbWays = 512, 4

// Run replays the trace against one executable, feeding every
// conditional branch to each predictor built by the factories and every
// indirect call to a BTB (shared across predictors, since the
// conditional predictor does not influence it). Oracle predictors record
// zero mispredictions. It is RunLayouts with one layout.
func Run(tr *interp.Trace, exe *toolchain.Executable, factories []branch.Factory, cfg Config) ([]Result, error) {
	rs, err := RunLayouts(tr, []*toolchain.Executable{exe}, factories, cfg)
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// RunLayouts is Run for every executable in exes at once: result [k][p]
// is predictor p on exes[k], equal to Run's result p for exes[k]. Each
// predictor walks the trace once (per pass) for up to branch.MaxLanes
// layouts through the lanes branch.NewLanes builds, one per layout, and
// the lanes are freed before the next predictor's walk; an oracle is not
// walked. The layouts' BTBs ride the first walk.
func RunLayouts(tr *interp.Trace, exes []*toolchain.Executable, factories []branch.Factory, cfg Config) ([][]Result, error) {
	if tr == nil || len(exes) == 0 {
		return nil, errors.New("pintool: nil trace or no executables")
	}
	for _, exe := range exes {
		if exe == nil {
			return nil, errors.New("pintool: nil executable")
		}
		if tr.Program != exe.Program {
			return nil, errors.New("pintool: trace and executable are from different programs")
		}
	}
	if len(factories) == 0 {
		return nil, errors.New("pintool: no predictors to simulate")
	}
	// Every layout executes the same branches, which the trace counts.
	out := make([][]Result, len(exes))
	for k := range out {
		out[k] = make([]Result, len(factories))
		for p, f := range factories {
			out[k][p] = Result{
				Name:             f.Name,
				Instructions:     tr.Instrs,
				CondBranches:     tr.CondBranches,
				IndirectBranches: tr.IndirectCalls,
			}
		}
	}
	for lo := 0; lo < len(exes); lo += branch.MaxLanes {
		w := newWalk(tr, exes[lo:min(lo+branch.MaxLanes, len(exes))], cfg)
		for p, f := range factories {
			ls, err := branch.NewLanes(f, len(w.exes))
			if err != nil {
				return nil, err
			}
			if ls == nil {
				continue // an oracle mispredicts nothing
			}
			w.run(ls)
			for k := range w.exes {
				out[lo+k][p].CondMispredicts = w.condMiss[k]
				out[lo+k][p].IndirectMispreds = w.indirectMiss[k]
			}
		}
	}
	return out, nil
}

// walk replays one trace against up to branch.MaxLanes layouts, one predictor
// at a time.
type walk struct {
	tr     *interp.Trace
	exes   []*toolchain.Executable
	passes int
	pcs    []uint64 // the branch's PC in each layout
	// btbDone is set once a walk has driven the layouts' BTBs.
	btbDone                bool
	condMiss, indirectMiss []uint64 // per layout, in the counted pass
}

func newWalk(tr *interp.Trace, exes []*toolchain.Executable, cfg Config) *walk {
	passes := 1
	if cfg.Warmup {
		passes = 2
	}
	return &walk{
		tr:           tr,
		exes:         exes,
		passes:       passes,
		pcs:          make([]uint64, len(exes)),
		condMiss:     make([]uint64, len(exes)),
		indirectMiss: make([]uint64, len(exes)),
	}
}

// run walks the trace through one predictor's lanes, counting each
// layout's conditional mispredictions in the last pass; the first run
// also drives the BTBs and counts their mispredictions.
func (w *walk) run(ls branch.Lanes) {
	var btb *branch.BTBBank
	if !w.btbDone {
		var err error
		if btb, err = branch.NewBTBBank(btbSets, btbWays, len(w.exes)); err != nil {
			panic(err) // the geometry is a constant the bank supports
		}
		w.btbDone = true
	}
	clear(w.condMiss)
	prog, exes, pcs := w.tr.Program, w.exes, w.pcs
	for pass := 0; pass < w.passes; pass++ {
		counting := pass == w.passes-1
		cur := w.tr.Cursor()
		for {
			bid, ok := cur.NextBlock()
			if !ok {
				break
			}
			b := &prog.Blocks[bid]
			switch b.Term.Kind {
			case isa.TermCondBranch:
				taken := cur.NextTaken()
				for k, exe := range exes {
					pcs[k] = exe.TermAddr(bid)
				}
				wrong := ls.PredictUpdateRow(pcs, taken)
				if counting {
					for ; wrong != 0; wrong &= wrong - 1 {
						w.condMiss[bits.TrailingZeros64(wrong)]++
					}
				}
			case isa.TermIndirectCall:
				callee := b.Term.Callees[cur.NextIndirect()]
				if btb == nil {
					continue
				}
				for k, exe := range exes {
					if !btb.PredictUpdate(k, exe.TermAddr(bid), exe.ProcAddr[callee]) && counting {
						w.indirectMiss[k]++
					}
				}
			}
		}
	}
}
