package interp

import (
	"errors"
	"fmt"

	"interferometry/internal/isa"
	"interferometry/internal/xrand"
)

// Stream-derivation tags for the per-site PRNGs, so branch, memory and
// allocation sites never share random state.
const (
	tagBranch uint64 = 0x42
	tagMem    uint64 = 0x4d
	tagAlloc  uint64 = 0x41
)

// Run executes the program with the given input seed until the stop rule
// fires and returns the recorded trace. Execution is deterministic: the
// same (program, inputSeed, stop) triple always yields an identical trace,
// and nothing about code or data layout is consulted — the semantic
// invariance at the heart of interferometry.
func Run(p *isa.Program, inputSeed uint64, stop StopRule) (*Trace, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if stop.Budget == 0 && stop.StopCount == 0 {
		return nil, errors.New("interp: stop rule has neither budget nor proc count")
	}
	if stop.StopCount > 0 && int(stop.StopProc) >= len(p.Procs) {
		return nil, fmt.Errorf("interp: stop procedure %d out of range", stop.StopProc)
	}

	st := newSiteState(p, inputSeed)
	tr := &Trace{
		Program:       p,
		InputSeed:     inputSeed,
		Stop:          stop,
		ProcEntries:   make([]uint64, len(p.Procs)),
		ProcLastEntry: make([]uint64, len(p.Procs)),
	}

	var stack []isa.BlockID
	enterProc := func(id isa.ProcID) {
		tr.ProcEntries[id]++
		tr.ProcLastEntry[id] = tr.Instrs
	}

	pc := p.Procs[p.Main].Entry()
	enterProc(p.Main)

	// Hard cap guards against pathological programs whose stop rule never
	// fires (e.g. a stop procedure that is never called).
	maxInstrs := stop.Budget * 64
	if maxInstrs == 0 {
		maxInstrs = 1 << 34
	}

	for {
		b := &p.Blocks[pc]
		tr.BlockSeq = append(tr.BlockSeq, pc)
		tr.Instrs += uint64(b.NInstr())

		// Memory accesses.
		if len(b.Mems) > 0 {
			ms := st.memStates[pc]
			for i := range b.Mems {
				obj, off := b.Mems[i].Pattern.Next(&ms[i])
				tr.MemObj = append(tr.MemObj, obj)
				tr.MemOff = append(tr.MemOff, uint32(off))
			}
		}
		// Allocation events.
		if len(b.Allocs) > 0 {
			rng := st.allocRngs[pc]
			for i := range b.Allocs {
				a := &b.Allocs[i]
				obj := a.Pool[0]
				if len(a.Pool) > 1 {
					obj = a.Pool[rng.Intn(len(a.Pool))]
				}
				tr.AllocObj = append(tr.AllocObj, obj)
				tr.AllocKind = append(tr.AllocKind, a.Kind)
			}
		}

		// Terminator.
		next := pc + 1
		switch b.Term.Kind {
		case isa.TermFallthrough:
			// next already correct.
		case isa.TermCondBranch:
			ctx := &st.branchCtxs[pc]
			taken := b.Term.Behavior.Next(ctx)
			ctx.Count++
			*ctx.History = *ctx.History<<1 | boolBit(taken)
			tr.appendTaken(taken)
			if taken {
				next = b.Term.Target
			}
		case isa.TermJump:
			next = b.Term.Target
		case isa.TermCall:
			tr.Calls++
			stack = append(stack, pc+1)
			next = p.Procs[b.Term.Callee].Entry()
			enterProc(b.Term.Callee)
		case isa.TermIndirectCall:
			tr.IndirectCalls++
			ctx := &st.branchCtxs[pc]
			idx := b.Term.Behavior.Select(ctx, len(b.Term.Callees))
			ctx.Count++
			callee := b.Term.Callees[idx]
			tr.IndirectSel = append(tr.IndirectSel, uint8(idx))
			stack = append(stack, pc+1)
			next = p.Procs[callee].Entry()
			enterProc(callee)
		case isa.TermReturn:
			tr.Returns++
			if len(stack) > 0 {
				next = stack[len(stack)-1]
				stack = stack[:len(stack)-1]
			} else {
				// Main returned: the harness immediately re-invokes it, so
				// a benchmark's steady-state loop may live in main itself.
				next = p.Procs[p.Main].Entry()
				enterProc(p.Main)
			}
		}

		// Stop checks run at block boundaries only, so the set of retired
		// instructions is always a whole number of blocks.
		if stop.StopCount > 0 {
			if tr.ProcEntries[stop.StopProc] >= stop.StopCount {
				tr.StoppedBy = StopProcCount
				return tr, nil
			}
			if tr.Instrs >= maxInstrs {
				return nil, fmt.Errorf("interp: stop procedure %q never reached count %d after %d instructions",
					p.Procs[stop.StopProc].Name, stop.StopCount, tr.Instrs)
			}
		} else if tr.Instrs >= stop.Budget {
			tr.StoppedBy = StopBudget
			return tr, nil
		}
		pc = next
	}
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// siteState holds the per-static-site mutable state of one execution.
type siteState struct {
	history    uint64
	branchCtxs []isa.BehaviorCtx
	memStates  map[isa.BlockID][]isa.PatternState
	allocRngs  map[isa.BlockID]*xrand.Rand
}

func newSiteState(p *isa.Program, inputSeed uint64) *siteState {
	st := &siteState{
		branchCtxs: make([]isa.BehaviorCtx, len(p.Blocks)),
		memStates:  make(map[isa.BlockID][]isa.PatternState),
		allocRngs:  make(map[isa.BlockID]*xrand.Rand),
	}
	for id := range p.Blocks {
		b := &p.Blocks[id]
		bid := isa.BlockID(id)
		switch b.Term.Kind {
		case isa.TermCondBranch, isa.TermIndirectCall:
			st.branchCtxs[id] = isa.BehaviorCtx{
				Rand:    xrand.New(xrand.Mix(p.Seed, inputSeed, uint64(id), tagBranch)),
				History: &st.history,
			}
		}
		if len(b.Mems) > 0 {
			states := make([]isa.PatternState, len(b.Mems))
			for i := range states {
				states[i].Rand = xrand.New(xrand.Mix(p.Seed, inputSeed, uint64(id), uint64(i), tagMem))
			}
			st.memStates[bid] = states
		}
		if len(b.Allocs) > 0 {
			st.allocRngs[bid] = xrand.New(xrand.Mix(p.Seed, inputSeed, uint64(id), tagAlloc))
		}
	}
	return st
}
