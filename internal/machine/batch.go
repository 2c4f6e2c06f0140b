package machine

import (
	"errors"
	"fmt"
	"math/bits"

	"interferometry/internal/heap"
	"interferometry/internal/interp"
	"interferometry/internal/isa"
	"interferometry/internal/uarch/branch"
	"interferometry/internal/uarch/cache"
)

// Batch is the batched replay engine: it loads up to K executables of
// the same program and walks the trace once, carrying K-wide
// structure-of-arrays microarchitectural state — one cache.Bank lane,
// one branch.XeonBank lane, one BTB lane and one heap allocator per
// layout. The trace decode, the per-block base-cycle accumulation and
// the allocation-event sequencing are shared across the batch; only the
// address-dependent work (cache set walks, predictor table indexing) is
// per lane.
//
// Every lane is pinned bit-identical to Machine.RunDeterministic on the
// same spec: identical counters and an identical raw cycle float,
// because each lane performs exactly the scalar path's sequence of
// floating-point additions (per-lane accumulators, never a shared base
// plus per-lane deltas — float addition is not associative) and exactly
// its sequence of table updates.
//
// A Batch is not safe for concurrent use; create one per goroutine. The
// layout-dependent tables are rebuilt on every Run, so a Batch never
// serves stale block tables. Like Machine, a steady-state Run performs
// no heap allocation.
type Batch struct {
	cfg      Config
	maxLanes int

	l1i, l1d, l2 *cache.Bank
	btb          *branch.BTBBank
	xeon         *branch.XeonBank
	table        *heap.PlacementTable

	// addrLimit is the largest address the cache banks' 32-bit packed
	// tags can represent (minus slack for prefetch look-ahead). Run
	// rejects executables whose segments reach it, and the walk rejects
	// heap placements that do — far beyond any simulated address space,
	// but enforced with an explicit error so the caller falls back to
	// the scalar path instead of the bank panicking.
	addrLimit uint64

	// Per-Run loaded state. shared is keyed by the program's pointer
	// identity (layout independent), so a program must not change after
	// its first run; the lane tables are rebuilt every Run. The
	// layout-dependent per-(block, lane) fetch state is kept as parallel
	// flat rows [bid*k + ki] (stride k = len(specs)) so the fetch walk
	// hands whole rows to cache.Bank.FetchRows: the block's code spans
	// lineN L1I lines starting at the line containing fetchFirst, and
	// beyond the first fetch block of each line there are extraHits
	// further fetch blocks — guaranteed L1I hits in the scalar access
	// order (nothing can evict a line between consecutive fetches of
	// it), so the walk bulk-counts them instead of re-walking the set.
	loadedProg *isa.Program
	shared     []batchShared
	fetchFirst []uint64
	lineN      []int32
	extraHits  []int32
	// termAddrs[bid*k + ki] is block bid's terminator PC in lane ki's
	// layout, kept as a flat row so the predictor banks can take a whole
	// row per resolved branch.
	termAddrs []uint64
	// calleeStart[bid] indexes the callee slot space; slot j of block bid
	// holds the K per-lane addresses at calleeAddrs[(start+j)*k ...].
	calleeStart []int32
	calleeAddrs []uint64

	// Per-lane run scratch, sized to maxLanes.
	cycles   []float64
	counters []Counters
	preds    []branch.Predictor // non-nil only for non-oracle overrides
	oracle   []bool
	uniform  bool // every lane on the banked Xeon predictor
	dets     []float64
	seeds    []uint64
	hcfgs    []heap.Config
	masks    []uint64 // FetchRows miss-mask scratch
}

// batchShared is the layout-independent per-block state, computed once
// per program. wide marks the rare block whose code could span more
// than 64 L1I lines in some layout; those blocks chunk their fetch walk
// through AccessSeq instead of one FetchRows call.
type batchShared struct {
	baseCycles   float64
	penaltyScale float64
	nMems        int32
	nAllocs      int32
	termKind     isa.TermKind
	wide         bool
}

// NewBatch builds a batched replay engine for up to maxLanes concurrent
// layouts. It returns an error for configurations the SoA state cannot
// represent (cache or BTB geometries over 8 ways); callers fall back to
// the scalar path.
func NewBatch(cfg Config, maxLanes int) (*Batch, error) {
	if maxLanes <= 0 {
		return nil, errors.New("machine: batch needs at least one lane")
	}
	if maxLanes > 64 {
		// The cache banks hand back per-lane miss bitmasks in one word.
		return nil, fmt.Errorf("machine: batch supports at most 64 lanes, got %d", maxLanes)
	}
	if cfg.FetchBytes == 0 {
		return nil, errors.New("machine: FetchBytes is zero")
	}
	l1i, err := cache.NewBank(cfg.L1I, maxLanes)
	if err != nil {
		return nil, err
	}
	l1d, err := cache.NewBank(cfg.L1D, maxLanes)
	if err != nil {
		return nil, err
	}
	l2, err := cache.NewBank(cfg.L2, maxLanes)
	if err != nil {
		return nil, err
	}
	btb, err := branch.NewBTBBank(cfg.BTBSets, cfg.BTBWays, maxLanes)
	if err != nil {
		return nil, err
	}
	lim := l1i.AddrLimit()
	if l := l1d.AddrLimit(); l < lim {
		lim = l
	}
	if l := l2.AddrLimit(); l < lim {
		lim = l
	}
	return &Batch{
		cfg:       cfg,
		maxLanes:  maxLanes,
		addrLimit: lim - 4096, // slack for next-line prefetch look-ahead
		l1i:       l1i,
		l1d:       l1d,
		l2:        l2,
		btb:       btb,
		xeon:      branch.NewXeonBank(maxLanes),
		table:     heap.NewPlacementTable(maxLanes),
		cycles:    make([]float64, maxLanes),
		counters:  make([]Counters, maxLanes),
		preds:     make([]branch.Predictor, maxLanes),
		oracle:    make([]bool, maxLanes),
		dets:      make([]float64, maxLanes),
		seeds:     make([]uint64, maxLanes),
		hcfgs:     make([]heap.Config, maxLanes),
		masks:     make([]uint64, maxLanes),
	}, nil
}

// Config returns the machine configuration.
func (b *Batch) Config() Config { return b.cfg }

// MaxLanes returns the batch capacity.
func (b *Batch) MaxLanes() int { return b.maxLanes }

// Run replays the trace once against len(specs) layouts and returns one
// Counters and one raw (unrounded) deterministic cycle count per lane,
// exactly what Machine.RunDeterministic returns for each spec. The
// returned slices are reused by the next Run.
//
// All specs must share the same Trace and HeapMode; NoiseSeed and
// DisableNoise are ignored (a batch computes deterministic replays —
// callers synthesize noise with Machine.NoisyCycles, which needs no
// simulation state). Per-lane Predictor overrides are honored: nil uses
// the banked Xeon-model predictor, a branch.Oracle lane skips prediction
// entirely, and any other override runs as that lane's private scalar
// predictor — each non-oracle override must be a distinct instance, or
// lanes would corrupt each other's state.
func (b *Batch) Run(specs []RunSpec) ([]Counters, []float64, error) {
	k := len(specs)
	if k == 0 {
		return nil, nil, errors.New("machine: batch run needs at least one spec")
	}
	if k > b.maxLanes {
		return nil, nil, fmt.Errorf("machine: batch of %d exceeds %d lanes", k, b.maxLanes)
	}
	trace := specs[0].Trace
	mode := specs[0].HeapMode
	for i := range specs {
		s := &specs[i]
		if s.Exe == nil || s.Trace == nil {
			return nil, nil, errors.New("machine: RunSpec needs Exe and Trace")
		}
		if s.Trace != trace {
			return nil, nil, errors.New("machine: batch specs must share one trace")
		}
		if s.HeapMode != mode {
			return nil, nil, errors.New("machine: batch specs must share one heap mode")
		}
		if s.Trace.Program != s.Exe.Program {
			return nil, nil, errors.New("machine: trace and executable are from different programs")
		}
		if s.Exe.CodeLimit >= b.addrLimit || s.Exe.DataLimit >= b.addrLimit {
			return nil, nil, fmt.Errorf("machine: batch lane %d: executable segments reach %#x, beyond the bank address limit %#x",
				i, max64(s.Exe.CodeLimit, s.Exe.DataLimit), b.addrLimit)
		}
	}
	// Resolve per-lane predictors.
	b.uniform = true
	for ki := range specs {
		b.preds[ki], b.oracle[ki] = nil, false
		if p := specs[ki].Predictor; p != nil {
			b.uniform = false
			if _, ok := p.(branch.Oracle); ok {
				b.oracle[ki] = true
				continue
			}
			for kj := 0; kj < ki; kj++ {
				if b.preds[kj] == p {
					return nil, nil, fmt.Errorf("machine: batch lanes %d and %d share one predictor instance", kj, ki)
				}
			}
			b.preds[ki] = p
		}
	}
	if err := b.load(specs); err != nil {
		return nil, nil, err
	}

	// Power-on state for every lane.
	b.l1i.Flush()
	b.l1d.Flush()
	b.l2.Flush()
	b.btb.Reset()
	b.xeon.Reset()
	for ki := 0; ki < k; ki++ {
		if b.preds[ki] != nil {
			b.preds[ki].Reset()
		}
		b.cycles[ki] = 0
		b.counters[ki] = Counters{}
	}

	// Heap and global placement.
	prog := trace.Program
	for ki := 0; ki < k; ki++ {
		b.hcfgs[ki] = heap.Config{Base: specs[ki].Exe.DataLimit + 0x1000000}
		b.seeds[ki] = specs[ki].HeapSeed
	}
	b.table.Reset(len(prog.Objects), mode, b.seeds[:k], b.hcfgs[:k])
	for i := range prog.Objects {
		if !prog.Objects[i].Heap {
			row := b.table.Row(isa.ObjectID(i))
			for ki := 0; ki < k; ki++ {
				row[ki] = specs[ki].Exe.GlobalBase[i]
			}
			b.table.MarkPlaced(isa.ObjectID(i))
		}
	}

	if err := b.walk(trace, k); err != nil {
		return nil, nil, err
	}

	// Final counter readout, mirroring RunDeterministic.
	for ki := 0; ki < k; ki++ {
		c := &b.counters[ki]
		c.Instructions = trace.Instrs
		// Which branches retire is layout-independent; only the
		// mispredict counts vary per lane.
		c.CondBranches = trace.CondBranches
		c.IndirectBranches = trace.IndirectCalls
		c.BranchesRetired = c.CondBranches + c.IndirectBranches + trace.Calls + trace.Returns
		c.BranchMispredicts = c.CondMispredicts + c.IndirectMispreds
		c.L1IAccesses = b.l1i.Accesses(ki)
		c.L1IMisses = b.l1i.Misses(ki)
		c.L1DAccesses = b.l1d.Accesses(ki)
		c.L1DMisses = b.l1d.Misses(ki)
		c.L2Accesses = b.l2.Accesses(ki)
		c.L2Misses = b.l2.Misses(ki)
		c.Cycles = roundCycles(b.cycles[ki])
		b.dets[ki] = b.cycles[ki]
	}
	return b.counters[:k], b.dets[:k], nil
}

// walk is the shared trace walk: one decode of the block sequence and
// the per-block event streams feeds every lane. The per-lane work
// inside each event preserves the scalar path's operation order lane by
// lane, which is what makes the cycle floats bit-identical.
func (b *Batch) walk(trace *interp.Trace, k int) error {
	var (
		cfg       = &b.cfg
		l2pen     = cfg.L2MissPenalty * cfg.L2Overlap
		lineBytes = uint64(cfg.L1I.LineBytes)
		cycles    = b.cycles[:k]
		counters  = b.counters[:k]
		table     = b.table
		l1i, l1d  = b.l1i, b.l1d
		l2        = b.l2
		xeon      = b.xeon
		btb       = b.btb
		termAddrs = b.termAddrs
		uniform   = b.uniform
		condIdx   uint64
		indIdx    int
		memIdx    int
		allocIdx  int
	)
	for _, bid := range trace.BlockSeq {
		sh := &b.shared[bid]
		base := int(bid) * k
		firsts := b.fetchFirst[base : base+k]
		lineNs := b.lineN[base : base+k]
		extras := b.extraHits[base : base+k]

		// Instruction fetch, line-grouped: one fused L1I row walk per
		// block (all lanes' set walks in one FetchRows call), then per
		// lane the miss penalties and a bulk hit count for the further
		// fetch blocks in each line. Base cycles are added first, as in
		// the scalar loop; only the first access to a line can miss, so
		// the penalty sequence is exactly the scalar per-fetch-block one
		// — AccessSeq already resolved the full line mask before any L2
		// access, and the L2 walk never touches L1I state, so splitting
		// the phases across lanes changes nothing a lane can observe.
		if !sh.wide {
			masks := b.masks[:k]
			l1i.FetchRows(firsts, lineNs, masks)
			for ki := 0; ki < k; ki++ {
				cy := cycles[ki] + sh.baseCycles
				fa := firsts[ki]
				// Ascending mask-bit order keeps the penalty additions in
				// the scalar per-fetch-block sequence.
				for mask := masks[ki]; mask != 0; mask &= mask - 1 {
					j := bits.TrailingZeros64(mask)
					cy += cfg.L1IMissPenalty
					if !l2.Access(ki, fa+uint64(j)*lineBytes) {
						cy += l2pen
					}
				}
				l1i.AddHits(ki, uint64(extras[ki]))
				cycles[ki] = cy
			}
		} else {
			// A block wide enough to overflow the 64-bit miss mask in
			// some layout: chunk the line walk per lane.
			for ki := 0; ki < k; ki++ {
				cy := cycles[ki] + sh.baseCycles
				fa := firsts[ki]
				for rem := lineNs[ki]; rem > 0; {
					c := rem
					if c > 64 {
						c = 64
					}
					for mask := l1i.AccessSeq(ki, fa, c); mask != 0; mask &= mask - 1 {
						j := bits.TrailingZeros64(mask)
						cy += cfg.L1IMissPenalty
						if !l2.Access(ki, fa+uint64(j)*lineBytes) {
							cy += l2pen
						}
					}
					fa += uint64(c) * lineBytes
					rem -= c
				}
				l1i.AddHits(ki, uint64(extras[ki]))
				cycles[ki] = cy
			}
		}

		// Allocation events, decoded once and fanned across lanes. Heap
		// placements are bounds-checked against the bank address limit
		// here (allocation events are rare) so the access path needs no
		// per-access check.
		for i := int32(0); i < sh.nAllocs; i++ {
			obj, kind := trace.AllocObj[allocIdx], trace.AllocKind[allocIdx]
			allocIdx++
			if kind == isa.AllocNew {
				size := trace.Program.Objects[obj].Size
				table.Alloc(obj, size)
				row := table.Row(obj)
				for ki := 0; ki < k; ki++ {
					if row[ki]+size > b.addrLimit {
						return fmt.Errorf("machine: batch lane %d: heap placement %#x+%d of object %d beyond the bank address limit %#x",
							ki, row[ki], size, obj, b.addrLimit)
					}
				}
			} else {
				table.Free(obj)
			}
		}

		// Memory accesses.
		for i := int32(0); i < sh.nMems; i++ {
			obj, off := trace.MemObj[memIdx], uint64(trace.MemOff[memIdx])
			memIdx++
			if !table.Placed(obj) {
				return fmt.Errorf("machine: access to unplaced object %d in block %d", obj, bid)
			}
			row := table.Row(obj)
			for mask := l1d.AccessRow(row, off); mask != 0; mask &= mask - 1 {
				ki := bits.TrailingZeros64(mask)
				addr := row[ki] + off
				cycles[ki] += cfg.L1DMissPenalty
				if !l2.Access(ki, addr) {
					cycles[ki] += l2pen
				}
				if cfg.NextLinePrefetch {
					l2.Prefetch(ki, addr+64)
				}
			}
		}

		// Terminator. Branch retire counts are layout-independent and
		// filled in at readout; only mispredicts are tracked per lane.
		switch sh.termKind {
		case isa.TermCondBranch:
			taken := trace.TakenBits[condIdx>>6]>>(condIdx&63)&1 == 1
			condIdx++
			trow := termAddrs[int(bid)*k : int(bid)*k+k]
			penalty := cfg.MispredictPenalty * sh.penaltyScale
			if uniform {
				for mask := xeon.PredictUpdateRow(trow, taken); mask != 0; mask &= mask - 1 {
					ki := bits.TrailingZeros64(mask)
					counters[ki].CondMispredicts++
					cycles[ki] += penalty
				}
				continue
			}
			for ki := 0; ki < k; ki++ {
				if b.oracle[ki] {
					continue
				}
				var predicted bool
				if p := b.preds[ki]; p != nil {
					predicted = p.Predict(trow[ki])
					p.Update(trow[ki], taken)
				} else {
					predicted = xeon.PredictUpdate(ki, trow[ki], taken)
				}
				if predicted != taken {
					counters[ki].CondMispredicts++
					cycles[ki] += penalty
				}
			}
		case isa.TermIndirectCall:
			sel := int(trace.IndirectSel[indIdx])
			indIdx++
			trow := termAddrs[int(bid)*k : int(bid)*k+k]
			crow := b.calleeAddrs[(int(b.calleeStart[bid])+sel)*k:]
			for ki := 0; ki < k; ki++ {
				if !btb.PredictUpdate(ki, trow[ki], crow[ki]) {
					counters[ki].IndirectMispreds++
					cycles[ki] += cfg.BTBMissPenalty
				}
			}
		}
	}
	return nil
}

// load rebuilds the per-lane block tables (and, when the program
// changed, the shared layout-independent tables).
func (b *Batch) load(specs []RunSpec) error {
	prog := specs[0].Trace.Program
	k := len(specs)
	nb := len(prog.Blocks)
	fb := b.cfg.FetchBytes
	lineBytes := uint64(b.cfg.L1I.LineBytes)

	if b.loadedProg != prog {
		if cap(b.shared) < nb {
			b.shared = make([]batchShared, nb)
			b.calleeStart = make([]int32, nb)
		} else {
			b.shared = b.shared[:nb]
			b.calleeStart = b.calleeStart[:nb]
		}
		slot := int32(0)
		for id := range prog.Blocks {
			blk := &prog.Blocks[id]
			b.shared[id] = batchShared{
				baseCycles:   baseCyclesFor(&b.cfg, blk),
				penaltyScale: 1 / (1 + b.cfg.MispredictShadow*float64(len(blk.Mems))),
				nMems:        int32(len(blk.Mems)),
				nAllocs:      int32(len(blk.Allocs)),
				termKind:     blk.Term.Kind,
				// ceil(Bytes/line)+1 bounds the lines any layout's
				// placement of the block can touch, so wide is layout
				// independent.
				wide: (uint64(blk.Bytes)+lineBytes-1)/lineBytes+1 > 64,
			}
			if blk.Term.Kind == isa.TermIndirectCall {
				b.calleeStart[id] = slot
				slot += int32(len(blk.Term.Callees))
			} else {
				b.calleeStart[id] = -1
			}
		}
		b.loadedProg = prog
	}

	if need := nb * k; cap(b.fetchFirst) < need {
		b.fetchFirst = make([]uint64, need)
		b.lineN = make([]int32, need)
		b.extraHits = make([]int32, need)
		b.termAddrs = make([]uint64, need)
	} else {
		b.fetchFirst = b.fetchFirst[:need]
		b.lineN = b.lineN[:need]
		b.extraHits = b.extraHits[:need]
		b.termAddrs = b.termAddrs[:need]
	}
	nslots := 0
	for id := range prog.Blocks {
		if prog.Blocks[id].Term.Kind == isa.TermIndirectCall {
			nslots += len(prog.Blocks[id].Term.Callees)
		}
	}
	if need := nslots * k; cap(b.calleeAddrs) < need {
		b.calleeAddrs = make([]uint64, need)
	} else {
		b.calleeAddrs = b.calleeAddrs[:need]
	}
	for ki := 0; ki < k; ki++ {
		exe := specs[ki].Exe
		for id := range prog.Blocks {
			blk := &prog.Blocks[id]
			addr := exe.BlockAddr[id]
			end := addr + uint64(blk.Bytes)
			fetchFirst := addr &^ (fb - 1)
			fetchN := int32(((end-1)&^(fb-1)-fetchFirst)/fb) + 1
			lineN := int32(((end-1)&^(lineBytes-1)-addr&^(lineBytes-1))/lineBytes) + 1
			b.fetchFirst[id*k+ki] = fetchFirst
			b.lineN[id*k+ki] = lineN
			b.extraHits[id*k+ki] = fetchN - lineN
			b.termAddrs[id*k+ki] = exe.TermAddr(isa.BlockID(id))
			if start := b.calleeStart[id]; start >= 0 {
				for j, callee := range blk.Term.Callees {
					b.calleeAddrs[(int(start)+j)*k+ki] = exe.ProcAddr[callee]
				}
			}
		}
	}
	return nil
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// baseCyclesFor is the layout-independent cycle cost of one execution of
// the block, identical to Machine.baseCycles.
func baseCyclesFor(cfg *Config, b *isa.Block) float64 {
	cy := 0.0
	for cls, n := range b.ClassCounts {
		cy += cfg.ClassCycles[cls] * float64(n)
	}
	cy += cfg.MemOpCycles * float64(len(b.Mems))
	cy += cfg.AllocCycles * float64(len(b.Allocs))
	if b.Term.Kind != isa.TermFallthrough {
		cy += cfg.TermCycles
	}
	return cy
}
