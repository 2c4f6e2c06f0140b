package interferometry_test

import (
	"sort"
	"testing"

	"interferometry/internal/core"
	"interferometry/internal/heap"
	"interferometry/internal/interp"
	"interferometry/internal/isa"
	"interferometry/internal/machine"
	"interferometry/internal/pmc"
	"interferometry/internal/progen"
	"interferometry/internal/toolchain"
	"interferometry/internal/xrand"
)

// This file pins the DESIGN.md §5 invariants 1-4 as named property
// tests. Each test sweeps seedCount derived seeds; break any of the
// seams (trace replay, seed plumbing, linker address assignment,
// allocator bookkeeping) and the corresponding test fails.

// seedCount is how many derived seeds each property sweeps.
func seedCount() int {
	if testing.Short() {
		return 8
	}
	return 50
}

const invariantBase = 0x1471a57 // arbitrary, fixed: the sweeps must be reproducible

// invariantSeeds derives the i-th (layout, heap, noise) seed tuple.
func invariantSeeds(i int) (layout, heapSeed, noise uint64) {
	n := uint64(i)
	return xrand.Mix(invariantBase, 1, n) | 1, xrand.Mix(invariantBase, 2, n), xrand.Mix(invariantBase, 3, n)
}

// invariantProgram is the shared fixture: a real suite benchmark, so
// the semantic stream has branches, indirect calls and memory traffic,
// at a budget small enough that a 50-seed sweep stays fast.
func invariantProgram(t *testing.T) (*isa.Program, *interp.Trace) {
	t.Helper()
	spec, ok := progen.ByName("400.perlbench")
	if !ok {
		t.Fatal("suite benchmark missing")
	}
	prog, err := progen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := interp.Run(prog, 1, interp.StopRule{Budget: 80_000})
	if err != nil {
		t.Fatal(err)
	}
	return prog, trace
}

func buildLayout(t *testing.T, prog *isa.Program, seed uint64) *toolchain.Executable {
	t.Helper()
	exe, err := toolchain.BuildLayout(prog, seed, toolchain.CompileConfig{}, toolchain.LinkConfig{})
	if err != nil {
		t.Fatalf("layout seed %#x: %v", seed, err)
	}
	return exe
}

// semanticCounters is the layout-independent subset of a counter
// readout: the retired instruction and event *stream*, as opposed to
// the timing consequences (cycles, mispredictions, cache misses) that
// layout perturbation exists to vary.
type semanticCounters struct {
	instructions     uint64
	branchesRetired  uint64
	condBranches     uint64
	indirectBranches uint64
	dataAccesses     uint64
}

// TestInvariantSemanticInvariance pins §5 invariant 1: for a fixed
// benchmark and input seed, the retired instruction count, branch
// stream and memory access stream are identical across every layout and
// heap seed — reordering and heap randomization change addresses only.
func TestInvariantSemanticInvariance(t *testing.T) {
	prog, trace := invariantProgram(t)
	m := machine.New(machine.XeonE5440())
	var ref semanticCounters
	for i := 0; i < seedCount(); i++ {
		ls, hs, _ := invariantSeeds(i)
		exe := buildLayout(t, prog, ls)
		c, _, err := m.RunDeterministic(machine.RunSpec{
			Exe: exe, Trace: trace,
			HeapMode: heap.ModeRandomized, HeapSeed: hs,
			DisableNoise: true,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		got := semanticCounters{
			instructions:     c.Instructions,
			branchesRetired:  c.BranchesRetired,
			condBranches:     c.CondBranches,
			indirectBranches: c.IndirectBranches,
			dataAccesses:     c.L1DAccesses,
		}
		if i == 0 {
			ref = got
			if ref.instructions == 0 || ref.condBranches == 0 || ref.dataAccesses == 0 {
				t.Fatalf("degenerate reference run: %+v", ref)
			}
			continue
		}
		if got != ref {
			t.Fatalf("semantic counters changed under layout seed %#x heap seed %#x:\n got %+v\nwant %+v", ls, hs, got, ref)
		}
	}
}

// TestInvariantReproducibility pins §5 invariant 2: the same
// (benchmark, layout seed, heap seed, noise seed) tuple produces
// bit-identical counters — across repeated measurements, fresh
// harnesses and freshly rebuilt executables.
func TestInvariantReproducibility(t *testing.T) {
	prog, trace := invariantProgram(t)
	h1 := &pmc.Harness{Machine: machine.New(machine.XeonE5440()), Fidelity: pmc.FidelityPaper}
	h2 := &pmc.Harness{Machine: machine.New(machine.XeonE5440()), Fidelity: pmc.FidelityPaper}
	for i := 0; i < seedCount(); i++ {
		ls, hs, ns := invariantSeeds(i)
		spec := machine.RunSpec{
			Exe: buildLayout(t, prog, ls), Trace: trace,
			HeapMode: heap.ModeRandomized, HeapSeed: hs, NoiseSeed: ns,
		}
		first, err := h1.Measure(spec)
		if err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		again, err := h1.Measure(spec)
		if err != nil {
			t.Fatalf("seed %d remeasure: %v", i, err)
		}
		if first != again {
			t.Fatalf("same harness, same seeds, different counters (layout %#x heap %#x noise %#x):\n%+v\n%+v",
				ls, hs, ns, first, again)
		}
		spec.Exe = buildLayout(t, prog, ls) // rebuilt from the same seed
		fresh, err := h2.Measure(spec)
		if err != nil {
			t.Fatalf("seed %d fresh harness: %v", i, err)
		}
		if first != fresh {
			t.Fatalf("fresh harness + rebuilt executable diverged (layout %#x heap %#x noise %#x):\n%+v\n%+v",
				ls, hs, ns, first, fresh)
		}
	}
}

// TestInvariantLinkerSoundness pins §5 invariant 3: every instruction
// byte gets a unique address, procedures do not overlap, alignment
// requests are honored, and the address map covers the whole program.
func TestInvariantLinkerSoundness(t *testing.T) {
	prog, _ := invariantProgram(t)
	const procAlign, globalAlign = 16, 64 // the LinkConfig defaults
	for i := 0; i < seedCount(); i++ {
		ls, _, _ := invariantSeeds(i)
		exe := buildLayout(t, prog, ls)
		if err := toolchain.CheckExecutable(exe, i); err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}

		// Block byte ranges are disjoint and inside the text segment.
		type span struct{ lo, hi uint64 }
		blocks := make([]span, len(prog.Blocks))
		for b := range prog.Blocks {
			lo := exe.BlockAddr[b]
			blocks[b] = span{lo, lo + uint64(prog.Blocks[b].Bytes)}
		}
		sort.Slice(blocks, func(a, b int) bool { return blocks[a].lo < blocks[b].lo })
		for b := 1; b < len(blocks); b++ {
			if blocks[b].lo < blocks[b-1].hi {
				t.Fatalf("seed %d: block bytes overlap at %#x", i, blocks[b].lo)
			}
		}
		if blocks[0].lo < exe.CodeBase || blocks[len(blocks)-1].hi > exe.CodeLimit {
			t.Fatalf("seed %d: blocks escape the text segment [%#x,%#x)", i, exe.CodeBase, exe.CodeLimit)
		}

		// Procedure entries are aligned, map to their first block, and
		// the link order is a permutation of all procedures.
		seen := make([]bool, len(prog.Procs))
		for _, pid := range exe.LinkOrder {
			if seen[pid] {
				t.Fatalf("seed %d: procedure %d linked twice", i, pid)
			}
			seen[pid] = true
		}
		for p := range prog.Procs {
			if !seen[p] {
				t.Fatalf("seed %d: procedure %d missing from link order", i, p)
			}
			if exe.ProcAddr[p]%procAlign != 0 {
				t.Fatalf("seed %d: procedure %d entry %#x not %d-aligned", i, p, exe.ProcAddr[p], procAlign)
			}
			if first := prog.Procs[p].Blocks[0]; exe.BlockAddr[first] != exe.ProcAddr[p] {
				t.Fatalf("seed %d: procedure %d entry %#x != first block %#x", i, p, exe.ProcAddr[p], exe.BlockAddr[first])
			}
		}

		// Globals are aligned, disjoint and inside the data segment.
		var globals []span
		for o := range prog.Objects {
			if prog.Objects[o].Heap {
				continue
			}
			base := exe.GlobalBase[o]
			if base%globalAlign != 0 {
				t.Fatalf("seed %d: global %d base %#x not %d-aligned", i, o, base, globalAlign)
			}
			globals = append(globals, span{base, base + prog.Objects[o].Size})
		}
		sort.Slice(globals, func(a, b int) bool { return globals[a].lo < globals[b].lo })
		for g := 1; g < len(globals); g++ {
			if globals[g].lo < globals[g-1].hi {
				t.Fatalf("seed %d: globals overlap at %#x", i, globals[g].lo)
			}
		}
		if len(globals) > 0 && (globals[0].lo < exe.DataBase || globals[len(globals)-1].hi > exe.DataLimit) {
			t.Fatalf("seed %d: globals escape the data segment", i)
		}
	}
}

// TestInvariantBatchPathEquivalence pins §5 invariants 1-2 under the
// batched replay engine: a campaign whose chunks share one trace walk
// (machine.Batch) produces bit-identical observations — same semantic
// counters (invariant 1), same reproducible (seed → measurement)
// mapping (invariant 2) — as the sequential scalar path, and repeating
// the batched run reproduces itself. One walk serves every layout of a
// chunk, so this is the invariant batching hangs on: per-lane state
// replayed side by side must be indistinguishable from one scalar
// replay per layout.
func TestInvariantBatchPathEquivalence(t *testing.T) {
	spec, ok := progen.ByName("400.perlbench")
	if !ok {
		t.Fatal("suite benchmark missing")
	}
	prog, err := progen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	layouts := seedCount()
	run := func(batch int) *core.Dataset {
		t.Helper()
		ds, err := core.RunCampaign(core.CampaignConfig{
			Program:   prog,
			InputSeed: 1,
			Budget:    80_000,
			Layouts:   layouts,
			BaseSeed:  invariantBase,
			HeapMode:  heap.ModeRandomized,
			BatchSize: batch,
		})
		if err != nil {
			t.Fatalf("batch width %d: %v", batch, err)
		}
		return ds
	}
	scalar := run(1) // BatchSize 1: the sequential scalar path
	batched := run(0)
	again := run(0)
	for i := range scalar.Obs {
		if scalar.Obs[i] != batched.Obs[i] {
			t.Fatalf("layout %d diverged under batched replay:\nscalar  %+v\nbatched %+v", i, scalar.Obs[i], batched.Obs[i])
		}
		if batched.Obs[i] != again.Obs[i] {
			t.Fatalf("layout %d not reproducible under batched replay:\nfirst  %+v\nsecond %+v", i, batched.Obs[i], again.Obs[i])
		}
	}
	if scalar.Obs[0].Instructions == 0 || scalar.Obs[0].Cycles == 0 {
		t.Fatalf("degenerate reference observation: %+v", scalar.Obs[0])
	}
}

// TestInvariantAllocatorSoundness pins §5 invariant 4: live allocations
// never overlap, frees make space reusable, and the randomized
// allocator permutes a size class's slot grid rather than inventing
// addresses off it.
func TestInvariantAllocatorSoundness(t *testing.T) {
	const objects = 24
	for i := 0; i < seedCount(); i++ {
		seedLayout, heapSeed, _ := invariantSeeds(i)
		rng := xrand.New(seedLayout)
		a := heap.NewRandomized(heapSeed, heap.Config{})

		type obj struct {
			base, size uint64
			live       bool
		}
		placed := make([]obj, objects)
		sizeFor := func(o int) uint64 { return 8 + xrand.Mix(heapSeed, uint64(o))%500 }
		checkDisjoint := func(when string) {
			t.Helper()
			var live []obj
			for _, o := range placed {
				if o.live {
					live = append(live, o)
				}
			}
			sort.Slice(live, func(a, b int) bool { return live[a].base < live[b].base })
			for k := 1; k < len(live); k++ {
				if live[k].base < live[k-1].base+live[k-1].size {
					t.Fatalf("seed %d (%s): live allocations overlap at %#x", i, when, live[k].base)
				}
			}
		}

		// Random churn: allocate everything, then free/reallocate.
		for o := 0; o < objects; o++ {
			size := sizeFor(o)
			base := a.Alloc(isa.ObjectID(o), size)
			placed[o] = obj{base, size, true}
			if got, ok := a.Base(isa.ObjectID(o)); !ok || got != base {
				t.Fatalf("seed %d: Base(%d) = %#x,%v after Alloc returned %#x", i, o, got, ok, base)
			}
			checkDisjoint("fill")
		}
		for step := 0; step < 4*objects; step++ {
			o := rng.Intn(objects)
			if placed[o].live && rng.Intn(2) == 0 {
				a.Free(isa.ObjectID(o))
				placed[o].live = false
				if a.Live(isa.ObjectID(o)) {
					t.Fatalf("seed %d: object %d live after Free", i, o)
				}
			} else {
				size := sizeFor(o)
				placed[o] = obj{a.Alloc(isa.ObjectID(o), size), size, true}
				checkDisjoint("churn")
			}
		}

		// Permutation of the slot grid: same-size allocations land on
		// distinct slot-aligned addresses.
		grid := heap.NewRandomized(heapSeed, heap.Config{})
		const slot = 64 // class slot for a 40-byte object with MinSlot 16
		seen := map[uint64]bool{}
		for o := 0; o < objects; o++ {
			base := grid.Alloc(isa.ObjectID(o), 40)
			if base%slot != 0 {
				t.Fatalf("seed %d: slot address %#x off the %d-byte grid", i, base, slot)
			}
			if seen[base] {
				t.Fatalf("seed %d: slot %#x handed out twice while live", i, base)
			}
			seen[base] = true
		}

		// Frees make space reusable: repeated free-all/refill cycles
		// stay within a fixed footprint. If freed slots were never
		// reclaimed, 32 cycles of fresh slots would blow far past it.
		bound := uint64(0x20000000) + uint64(16*objects)*slot
		for cycle := 0; cycle < 32; cycle++ {
			for o := 0; o < objects; o++ {
				grid.Free(isa.ObjectID(o))
			}
			for o := 0; o < objects; o++ {
				if base := grid.Alloc(isa.ObjectID(o), 40); base > bound {
					t.Fatalf("seed %d: cycle %d leaked address space: %#x past the %#x footprint bound", i, cycle, base, bound)
				}
			}
		}
	}
}
