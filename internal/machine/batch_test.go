package machine_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"interferometry/internal/heap"
	"interferometry/internal/interp"
	"interferometry/internal/isa"
	"interferometry/internal/machine"
	"interferometry/internal/progen"
	"interferometry/internal/testprog"
	"interferometry/internal/toolchain"
	"interferometry/internal/uarch/branch"
)

type batchProgram struct {
	name  string
	prog  *isa.Program
	trace *interp.Trace
}

func batchPrograms(t testing.TB, budget uint64) []batchProgram {
	t.Helper()
	ps := []struct {
		name string
		prog *isa.Program
	}{
		{"branchy", testprog.Branchy()},
		{"memory", testprog.Memory(64)},
		{"cachestress", testprog.CacheStress(24, 48)},
	}
	out := make([]batchProgram, 0, len(ps))
	for _, p := range ps {
		tr, err := interp.Run(p.prog, 1, interp.StopRule{Budget: budget})
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		out = append(out, batchProgram{p.name, p.prog, tr})
	}
	return out
}

// TestBatchMatchesSequential is the batched-replay property test: for
// every lane of every trial, Batch.Run must return exactly what the
// scalar Machine.RunDeterministic returns for that lane's spec — equal
// Counters and a bit-identical raw cycle float (math.Float64bits, not an
// epsilon). Trials sweep programs, batch sizes 1/2/7/K_max, both heap
// modes, and predictor overrides (none, mixed oracle+scalar, all-scalar
// distinct instances) across ≥50 layout seeds.
func TestBatchMatchesSequential(t *testing.T) {
	trials := 52
	if testing.Short() {
		trials = 12
	}
	const kMax = 16
	cfg := machine.XeonE5440()
	batch, err := machine.NewBatch(cfg, kMax)
	if err != nil {
		t.Fatal(err)
	}
	seq := machine.New(cfg)
	progs := batchPrograms(t, 20000)
	sizes := []int{1, 2, 7, kMax}
	specs := make([]machine.RunSpec, kMax)

	for trial := 0; trial < trials; trial++ {
		pp := progs[trial%len(progs)]
		k := sizes[trial%len(sizes)]
		mode := heap.ModeBump
		if trial%2 == 1 {
			mode = heap.ModeRandomized
		}
		for ki := 0; ki < k; ki++ {
			layoutSeed := uint64(trial*kMax + ki + 1)
			exe, err := toolchain.BuildLayout(pp.prog, layoutSeed, toolchain.CompileConfig{ProcsPerUnit: 2}, toolchain.LinkConfig{})
			if err != nil {
				t.Fatalf("trial %d lane %d: %v", trial, ki, err)
			}
			specs[ki] = machine.RunSpec{
				Exe:      exe,
				Trace:    pp.trace,
				HeapMode: mode,
				HeapSeed: layoutSeed*3 + 1,
			}
			switch trial % 3 {
			case 1: // mixed lanes: built-in, oracle, private scalar override
				switch ki % 3 {
				case 1:
					specs[ki].Predictor = branch.Perfect{}
				case 2:
					specs[ki].Predictor = branch.NewGshare(4096, 12)
				}
			case 2: // every lane a distinct scalar override instance
				specs[ki].Predictor = branch.NewGshare(1024, 8)
			}
		}
		gotC, gotD, err := batch.Run(specs[:k])
		if err != nil {
			t.Fatalf("trial %d (%s, k=%d, %s): %v", trial, pp.name, k, mode, err)
		}
		for ki := 0; ki < k; ki++ {
			wantC, wantD, err := seq.RunDeterministic(specs[ki])
			if err != nil {
				t.Fatalf("trial %d lane %d sequential: %v", trial, ki, err)
			}
			if gotC[ki] != wantC {
				t.Fatalf("trial %d (%s, k=%d, %s) lane %d counters diverged:\nbatch %+v\nseq   %+v",
					trial, pp.name, k, mode, ki, gotC[ki], wantC)
			}
			if math.Float64bits(gotD[ki]) != math.Float64bits(wantD) {
				t.Fatalf("trial %d (%s, k=%d, %s) lane %d det cycles diverged: batch %v (%#x), seq %v (%#x)",
					trial, pp.name, k, mode, ki, gotD[ki], math.Float64bits(gotD[ki]), wantD, math.Float64bits(wantD))
			}
		}
	}
}

// TestBatchRunValidation pins the batch-lane error contract.
func TestBatchRunValidation(t *testing.T) {
	cfg := machine.XeonE5440()
	batch, err := machine.NewBatch(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	progs := batchPrograms(t, 2000)
	branchy, memory := progs[0], progs[1]
	exe := func(p batchProgram, seed uint64) *toolchain.Executable {
		e, err := toolchain.BuildLayout(p.prog, seed, toolchain.CompileConfig{}, toolchain.LinkConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	base := machine.RunSpec{Exe: exe(branchy, 1), Trace: branchy.trace}

	if _, _, err := batch.Run(nil); err == nil {
		t.Error("empty batch accepted")
	}
	if _, _, err := batch.Run(make([]machine.RunSpec, 5)); err == nil {
		t.Error("batch over capacity accepted")
	}
	if _, _, err := batch.Run([]machine.RunSpec{base, {Exe: exe(memory, 1), Trace: memory.trace}}); err == nil {
		t.Error("mixed traces accepted")
	}
	if _, _, err := batch.Run([]machine.RunSpec{base, {Exe: exe(branchy, 2), Trace: branchy.trace, HeapMode: heap.ModeRandomized}}); err == nil {
		t.Error("mixed heap modes accepted")
	}
	if _, _, err := batch.Run([]machine.RunSpec{{Exe: exe(memory, 1), Trace: branchy.trace}}); err == nil {
		t.Error("trace/executable program mismatch accepted")
	}
	shared := branch.NewGshare(1024, 8)
	a, b := base, base
	a.Predictor, b.Predictor = shared, shared
	b.Exe = exe(branchy, 2)
	_, _, err = batch.Run([]machine.RunSpec{a, b})
	if err == nil || !strings.Contains(err.Error(), "share one predictor instance") {
		t.Errorf("shared predictor instance: got %v", err)
	}
	// Two oracle lanes are fine: Perfect{} is stateless.
	a.Predictor, b.Predictor = branch.Perfect{}, branch.Perfect{}
	if _, _, err := batch.Run([]machine.RunSpec{a, b}); err != nil {
		t.Errorf("two oracle lanes rejected: %v", err)
	}
}

// TestBatchRunZeroAlloc pins the steady-state zero-allocation contract
// of Batch.Run, in both heap modes, matching TestMachineRunZeroAlloc.
func TestBatchRunZeroAlloc(t *testing.T) {
	spec, ok := progen.ByName("400.perlbench")
	if !ok {
		t.Fatal("missing spec")
	}
	prog := progen.MustGenerate(spec)
	tr, err := interp.Run(prog, 1, interp.StopRule{Budget: 100000})
	if err != nil {
		t.Fatal(err)
	}
	const kMax = 8
	specs := make([]machine.RunSpec, kMax)
	for ki := range specs {
		exe, err := toolchain.BuildLayout(prog, uint64(ki+1), toolchain.CompileConfig{}, toolchain.LinkConfig{})
		if err != nil {
			t.Fatal(err)
		}
		specs[ki] = machine.RunSpec{Exe: exe, Trace: tr, HeapSeed: 3}
	}
	for _, mode := range []heap.Mode{heap.ModeBump, heap.ModeRandomized} {
		batch, err := machine.NewBatch(machine.XeonE5440(), kMax)
		if err != nil {
			t.Fatal(err)
		}
		for ki := range specs {
			specs[ki].HeapMode = mode
		}
		if _, _, err := batch.Run(specs); err != nil { // warm the reusable state
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, _, err := batch.Run(specs); err != nil {
				t.Error(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %.1f allocs per batch run, want 0", mode, allocs)
		}
	}
}

// BenchmarkBatchRun measures the batched replay engine on the same
// 200k-instruction perlbench workload as BenchmarkMachineRun, across
// batch widths. ns/op covers all k layouts of one Run; layouts/s is
// reported as a custom metric for direct comparison with the scalar
// path (and across widths — wider batches amortize the shared trace
// decode further until the K-wide cache tags outgrow the host caches).
func BenchmarkBatchRun(b *testing.B) {
	spec, ok := progen.ByName("400.perlbench")
	if !ok {
		b.Fatal("missing spec")
	}
	prog := progen.MustGenerate(spec)
	tr, err := interp.Run(prog, 1, interp.StopRule{Budget: 200000})
	if err != nil {
		b.Fatal(err)
	}
	const kMax = 32
	specs := make([]machine.RunSpec, kMax)
	for ki := range specs {
		exe, err := toolchain.BuildLayout(prog, uint64(ki+1), toolchain.CompileConfig{}, toolchain.LinkConfig{})
		if err != nil {
			b.Fatal(err)
		}
		specs[ki] = machine.RunSpec{Exe: exe, Trace: tr, HeapSeed: 3}
	}
	for _, k := range []int{8, 16, 32} {
		for _, mode := range []heap.Mode{heap.ModeBump, heap.ModeRandomized} {
			b.Run(fmt.Sprintf("%s/k=%d", mode, k), func(b *testing.B) {
				batch, err := machine.NewBatch(machine.XeonE5440(), k)
				if err != nil {
					b.Fatal(err)
				}
				for ki := range specs {
					specs[ki].HeapMode = mode
				}
				if _, _, err := batch.Run(specs[:k]); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := batch.Run(specs[:k]); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(k)*float64(b.N)/b.Elapsed().Seconds(), "layouts/s")
			})
		}
	}
}

// TestBatchReuseAfterFallback is the reuse-after-fallback regression: a
// Run rejected mid-validation (predictor instance shared across
// lanes) must leave the engine's per-lane scratch and loaded tables in
// a state where the next Run still matches sequential exactly.
func TestBatchReuseAfterFallback(t *testing.T) {
	cfg := machine.XeonE5440()
	batch, err := machine.NewBatch(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	progs := batchPrograms(t, 20000)
	pp := progs[0]
	mk := func(seed uint64) *toolchain.Executable {
		exe, err := toolchain.BuildLayout(pp.prog, seed, toolchain.CompileConfig{}, toolchain.LinkConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return exe
	}
	good := []machine.RunSpec{
		{Exe: mk(1), Trace: pp.trace, HeapMode: heap.ModeRandomized, HeapSeed: 7},
		{Exe: mk(2), Trace: pp.trace, HeapMode: heap.ModeRandomized, HeapSeed: 9},
	}
	if _, _, err := batch.Run(good); err != nil {
		t.Fatal(err)
	}
	shared := branch.NewGshare(1024, 8)
	saboteur := []machine.RunSpec{good[0], good[1]}
	saboteur[0].Predictor, saboteur[1].Predictor = shared, shared
	if _, _, err := batch.Run(saboteur); err == nil {
		t.Fatal("shared predictor instance accepted")
	}
	c, d, err := batch.Run(good)
	if err != nil {
		t.Fatal(err)
	}
	seq := machine.New(cfg)
	for ki := range good {
		wantC, wantD, err := seq.RunDeterministic(good[ki])
		if err != nil {
			t.Fatal(err)
		}
		if c[ki] != wantC || math.Float64bits(d[ki]) != math.Float64bits(wantD) {
			t.Fatalf("lane %d diverged after fallback reuse:\nbatch %+v det %v\nseq   %+v det %v",
				ki, c[ki], d[ki], wantC, wantD)
		}
	}
}
