package machine_test

import (
	"testing"

	"interferometry/internal/heap"
	"interferometry/internal/interp"
	"interferometry/internal/machine"
	"interferometry/internal/progen"
	"interferometry/internal/toolchain"
)

// BenchmarkMachineRun measures the steady-state cost of one timing-model
// run, the unit the paper protocol multiplies by 15. The machine reuses
// its predictor, heap allocator, load tables and scratch slices, so
// allocs/op must report 0 in steady state for both heap modes.
func BenchmarkMachineRun(b *testing.B) {
	spec, ok := progen.ByName("400.perlbench")
	if !ok {
		b.Fatal("missing spec")
	}
	prog := progen.MustGenerate(spec)
	tr, err := interp.Run(prog, 1, interp.StopRule{Budget: 200000})
	if err != nil {
		b.Fatal(err)
	}
	exe, err := toolchain.BuildLayout(prog, 1, toolchain.CompileConfig{}, toolchain.LinkConfig{})
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []heap.Mode{heap.ModeBump, heap.ModeRandomized} {
		b.Run(mode.String(), func(b *testing.B) {
			m := machine.New(machine.XeonE5440())
			rs := machine.RunSpec{Exe: exe, Trace: tr, HeapMode: mode, HeapSeed: 3}
			if _, err := m.Run(rs); err != nil { // warm the reusable state
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rs.NoiseSeed = uint64(i)
				if _, err := m.Run(rs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestMachineRunZeroAlloc pins the benchmark's headline property in the
// ordinary test suite: after warmup, a machine run allocates nothing, in
// either heap mode — nor does a 36-lane RunPredictors walk, the shape
// of one worker's linearity sweep. BenchmarkMachineRun and
// BenchmarkRunPredictors report the same numbers, but a plain test fails
// `go test ./...` the moment a change reintroduces a steady-state
// allocation.
func TestMachineRunZeroAlloc(t *testing.T) {
	spec, ok := progen.ByName("400.perlbench")
	if !ok {
		t.Fatal("missing spec")
	}
	prog := progen.MustGenerate(spec)
	tr, err := interp.Run(prog, 1, interp.StopRule{Budget: 100000})
	if err != nil {
		t.Fatal(err)
	}
	exe, err := toolchain.BuildLayout(prog, 1, toolchain.CompileConfig{}, toolchain.LinkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []heap.Mode{heap.ModeBump, heap.ModeRandomized} {
		m := machine.New(machine.XeonE5440())
		rs := machine.RunSpec{Exe: exe, Trace: tr, HeapMode: mode, HeapSeed: 3}
		if _, err := m.Run(rs); err != nil { // warm the reusable state
			t.Fatal(err)
		}
		noise := uint64(0)
		allocs := testing.AllocsPerRun(10, func() {
			noise++
			rs.NoiseSeed = noise
			if _, err := m.Run(rs); err != nil {
				t.Error(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %.1f allocs per run, want 0", mode, allocs)
		}

		preds := lanePredictors(36)
		if _, _, err := m.RunPredictors(rs, preds); err != nil { // warm the lane scratch
			t.Fatal(err)
		}
		allocs = testing.AllocsPerRun(3, func() {
			if _, _, err := m.RunPredictors(rs, preds); err != nil {
				t.Error(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %.1f allocs per 36-lane walk, want 0", mode, allocs)
		}
	}
}

// BenchmarkReplay measures the timing model's replay throughput on a
// realistic benchmark trace, the inner loop of every campaign.
func BenchmarkReplay(b *testing.B) {
	spec, ok := progen.ByName("400.perlbench")
	if !ok {
		b.Fatal("missing spec")
	}
	prog := progen.MustGenerate(spec)
	tr, err := interp.Run(prog, 1, interp.StopRule{Budget: 200000})
	if err != nil {
		b.Fatal(err)
	}
	exe, err := toolchain.BuildLayout(prog, 1, toolchain.CompileConfig{}, toolchain.LinkConfig{})
	if err != nil {
		b.Fatal(err)
	}
	m := machine.New(machine.XeonE5440())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Run(machine.RunSpec{Exe: exe, Trace: tr, NoiseSeed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tr.Instrs)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// BenchmarkTraceGeneration measures the interpreter's trace-generation
// throughput (paid once per benchmark, amortized over all layouts).
func BenchmarkTraceGeneration(b *testing.B) {
	spec, ok := progen.ByName("400.perlbench")
	if !ok {
		b.Fatal("missing spec")
	}
	prog := progen.MustGenerate(spec)
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		tr, err := interp.Run(prog, uint64(i+1), interp.StopRule{Budget: 200000})
		if err != nil {
			b.Fatal(err)
		}
		instrs += tr.Instrs
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}
