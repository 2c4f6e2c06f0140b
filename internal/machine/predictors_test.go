package machine_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"interferometry/internal/heap"
	"interferometry/internal/interp"
	"interferometry/internal/machine"
	"interferometry/internal/progen"
	"interferometry/internal/toolchain"
	"interferometry/internal/uarch/branch"
)

// lanesFixture is 471.omnetpp — the predictor-study benchmark, with heap
// objects for the randomized mode — at one layout.
func lanesFixture(t testing.TB, budget uint64) (*interp.Trace, *toolchain.Executable) {
	t.Helper()
	spec, ok := progen.ByName("471.omnetpp")
	if !ok {
		t.Fatal("missing spec")
	}
	prog := progen.MustGenerate(spec)
	tr, err := interp.Run(prog, 1, interp.StopRule{Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	exe, err := toolchain.BuildLayout(prog, 1, toolchain.CompileConfig{}, toolchain.LinkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return tr, exe
}

// sweepPredictors builds fresh instances of the linearity sweep's 72
// configurations with the perfect oracle and the default L-TAGE mixed
// in mid-sweep, so oracle and predicted lanes interleave.
func sweepPredictors() []branch.Predictor {
	var preds []branch.Predictor
	for i, f := range branch.ConfigSpace(72) {
		preds = append(preds, f.New())
		if i == 36 {
			preds = append(preds, branch.Perfect{}, branch.NewLTAGEDefault())
		}
	}
	return preds
}

// TestRunPredictorsMatchesRunDeterministic is the lane property: one
// RunPredictors walk over all 72 sweep predictors plus the oracle and
// L-TAGE returns, for every lane, exactly what RunDeterministic returns
// for that predictor alone — equal Counters and a bit-identical raw
// cycle float — in both heap modes.
func TestRunPredictorsMatchesRunDeterministic(t *testing.T) {
	tr, exe := lanesFixture(t, 60000)
	for _, mode := range []heap.Mode{heap.ModeBump, heap.ModeRandomized} {
		spec := machine.RunSpec{Exe: exe, Trace: tr, HeapMode: mode, HeapSeed: 11}
		preds := sweepPredictors()
		m := machine.New(machine.XeonE5440())
		cs, dets, err := m.RunPredictors(spec, preds)
		if err != nil {
			t.Fatal(err)
		}
		if len(cs) != len(preds) || len(dets) != len(preds) {
			t.Fatalf("%s: %d counters and %d cycle counts for %d lanes", mode, len(cs), len(dets), len(preds))
		}
		got := append([]machine.Counters(nil), cs...)
		gotDets := append([]float64(nil), dets...)

		scalar := machine.New(machine.XeonE5440())
		for l, p := range preds {
			spec.Predictor = p
			want, wantDet, err := scalar.RunDeterministic(spec)
			if err != nil {
				t.Fatal(err)
			}
			if got[l] != want || math.Float64bits(gotDets[l]) != math.Float64bits(wantDet) {
				t.Errorf("%s lane %d (%s): %+v cycles %v, scalar %+v cycles %v", mode, l, p.Name(), got[l], gotDets[l], want, wantDet)
			}
			if _, oracle := p.(branch.Oracle); oracle && (got[l].CondMispredicts != 0 || got[l].CondBranches == 0) {
				t.Errorf("%s: oracle lane %+v", mode, got[l])
			}
		}
	}
}

func TestRunPredictorsValidation(t *testing.T) {
	tr, exe := lanesFixture(t, 5000)
	m := machine.New(machine.XeonE5440())
	spec := machine.RunSpec{Exe: exe, Trace: tr}
	if _, _, err := m.RunPredictors(spec, nil); err == nil {
		t.Error("zero lanes accepted")
	}
	_, _, err := m.RunPredictors(spec, []branch.Predictor{branch.NewBimodal(64), nil})
	if err == nil || !strings.Contains(err.Error(), "lane 1") {
		t.Errorf("nil lane: err %v, want one naming lane 1", err)
	}
	if _, _, err := m.RunPredictors(machine.RunSpec{Trace: tr}, []branch.Predictor{branch.Perfect{}}); err == nil {
		t.Error("nil Exe accepted")
	}
}

// lanePredictors is the predictor set of a walk of the given width: the
// built-in Xeon model alone (the scalar run's shape), or the first
// configurations of the 72-point linearity sweep (36 is one worker's
// half of it).
func lanePredictors(lanes int) []branch.Predictor {
	if lanes == 1 {
		return []branch.Predictor{branch.NewXeonE5440()}
	}
	var preds []branch.Predictor
	for _, f := range branch.ConfigSpace(72)[:lanes] {
		preds = append(preds, f.New())
	}
	return preds
}

// BenchmarkRunPredictors measures one multi-predictor walk at 1 and 36
// lanes. allocs/op must be 0 at both.
func BenchmarkRunPredictors(b *testing.B) {
	tr, exe := lanesFixture(b, 150000)
	for _, lanes := range []int{1, 36} {
		b.Run(fmt.Sprintf("lanes=%d", lanes), func(b *testing.B) {
			preds := lanePredictors(lanes)
			m := machine.New(machine.XeonE5440())
			spec := machine.RunSpec{Exe: exe, Trace: tr}
			if _, _, err := m.RunPredictors(spec, preds); err != nil { // warm the reusable state
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := m.RunPredictors(spec, preds); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(tr.Instrs)*float64(b.N)*float64(lanes)/b.Elapsed().Seconds()/1e6, "Mlane-instr/s")
		})
	}
}
