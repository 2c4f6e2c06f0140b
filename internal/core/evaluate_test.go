package core_test

import (
	"errors"
	"math"
	"testing"

	"interferometry/internal/core"
	"interferometry/internal/isa"
	"interferometry/internal/toolchain"
	"interferometry/internal/uarch/branch"
)

// poisonedBimodal is a bimodal-64 that panics on a branch at a poisoned
// PC, so it fails on exactly the layouts that place an executed branch
// there.
type poisonedBimodal struct {
	*branch.Bimodal
	poisoned func(pc uint64) bool
}

func (p poisonedBimodal) Predict(pc uint64) bool {
	if p.poisoned(pc) {
		panic("poisoned branch")
	}
	return p.Bimodal.Predict(pc)
}

// TestEvaluatePredictorsPanicBudget: a candidate predictor that panics
// fails exactly the layouts it panics on, however the sweep groups
// layouts. Those layouts read NaN for every candidate; every other
// layout keeps the value a clean evaluation gives it, so the other
// candidates' means are the clean means over the surviving layouts.
// A predictor that panics everywhere leaves every layout NaN within a
// large enough failure budget, and aborts the sweep with budget 0.
func TestEvaluatePredictorsPanicBudget(t *testing.T) {
	ds, err := core.RunCampaign(smallCampaign(16))
	if err != nil {
		t.Fatal(err)
	}
	model, err := ds.MPKIModel()
	if err != nil {
		t.Fatal(err)
	}
	bimodal := branch.Factory{Name: "bimodal-64", New: func() branch.Predictor { return branch.NewBimodal(64) }}
	ltage := branch.Factory{Name: "l-tage", New: func() branch.Predictor { return branch.NewLTAGEDefault() }}
	clean, err := ds.EvaluatePredictors(model, []branch.Factory{bimodal, ltage})
	if err != nil {
		t.Fatal(err)
	}

	// Poison one executed branch PC of layouts 1, 5 and 6; a layout
	// fails if any of its executed branches sits at a poisoned PC.
	builder := toolchain.NewBuilder(ds.Config.Program, ds.Config.Compile, ds.Config.Link)
	exes := make([]*toolchain.Executable, len(ds.Obs))
	for i := range exes {
		if exes[i], err = builder.Build(ds.Obs[i].LayoutSeed); err != nil {
			t.Fatal(err)
		}
	}
	executed := map[isa.BlockID]bool{}
	for _, bid := range ds.Trace.BlockSeq {
		if ds.Config.Program.Blocks[bid].Term.Kind == isa.TermCondBranch {
			executed[bid] = true
		}
	}
	var branchy isa.BlockID
	for bid := range executed {
		branchy = max(branchy, bid)
	}
	poison := map[uint64]bool{}
	for _, i := range []int{1, 5, 6} {
		poison[exes[i].TermAddr(branchy)] = true
	}
	fails := make([]bool, len(exes))
	nFail := 0
	for i, exe := range exes {
		for bid := range executed {
			if poison[exe.TermAddr(bid)] {
				fails[i] = true
			}
		}
		if fails[i] {
			nFail++
		}
	}
	if nFail == 0 || nFail == len(exes) {
		t.Fatalf("%d of %d layouts poisoned; the test needs some of each", nFail, len(exes))
	}

	poisoned := branch.Factory{Name: "poisoned", New: func() branch.Predictor {
		return poisonedBimodal{branch.NewBimodal(64), func(pc uint64) bool { return poison[pc] }}
	}}
	ds.Config.FailureBudget = len(ds.Obs)
	evals, err := ds.EvaluatePredictors(model, []branch.Factory{bimodal, poisoned, ltage})
	if err != nil {
		t.Fatalf("failures within the budget: %v", err)
	}
	for c, want := range []core.PredictorEval{clean[0], clean[0], clean[1]} {
		var sum float64
		for i, got := range evals[c].MPKIPerLayout {
			switch {
			case fails[i] && !math.IsNaN(got):
				t.Errorf("%s layout %d: MPKI %v, want NaN (the candidate panics there)", evals[c].Name, i, got)
			case !fails[i] && got != want.MPKIPerLayout[i]:
				t.Errorf("%s layout %d: MPKI %v, clean %v", evals[c].Name, i, got, want.MPKIPerLayout[i])
			case !fails[i]:
				sum += got
			}
		}
		if mean := sum / float64(len(exes)-nFail); evals[c].MPKI != mean {
			t.Errorf("%s: mean MPKI %v, clean mean over the surviving layouts %v", evals[c].Name, evals[c].MPKI, mean)
		}
	}

	everywhere := branch.Factory{Name: "panics", New: func() branch.Predictor {
		return poisonedBimodal{branch.NewBimodal(64), func(uint64) bool { return true }}
	}}
	evals, err = ds.EvaluatePredictors(model, []branch.Factory{bimodal, everywhere})
	if err != nil {
		t.Fatalf("failures within the budget: %v", err)
	}
	for c := range evals {
		for i, got := range evals[c].MPKIPerLayout {
			if !math.IsNaN(got) {
				t.Errorf("%s layout %d: MPKI %v, want NaN", evals[c].Name, i, got)
			}
		}
	}

	ds.Config.FailureBudget = 0
	_, err = ds.EvaluatePredictors(model, []branch.Factory{bimodal, poisoned})
	var pe *core.PanicError
	if !errors.Is(err, core.ErrSweepAborted) || !errors.As(err, &pe) {
		t.Fatalf("budget 0: error %v, want a sweep abort carrying the panic", err)
	}
}
