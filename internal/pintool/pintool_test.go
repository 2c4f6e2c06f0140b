package pintool_test

import (
	"reflect"
	"testing"

	"interferometry/internal/interp"
	"interferometry/internal/isa"
	"interferometry/internal/pintool"
	"interferometry/internal/progen"
	"interferometry/internal/testprog"
	"interferometry/internal/toolchain"
	"interferometry/internal/uarch/branch"
)

func fixtures(t *testing.T) (*interp.Trace, *toolchain.Executable) {
	t.Helper()
	p := testprog.ManyBranches(120, 300)
	tr, err := interp.Run(p, 1, interp.StopRule{Budget: 150000})
	if err != nil {
		t.Fatal(err)
	}
	exe, err := toolchain.BuildLayout(p, 3, toolchain.CompileConfig{}, toolchain.LinkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return tr, exe
}

func facs() []branch.Factory {
	return []branch.Factory{
		{Name: "perfect", New: func() branch.Predictor { return branch.Perfect{} }},
		{Name: "bimodal-64", New: func() branch.Predictor { return branch.NewBimodal(64) }},
		{Name: "l-tage", New: func() branch.Predictor { return branch.NewLTAGEDefault() }},
	}
}

func TestRunBasic(t *testing.T) {
	tr, exe := fixtures(t)
	rs, err := pintool.Run(tr, exe, facs(), pintool.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 {
		t.Fatalf("got %d results", len(rs))
	}
	for _, r := range rs {
		if r.Instructions != tr.Instrs {
			t.Errorf("%s: instructions %d != trace %d", r.Name, r.Instructions, tr.Instrs)
		}
		if r.CondBranches != tr.CondBranches {
			t.Errorf("%s: cond branches %d != trace %d", r.Name, r.CondBranches, tr.CondBranches)
		}
	}
	if rs[0].CondMispredicts != 0 || rs[0].MPKI() != 0 {
		t.Error("perfect predictor should have zero mispredictions")
	}
	if rs[1].CondMispredicts == 0 {
		t.Error("tiny bimodal should mispredict")
	}
	if rs[2].CondMispredicts >= rs[1].CondMispredicts {
		t.Errorf("L-TAGE (%d) should beat bimodal-64 (%d)",
			rs[2].CondMispredicts, rs[1].CondMispredicts)
	}
}

func TestRunNoVariance(t *testing.T) {
	// "Pin runs only once for each reordering; since we control the
	// initial conditions... there is no variance in the simulation
	// result" (§7.2).
	tr, exe := fixtures(t)
	a, err := pintool.Run(tr, exe, facs(), pintool.Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := pintool.Run(tr, exe, facs(), pintool.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("pintool results vary between identical runs")
	}
}

func TestRunLayoutSensitivity(t *testing.T) {
	// Different code layouts must yield different misprediction counts
	// for a finite predictor (aliasing changes), but identical branch
	// counts (semantics unchanged).
	p := testprog.ManyBranches(300, 300)
	tr, err := interp.Run(p, 1, interp.StopRule{Budget: 200000})
	if err != nil {
		t.Fatal(err)
	}
	fac := []branch.Factory{{Name: "gas-2KB", New: func() branch.Predictor { return branch.GAsBudget(2048) }}}
	counts := map[uint64]bool{}
	for seed := uint64(1); seed <= 10; seed++ {
		exe, err := toolchain.BuildLayout(p, seed, toolchain.CompileConfig{}, toolchain.LinkConfig{})
		if err != nil {
			t.Fatal(err)
		}
		rs, err := pintool.Run(tr, exe, fac, pintool.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if rs[0].CondBranches != tr.CondBranches {
			t.Fatal("layout changed branch count")
		}
		counts[rs[0].CondMispredicts] = true
	}
	if len(counts) < 2 {
		t.Error("10 layouts gave identical misprediction counts; no aliasing sensitivity")
	}
}

func TestRunErrors(t *testing.T) {
	tr, exe := fixtures(t)
	if _, err := pintool.Run(nil, exe, facs(), pintool.Config{}); err == nil {
		t.Error("nil trace accepted")
	}
	if _, err := pintool.Run(tr, nil, facs(), pintool.Config{}); err == nil {
		t.Error("nil exe accepted")
	}
	if _, err := pintool.Run(tr, exe, nil, pintool.Config{}); err == nil {
		t.Error("empty factory list accepted")
	}
	other := testprog.Counting(3)
	otherTr, err := interp.Run(other, 1, interp.StopRule{Budget: 100})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pintool.Run(otherTr, exe, facs(), pintool.Config{}); err == nil {
		t.Error("cross-program trace accepted")
	}
}

func TestIndirectHandling(t *testing.T) {
	p := testprog.Branchy() // has an indirect call
	tr, err := interp.Run(p, 1, interp.StopRule{Budget: 30000})
	if err != nil {
		t.Fatal(err)
	}
	exe, err := toolchain.BuildLayout(p, 1, toolchain.CompileConfig{}, toolchain.LinkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := pintool.Run(tr, exe, facs(), pintool.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rs[1].IndirectBranches != tr.IndirectCalls {
		t.Errorf("indirect count %d != trace %d", rs[1].IndirectBranches, tr.IndirectCalls)
	}
	// The Branchy indirect call is polymorphic (two targets), so a BTB
	// must mispredict sometimes.
	if rs[1].IndirectMispreds == 0 {
		t.Error("polymorphic indirect call never mispredicted")
	}
	// The perfect predictor reports no indirect mispredictions either.
	if rs[0].IndirectMispreds != 0 {
		t.Error("perfect predictor should report zero indirect mispredictions")
	}
}

func TestResultDerived(t *testing.T) {
	r := pintool.Result{
		Instructions:    1000,
		CondBranches:    100,
		CondMispredicts: 10,
	}
	if r.MPKI() != 10 {
		t.Errorf("MPKI = %v", r.MPKI())
	}
	if r.CondAccuracy() != 0.9 {
		t.Errorf("CondAccuracy = %v", r.CondAccuracy())
	}
	var zero pintool.Result
	if zero.MPKI() != 0 || zero.CondAccuracy() != 1 {
		t.Error("zero-value result derived metrics wrong")
	}
}

// referenceRun is the scalar replay Run's walk must match: one
// predictor instance per factory and one scalar 512×4 BTB, all fed in
// one walk per pass.
func referenceRun(tr *interp.Trace, exe *toolchain.Executable, factories []branch.Factory, warmup bool) []pintool.Result {
	preds := make([]branch.Predictor, len(factories))
	rs := make([]pintool.Result, len(factories))
	for i, f := range factories {
		preds[i] = f.New()
		rs[i] = pintool.Result{Name: f.Name, Instructions: tr.Instrs}
	}
	btb := branch.NewBTB(512, 4)
	var cond, indirect, indirectMiss uint64
	passes := 1
	if warmup {
		passes = 2
	}
	for pass := 0; pass < passes; pass++ {
		counting := pass == passes-1
		cur := tr.Cursor()
		for {
			bid, ok := cur.NextBlock()
			if !ok {
				break
			}
			b := &tr.Program.Blocks[bid]
			switch b.Term.Kind {
			case isa.TermCondBranch:
				taken := cur.NextTaken()
				pc := exe.TermAddr(bid)
				if counting {
					cond++
				}
				for i, p := range preds {
					if _, oracle := p.(branch.Oracle); oracle {
						continue
					}
					if p.Predict(pc) != taken && counting {
						rs[i].CondMispredicts++
					}
					p.Update(pc, taken)
				}
			case isa.TermIndirectCall:
				target := exe.ProcAddr[b.Term.Callees[cur.NextIndirect()]]
				if !btb.Predict(exe.TermAddr(bid), target) && counting {
					indirectMiss++
				}
				if counting {
					indirect++
				}
			}
		}
	}
	for i := range rs {
		rs[i].CondBranches = cond
		rs[i].IndirectBranches = indirect
		if _, oracle := preds[i].(branch.Oracle); !oracle {
			rs[i].IndirectMispreds = indirectMiss
		}
	}
	return rs
}

// TestRunLayoutsMatchesRun: RunLayouts over K layouts equals K separate
// Run calls, Result for Result, and Run equals the scalar reference
// replay. The factories cover every kind of lane: the paper's GAs and
// L-TAGE banks, generic lanes (a gshare and the Xeon hybrid) and an
// oracle that is never walked. Both programs make indirect calls, so the
// BTB lanes riding the first walk are checked too; 70 layouts take two
// walks of at most 64 lanes.
func TestRunLayoutsMatchesRun(t *testing.T) {
	factories := append(branch.PaperPredictors(),
		branch.Factory{Name: "gshare-4096x12", New: func() branch.Predictor { return branch.NewGshare(4096, 12) }},
		branch.Factory{Name: "xeon", New: func() branch.Predictor { return branch.NewXeonE5440() }},
		branch.Factory{Name: "perfect", New: func() branch.Predictor { return branch.Perfect{} }},
	)
	omnetpp, ok := progen.ByName("471.omnetpp")
	if !ok {
		t.Fatal("missing 471.omnetpp")
	}
	for _, c := range []struct {
		name   string
		prog   *isa.Program
		budget uint64
		ks     []int
	}{
		{"branchy", testprog.Branchy(), 30000, []int{1, 2, 8, 32, 70}},
		{"471.omnetpp", progen.MustGenerate(omnetpp), 60000, []int{1, 2, 8, 32}},
	} {
		tr, err := interp.Run(c.prog, 1, interp.StopRule{Budget: c.budget})
		if err != nil {
			t.Fatal(err)
		}
		if tr.IndirectCalls == 0 {
			t.Fatalf("%s makes no indirect calls", c.name)
		}
		var exes []*toolchain.Executable
		for seed := uint64(1); len(exes) < c.ks[len(c.ks)-1]; seed++ {
			exe, err := toolchain.BuildLayout(c.prog, seed, toolchain.CompileConfig{}, toolchain.LinkConfig{})
			if err != nil {
				t.Fatal(err)
			}
			exes = append(exes, exe)
		}
		for _, warmup := range []bool{false, true} {
			cfg := pintool.Config{Warmup: warmup}
			single := make([][]pintool.Result, len(exes))
			for k, exe := range exes {
				if single[k], err = pintool.Run(tr, exe, factories, cfg); err != nil {
					t.Fatal(err)
				}
				if k < 4 {
					if ref := referenceRun(tr, exe, factories, warmup); !reflect.DeepEqual(single[k], ref) {
						t.Fatalf("%s warmup=%v layout %d: Run %+v, scalar reference %+v", c.name, warmup, k, single[k], ref)
					}
				}
			}
			for _, n := range c.ks {
				multi, err := pintool.RunLayouts(tr, exes[:n], factories, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if len(multi) != n {
					t.Fatalf("%s K=%d: %d result rows", c.name, n, len(multi))
				}
				for k := range multi {
					if !reflect.DeepEqual(multi[k], single[k]) {
						t.Fatalf("%s warmup=%v K=%d layout %d:\nRunLayouts %+v\nRun        %+v", c.name, warmup, n, k, multi[k], single[k])
					}
				}
			}
			// The layouts must tell the lanes apart, or a bank that
			// mixed them up would pass.
			distinct := map[uint64]bool{}
			for k := range single {
				distinct[single[k][4].CondMispredicts] = true
				if single[k][len(factories)-2].IndirectMispreds == 0 {
					t.Errorf("%s layout %d: no indirect mispredictions", c.name, k)
				}
			}
			if len(distinct) < 2 {
				t.Errorf("%s warmup=%v: every layout gave L-TAGE the same mispredictions", c.name, warmup)
			}
		}
	}
}

func TestRunLayoutsErrors(t *testing.T) {
	tr, exe := fixtures(t)
	if _, err := pintool.RunLayouts(tr, nil, facs(), pintool.Config{}); err == nil {
		t.Error("no executables accepted")
	}
	if _, err := pintool.RunLayouts(tr, []*toolchain.Executable{exe, nil}, facs(), pintool.Config{}); err == nil {
		t.Error("nil executable accepted")
	}
	nilFac := []branch.Factory{{Name: "nil", New: func() branch.Predictor { return nil }}}
	if _, err := pintool.Run(tr, exe, nilFac, pintool.Config{}); err == nil {
		t.Error("factory without a predictor accepted")
	}
}
