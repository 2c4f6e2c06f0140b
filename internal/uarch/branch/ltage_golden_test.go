package branch_test

import (
	"math/bits"
	"strings"
	"testing"

	"interferometry/internal/interp"
	"interferometry/internal/isa"
	"interferometry/internal/progen"
	"interferometry/internal/toolchain"
	"interferometry/internal/uarch/branch"
)

// ltageGolden pins the conditional mispredictions of every L-TAGE size
// the repo simulates on one fixed progen trace. The counts were recorded
// before the history ring and the precomputed fold shifts replaced the
// shifted multiword history, so any change to what L-TAGE predicts —
// not just to how fast it predicts it — fails here. Each count is for
// a run of ltageGoldenPasses passes from power-on (no Reset between
// passes, so the larger tables also cross the 256K-update graceful
// useful-bit reset); a second run after Reset must repeat it.
var ltageGolden = map[string]uint64{
	"l-tage-default": 22902,
	"l-tage-4x2^7":   34886,
	"l-tage-6x2^8":   27273,
	"l-tage-8x2^9":   24588,
	"l-tage-12x2^10": 22817,
	"l-tage-12x2^11": 21863,
}

// ltageGoldenPasses replays the golden trace enough times to pass
// 256K conditional updates.
const ltageGoldenPasses = 3

// ltageGoldenTrace is 471.omnetpp's first 2M instructions at layout
// seed 1.
func ltageGoldenTrace(t testing.TB) (*interp.Trace, *toolchain.Executable) {
	t.Helper()
	spec, ok := progen.ByName("471.omnetpp")
	if !ok {
		t.Fatal("missing spec")
	}
	prog := progen.MustGenerate(spec)
	tr, err := interp.Run(prog, 1, interp.StopRule{Budget: 2_000_000})
	if err != nil {
		t.Fatal(err)
	}
	exe, err := toolchain.BuildLayout(prog, 1, toolchain.CompileConfig{}, toolchain.LinkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return tr, exe
}

// condMispredicts replays the trace's conditional branches through p,
// ltageGoldenPasses times over.
func condMispredicts(p branch.Predictor, tr *interp.Trace, exe *toolchain.Executable) (branches, wrong uint64) {
	for pass := 0; pass < ltageGoldenPasses; pass++ {
		cur := tr.Cursor()
		for {
			bid, ok := cur.NextBlock()
			if !ok {
				break
			}
			switch exe.Program.Blocks[bid].Term.Kind {
			case isa.TermCondBranch:
				taken := cur.NextTaken()
				pc := exe.TermAddr(bid)
				if p.Predict(pc) != taken {
					wrong++
				}
				p.Update(pc, taken)
				branches++
			case isa.TermIndirectCall:
				cur.NextIndirect()
			}
		}
	}
	return branches, wrong
}

func TestLTAGEGoldenMispredicts(t *testing.T) {
	if testing.Short() {
		t.Skip("golden replay of a 2M-instruction trace")
	}
	tr, exe := ltageGoldenTrace(t)
	factories := []branch.Factory{{Name: "l-tage-default", New: func() branch.Predictor { return branch.NewLTAGEDefault() }}}
	for _, f := range branch.ConfigSpace(0) {
		if strings.HasPrefix(f.Name, "l-tage-") {
			factories = append(factories, f)
		}
	}
	if len(factories) != 6 {
		t.Fatalf("%d L-TAGE configurations, want the default plus 5 ConfigSpace sizes", len(factories))
	}
	for _, f := range factories {
		p := f.New()
		branches, got := condMispredicts(p, tr, exe)
		if branches < 256*1024 {
			t.Fatalf("trace has %d conditional branches, too few to reach the useful-bit reset", branches)
		}
		want, ok := ltageGolden[f.Name]
		if !ok {
			t.Errorf("%s: no golden value; measured %d mispredicts over %d branches", f.Name, got, branches)
			continue
		}
		if got != want {
			t.Errorf("%s: %d mispredicts, golden %d", f.Name, got, want)
		}
		p.Reset()
		if _, again := condMispredicts(p, tr, exe); again != got {
			t.Errorf("%s: %d mispredicts after Reset, %d from power-on", f.Name, again, got)
		}
	}
}

// bankMispredicts replays the trace's conditional branches through a
// bank's rows, lane k at exes[k]'s PCs, ltageGoldenPasses times over,
// and returns each lane's mispredictions.
func bankMispredicts(row func(pcs []uint64, taken bool) uint64, tr *interp.Trace, exes []*toolchain.Executable) []uint64 {
	wrong := make([]uint64, len(exes))
	pcs := make([]uint64, len(exes))
	for pass := 0; pass < ltageGoldenPasses; pass++ {
		cur := tr.Cursor()
		for {
			bid, ok := cur.NextBlock()
			if !ok {
				break
			}
			switch tr.Program.Blocks[bid].Term.Kind {
			case isa.TermCondBranch:
				taken := cur.NextTaken()
				for k, exe := range exes {
					pcs[k] = exe.TermAddr(bid)
				}
				for m := row(pcs, taken); m != 0; m &= m - 1 {
					wrong[bits.TrailingZeros64(m)]++
				}
			case isa.TermIndirectCall:
				cur.NextIndirect()
			}
		}
	}
	return wrong
}

// goldenLayouts builds layout seeds 1..n of the golden trace's program;
// seed 1 is the layout the golden counts were recorded on.
func goldenLayouts(t *testing.T, exe *toolchain.Executable, n int) []*toolchain.Executable {
	t.Helper()
	exes := []*toolchain.Executable{exe}
	for seed := uint64(2); len(exes) < n; seed++ {
		e, err := toolchain.BuildLayout(exe.Program, seed, toolchain.CompileConfig{}, toolchain.LinkConfig{})
		if err != nil {
			t.Fatal(err)
		}
		exes = append(exes, e)
	}
	return exes
}

// newBank builds the lanes NewLanes makes of New for n layouts and
// checks that they are the bank B.
func newBank[B branch.Lanes](t testing.TB, New func() branch.Predictor, n int) B {
	t.Helper()
	ls, err := branch.NewLanes(branch.Factory{Name: "bank", New: New}, n)
	b, ok := ls.(B)
	if err != nil || !ok {
		t.Fatalf("NewLanes built %T (%v), want %T", ls, err, b)
	}
	return b
}

// TestLTAGEBankMatchesScalar pins every LTAGEBank lane to a scalar
// LTAGE of its own fed that lane's layout: the lanes share one history,
// which must be the history each scalar predictor keeps. The golden
// trace's three passes cross the 256K-update useful-bit reset, which the
// bank runs once for all lanes, and the lane on layout seed 1 must read
// the golden count.
func TestLTAGEBankMatchesScalar(t *testing.T) {
	if testing.Short() {
		t.Skip("golden replay of a 2M-instruction trace")
	}
	tr, exe := ltageGoldenTrace(t)
	exes := goldenLayouts(t, exe, 5)
	bank := newBank[*branch.LTAGEBank](t, func() branch.Predictor { return branch.NewLTAGEDefault() }, len(exes))
	got := bankMispredicts(bank.PredictUpdateRow, tr, exes)
	if want := ltageGolden["l-tage-default"]; got[0] != want {
		t.Errorf("bank lane on layout seed 1: %d mispredicts, golden %d", got[0], want)
	}
	distinct := map[uint64]bool{}
	for k, e := range exes {
		_, want := condMispredicts(branch.NewLTAGEDefault(), tr, e)
		if got[k] != want {
			t.Errorf("lane %d (layout seed %d): bank %d mispredicts, scalar %d", k, e.Seed, got[k], want)
		}
		distinct[want] = true
	}
	if len(distinct) < 2 {
		t.Error("every layout mispredicted equally; the lanes are not exercised apart")
	}
}

// TestGAsBankMatchesScalar is TestLTAGEBankMatchesScalar for the
// paper's GAs budgets.
func TestGAsBankMatchesScalar(t *testing.T) {
	if testing.Short() {
		t.Skip("golden replay of a 2M-instruction trace")
	}
	tr, exe := ltageGoldenTrace(t)
	exes := goldenLayouts(t, exe, 3)
	for _, bytes := range []int{2048, 4096, 8192, 16384} {
		bank := newBank[*branch.GAsBank](t, func() branch.Predictor { return branch.GAsBudget(bytes) }, len(exes))
		got := bankMispredicts(bank.PredictUpdateRow, tr, exes)
		for k, e := range exes {
			if _, want := condMispredicts(branch.GAsBudget(bytes), tr, e); got[k] != want {
				t.Errorf("gas-%dKB lane %d (layout seed %d): bank %d mispredicts, scalar %d", bytes/1024, k, e.Seed, got[k], want)
			}
		}
	}
}
