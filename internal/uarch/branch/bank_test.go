package branch

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestXeonBankMatchesScalar pins every XeonBank lane bit-identical to a
// private NewXeonE5440 instance: PredictUpdate must return exactly what
// scalar Predict would, and train exactly as scalar Update does, under
// an interleaved multi-lane branch stream with heavy PC aliasing.
func TestXeonBankMatchesScalar(t *testing.T) {
	const lanes = 6
	bank := NewXeonBank(lanes)
	refs := make([]*Hybrid, lanes)
	for k := range refs {
		refs[k] = NewXeonE5440()
	}
	rng := rand.New(rand.NewSource(7))
	pcs := make([]uint64, 64)
	for i := range pcs {
		pcs[i] = rng.Uint64() & (1<<44 - 1)
	}
	for op := 0; op < 300000; op++ {
		k := rng.Intn(lanes)
		pc := pcs[rng.Intn(len(pcs))]
		taken := rng.Intn(3) != 0
		want := refs[k].Predict(pc)
		refs[k].Update(pc, taken)
		if got := bank.PredictUpdate(k, pc, taken); got != want {
			t.Fatalf("op %d lane %d pc %#x: bank predicted %v, scalar %v", op, k, pc, got, want)
		}
		if op%50000 == 0 {
			bank.Reset()
			for _, r := range refs {
				r.Reset()
			}
		}
	}
}

// TestBTBBankMatchesScalar pins every BTBBank lane bit-identical to a
// private scalar BTB: same predicted/mispredicted outcomes, including
// wrong-target corrections and LRU evictions.
func TestBTBBankMatchesScalar(t *testing.T) {
	const lanes = 4
	for _, geom := range [][2]int{{512, 4}, {16, 2}, {8, 1}} {
		sets, ways := geom[0], geom[1]
		bank, err := NewBTBBank(sets, ways, lanes)
		if err != nil {
			t.Fatal(err)
		}
		refs := make([]*BTB, lanes)
		for k := range refs {
			refs[k] = NewBTB(sets, ways)
		}
		rng := rand.New(rand.NewSource(11))
		pcs := make([]uint64, 48)
		targets := make([]uint64, 8)
		for i := range pcs {
			pcs[i] = rng.Uint64() & (1<<44 - 1)
		}
		for i := range targets {
			targets[i] = rng.Uint64() & (1<<44 - 1)
		}
		for op := 0; op < 200000; op++ {
			k := rng.Intn(lanes)
			pc := pcs[rng.Intn(len(pcs))]
			target := targets[rng.Intn(len(targets))]
			want := refs[k].Predict(pc, target)
			if got := bank.PredictUpdate(k, pc, target); got != want {
				t.Fatalf("%dx%d op %d lane %d pc %#x: bank %v, scalar %v", sets, ways, op, k, pc, got, want)
			}
			if op%60000 == 0 {
				bank.Reset()
				for _, r := range refs {
					r.Reset()
				}
			}
		}
	}
}

func TestBTBBankRejectsWideGeometry(t *testing.T) {
	if _, err := NewBTBBank(64, 16, 2); err == nil {
		t.Fatal("NewBTBBank accepted a 16-way geometry")
	}
	if _, err := NewBTBBank(63, 4, 2); err == nil {
		t.Fatal("NewBTBBank accepted a non-power-of-two set count")
	}
}

// TestNewLanes: NewLanes picks a bank for L-TAGE and GAs, one instance
// per lane for any other predictor, nothing for an oracle, and refuses a
// factory without a predictor or a lane count outside 1..MaxLanes.
func TestNewLanes(t *testing.T) {
	built := 0
	gshare := Factory{Name: "gshare", New: func() Predictor { built++; return NewGshare(1024, 10) }}
	for _, c := range []struct {
		f    Factory
		want string
	}{
		{Factory{Name: "l-tage", New: func() Predictor { return NewLTAGEDefault() }}, "*branch.LTAGEBank"},
		{Factory{Name: "gas", New: func() Predictor { return GAsBudget(2048) }}, "*branch.GAsBank"},
		{gshare, "branch.predictorLanes"},
		{Factory{Name: "perfect", New: func() Predictor { return Perfect{} }}, "<nil>"},
	} {
		ls, err := NewLanes(c.f, 5)
		if got := fmt.Sprintf("%T", ls); err != nil || got != c.want {
			t.Errorf("%s: NewLanes built %s (%v), want %s", c.f.Name, got, err, c.want)
		}
	}
	if built != 5 {
		t.Errorf("gshare lanes built %d instances, want one per lane (5)", built)
	}
	for _, n := range []int{0, MaxLanes + 1} {
		if _, err := NewLanes(gshare, n); err == nil {
			t.Errorf("%d lanes accepted", n)
		}
	}
	if _, err := NewLanes(Factory{Name: "nil", New: func() Predictor { return nil }}, 1); err == nil {
		t.Error("factory without a predictor accepted")
	}
}
