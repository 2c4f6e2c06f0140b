package branch

import (
	"testing"

	"interferometry/internal/xrand"
)

// TestLTAGEHistoryBookkeeping validates the global-history ring and the
// circularly-folded registers against a naive reference that keeps the
// outcome list explicitly. The folded-register update consumes the bit
// falling out of each component's window; reading it from the ring at
// the right age — after the head has moved, across the ring's wrap —
// is exactly the kind of bookkeeping that silently corrupts a TAGE
// implementation. The run is many times the ring's length, so every
// slot is overwritten repeatedly. The reference folds are computed
// directly from the outcome list (the outcome at age a lands on bit
// a mod clen), so they check the precomputed per-register shift too.
func TestLTAGEHistoryBookkeeping(t *testing.T) {
	l := NewLTAGE(LTAGEConfig{NumTables: 6, LogTagged: 7, LogBase: 10, MaxHist: 130})
	h := &l.hist
	if len(h.hist) <= h.histLen || len(h.hist)&(len(h.hist)-1) != 0 || h.histMask != len(h.hist)-1 {
		t.Fatalf("ring of %d slots (mask %#x) cannot hold age %d", len(h.hist), h.histMask, h.histLen)
	}
	rng := xrand.New(99)
	// ringBit reads the outcome age branches ago (0 = youngest) straight
	// from the ring, the way pushHistory reads the bit leaving a window.
	ringBit := func(age int) uint64 { return uint64(h.hist[(h.head+age)&h.histMask]) }

	// Naive shadow state: outcomes[0] is the most recent.
	var outcomes []bool
	directFold := func(olen int, clen uint) uint64 {
		var comp uint64
		for a := 0; a < olen && a < len(outcomes); a++ {
			if outcomes[a] {
				comp ^= 1 << (uint(a) % clen)
			}
		}
		return comp
	}

	steps := 40 * len(h.hist)
	for step := 0; step < steps; step++ {
		pc := 0x400000 + uint64(rng.Intn(64))*24
		taken := rng.Bool(0.6)
		l.Predict(pc)
		l.Update(pc, taken)

		outcomes = append([]bool{taken}, outcomes...)
		if len(outcomes) > h.histLen+8 {
			outcomes = outcomes[:h.histLen+8]
		}

		// The ring must agree with the explicit list up to and including
		// age histLen, the bit the longest window dropped this step.
		for age := 0; age <= h.histLen; age++ {
			want := uint64(0)
			if age < len(outcomes) && outcomes[age] {
				want = 1
			}
			if got := ringBit(age); got != want {
				t.Fatalf("step %d: ring slot for age %d = %d, want %d", step, age, got, want)
			}
		}
		// Folded registers must agree with the direct folds.
		for i := range h.comps {
			c := &h.comps[i]
			for k, f := range []*folded{&c.foldIdx, &c.foldTag1, &c.foldTag2} {
				if want := directFold(c.histLen, f.clen); f.comp != want {
					t.Fatalf("step %d comp %d fold %d: %x, direct %x", step, i, k, f.comp, want)
				}
			}
		}
	}

	// Reset returns the ring and the folds to power-on.
	l.Reset()
	for age := 0; age <= h.histLen; age++ {
		if ringBit(age) != 0 {
			t.Fatalf("after Reset: history bit age %d set", age)
		}
	}
	for i := range h.comps {
		c := &h.comps[i]
		if c.foldIdx.comp|c.foldTag1.comp|c.foldTag2.comp != 0 {
			t.Fatalf("after Reset: comp %d folds not cleared", i)
		}
	}
}

// TestFoldedMatchesDirectFold checks the folded register against a
// direct O(len) fold of an explicit window.
func TestFoldedMatchesDirectFold(t *testing.T) {
	const olen, clen = 21, 8
	var f folded
	f.init(olen, clen)
	rng := xrand.New(5)
	var window []uint64 // window[0] is newest

	direct := func() uint64 {
		// Reconstruct by replaying the recurrence over the full history
		// from empty state — the definition of the folded register.
		var g folded
		g.init(olen, clen)
		for k := len(window) - 1; k >= 0; k-- {
			oldBit := uint64(0)
			idx := olen - 1 // age of the dropped bit before this insert
			// The bit at age idx before inserting window[k] is
			// window[k+idx+1]... relative to final indexing: when
			// inserting the bit that now has age k, the dropped bit now
			// has age k+olen.
			if k+olen < len(window) {
				oldBit = window[k+olen]
			}
			_ = idx
			g.update(window[k], oldBit)
		}
		return g.comp
	}

	for step := 0; step < 2000; step++ {
		bit := uint64(0)
		if rng.Bool(0.5) {
			bit = 1
		}
		oldBit := uint64(0)
		if len(window) >= olen {
			oldBit = window[olen-1]
		}
		f.update(bit, oldBit)
		window = append([]uint64{bit}, window...)
		if len(window) > 4*olen {
			window = window[:4*olen]
		}
		if f.comp != direct() {
			t.Fatalf("step %d: folded %x, direct %x", step, f.comp, direct())
		}
	}
}
