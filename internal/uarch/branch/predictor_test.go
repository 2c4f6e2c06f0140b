package branch_test

import (
	"strings"
	"testing"

	"interferometry/internal/uarch/branch"
	"interferometry/internal/xrand"
)

// measure runs a stream of (pc, outcome) pairs through a predictor and
// returns the misprediction rate.
func measure(p branch.Predictor, stream func(yield func(pc uint64, taken bool))) float64 {
	var total, wrong int
	stream(func(pc uint64, taken bool) {
		if p.Predict(pc) != taken {
			wrong++
		}
		p.Update(pc, taken)
		total++
	})
	if total == 0 {
		return 0
	}
	return float64(wrong) / float64(total)
}

// branchPC gives branch b a scattered but deterministic address in a 1MB
// text segment, like real code rather than a uniform stride. Scattered
// addresses can collide in small tables — that is the realistic aliasing
// the capacity tests rely on.
func branchPC(b int) uint64 {
	return 0x400000 + (xrand.Mix(uint64(b), 0xbc)&0xfffff)&^3
}

// densePC gives branch b a consecutive-slot address (no aliasing in any
// table with at least nBranches entries), for tests that isolate learning
// behaviour from aliasing.
func densePC(b int) uint64 { return 0x400000 + uint64(b)*4 }

// biasedStreamAt is biasedStream with a caller-chosen address map.
func biasedStreamAt(pcFor func(int) uint64, seed uint64, nBranches, length int, bias float64) func(func(uint64, bool)) {
	return func(yield func(uint64, bool)) {
		r := xrand.New(seed)
		for i := 0; i < length; i++ {
			b := i % nBranches
			taken := r.Bool(bias)
			if b%2 == 1 {
				taken = !taken
			}
			yield(pcFor(b), taken)
		}
	}
}

// biasedStream interleaves nBranches static branches with fixed biases.
func biasedStream(seed uint64, nBranches, length int, bias float64) func(func(uint64, bool)) {
	return func(yield func(uint64, bool)) {
		r := xrand.New(seed)
		for i := 0; i < length; i++ {
			b := i % nBranches
			pc := branchPC(b)
			taken := r.Bool(bias)
			if b%2 == 1 {
				taken = !taken
			}
			yield(pc, taken)
		}
	}
}

// patternStream gives each branch a short repeating pattern, learnable by
// history predictors but not by bimodal.
func patternStream(nBranches, length int) func(func(uint64, bool)) {
	return func(yield func(uint64, bool)) {
		counts := make([]int, nBranches)
		patterns := []uint64{0b0110, 0b1011, 0b0010, 0b1101}
		for i := 0; i < length; i++ {
			b := i % nBranches
			pc := branchPC(b)
			pat := patterns[b%len(patterns)]
			taken := pat>>(uint(counts[b])%4)&1 == 1
			counts[b]++
			yield(pc, taken)
		}
	}
}

// loopStream is a single loop branch with a constant trip count.
func loopStream(trip, iterations int) func(func(uint64, bool)) {
	return func(yield func(uint64, bool)) {
		for it := 0; it < iterations; it++ {
			for k := 0; k < trip; k++ {
				yield(0x400040, k < trip-1)
			}
		}
	}
}

func TestBimodalLearnsBias(t *testing.T) {
	rate := measure(branch.NewBimodal(1024), biasedStreamAt(densePC, 1, 16, 50000, 0.95))
	if rate > 0.12 {
		t.Fatalf("bimodal mispredict rate %v on 95%% biased branches", rate)
	}
}

func TestBimodalStronglyBiased(t *testing.T) {
	rate := measure(branch.NewBimodal(1024), biasedStreamAt(densePC, 2, 16, 50000, 1.0))
	if rate > 0.001 {
		t.Fatalf("bimodal should be near-perfect on fully biased branches, rate %v", rate)
	}
}

func TestBimodalAliasingHurts(t *testing.T) {
	// Many opposite-biased branches in a tiny table alias destructively.
	smallRate := measure(branch.NewBimodal(16), biasedStream(3, 512, 80000, 1.0))
	bigRate := measure(branch.NewBimodal(8192), biasedStream(3, 512, 80000, 1.0))
	if smallRate <= bigRate {
		t.Fatalf("aliasing in a 16-entry table (%v) should exceed an 8K table (%v)", smallRate, bigRate)
	}
	if smallRate < 0.05 {
		t.Fatalf("expected heavy aliasing damage, got %v", smallRate)
	}
}

func TestGshareLearnsPatterns(t *testing.T) {
	gs := measure(branch.NewGshare(4096, 10), patternStream(8, 60000))
	bm := measure(branch.NewBimodal(4096), patternStream(8, 60000))
	if gs > 0.05 {
		t.Fatalf("gshare rate %v on learnable patterns", gs)
	}
	if gs >= bm {
		t.Fatalf("gshare (%v) should beat bimodal (%v) on patterned branches", gs, bm)
	}
}

func TestGAsLearnsPatterns(t *testing.T) {
	rate := measure(branch.NewGAs(6, 10), patternStream(8, 60000))
	if rate > 0.05 {
		t.Fatalf("GAs rate %v on learnable patterns", rate)
	}
}

func TestGAsBiggerIsBetter(t *testing.T) {
	// On an aliasing-heavy workload — branches visited in random order
	// with random per-branch directions, so global history carries no
	// signal — growing the GAs address space at fixed history length
	// reduces destructive aliasing between opposite-biased branches. This
	// is the premise of the paper's Figure 7 size sweep.
	aliasing := func(yield func(uint64, bool)) {
		r := xrand.New(400)
		const nBranches = 200
		for i := 0; i < 150000; i++ {
			b := r.Intn(nBranches)
			dir := xrand.Mix(uint64(b), 77)&1 == 1
			taken := dir
			if r.Bool(0.05) {
				taken = !taken
			}
			yield(branchPC(b), taken)
		}
	}
	small := measure(branch.NewGAs(2, 6), aliasing)
	large := measure(branch.NewGAs(6, 6), aliasing)
	if large >= small {
		t.Fatalf("16KB GAs (%v) should beat 2KB GAs (%v)", large, small)
	}
}

func TestPAsLearnsPerBranchPatterns(t *testing.T) {
	rate := measure(branch.NewPAs(1024, 4096, 10), patternStream(8, 60000))
	if rate > 0.05 {
		t.Fatalf("PAs rate %v on per-branch patterns", rate)
	}
}

func TestHybridAtLeastAsGoodAsComponentsOnMix(t *testing.T) {
	mk := func() (branch.Predictor, branch.Predictor, branch.Predictor) {
		g := branch.NewGshare(4096, 10)
		b := branch.NewBimodal(4096)
		h := branch.NewHybrid(branch.NewGshare(4096, 10), branch.NewBimodal(4096), 4096)
		return g, b, h
	}
	// Mixed stream: half patterned (favors gshare), half biased (either).
	mixed := func(yield func(uint64, bool)) {
		pat := patternStream(4, 40000)
		bia := biasedStream(7, 4, 40000, 0.98)
		pat(yield)
		bia(yield)
	}
	g, b, h := mk()
	gr := measure(g, mixed)
	br := measure(b, mixed)
	hr := measure(h, mixed)
	best := gr
	if br < best {
		best = br
	}
	if hr > best+0.02 {
		t.Fatalf("hybrid %v should track best component %v", hr, best)
	}
}

func TestLTAGELearnsLongHistory(t *testing.T) {
	// A loop with trip 40 defeats a 10-bit-history gshare but not TAGE's
	// geometric histories (or its loop predictor).
	lt := measure(branch.NewLTAGEDefault(), loopStream(40, 2000))
	gs := measure(branch.NewGshare(4096, 10), loopStream(40, 2000))
	if lt > 0.01 {
		t.Fatalf("L-TAGE rate %v on constant-trip loop", lt)
	}
	if lt >= gs {
		t.Fatalf("L-TAGE (%v) should beat short-history gshare (%v) on long loops", lt, gs)
	}
}

func TestLTAGEBeatsBimodalOnPatterns(t *testing.T) {
	lt := measure(branch.NewLTAGEDefault(), patternStream(32, 80000))
	bm := measure(branch.NewBimodal(16384), patternStream(32, 80000))
	if lt >= bm {
		t.Fatalf("L-TAGE (%v) should beat bimodal (%v)", lt, bm)
	}
	if lt > 0.05 {
		t.Fatalf("L-TAGE rate %v on short patterns", lt)
	}
}

func TestLTAGEHandlesBiasedBranches(t *testing.T) {
	rate := measure(branch.NewLTAGEDefault(), biasedStream(5, 64, 80000, 0.99))
	if rate > 0.05 {
		t.Fatalf("L-TAGE rate %v on 99%%-biased branches", rate)
	}
}

func TestLTAGEDeterministic(t *testing.T) {
	mk := func() float64 {
		return measure(branch.NewLTAGEDefault(), patternStream(16, 30000))
	}
	if mk() != mk() {
		t.Fatal("L-TAGE is not deterministic")
	}
}

func TestPredictorsDeterministicAfterReset(t *testing.T) {
	preds := []branch.Predictor{
		branch.NewBimodal(256),
		branch.NewGshare(1024, 8),
		branch.NewGAs(4, 8),
		branch.NewPAs(256, 1024, 8),
		branch.NewHybrid(branch.NewGshare(512, 6), branch.NewBimodal(512), 512),
		branch.NewLTAGE(branch.LTAGEConfig{NumTables: 4, LogTagged: 7, LogBase: 10}),
	}
	for _, p := range preds {
		first := measure(p, patternStream(8, 20000))
		p.Reset()
		second := measure(p, patternStream(8, 20000))
		if first != second {
			t.Errorf("%s: rate %v before reset, %v after", p.Name(), first, second)
		}
	}
}

func TestSizeBitsPositive(t *testing.T) {
	preds := []branch.Predictor{
		branch.NewBimodal(256),
		branch.NewGshare(1024, 8),
		branch.NewGAs(4, 8),
		branch.NewPAs(256, 1024, 8),
		branch.NewHybrid(branch.NewGshare(512, 6), branch.NewBimodal(512), 512),
		branch.NewLTAGEDefault(),
	}
	for _, p := range preds {
		if p.SizeBits() <= 0 {
			t.Errorf("%s: SizeBits = %d", p.Name(), p.SizeBits())
		}
		if p.Name() == "" {
			t.Error("predictor with empty name")
		}
	}
}

func TestGAsBudgetSizes(t *testing.T) {
	for _, kb := range []int{2, 4, 8, 16} {
		g := branch.GAsBudget(kb * 1024)
		bits := g.SizeBits()
		budget := kb*1024*8 + 64 // table budget plus the history register
		if bits > budget || bits < budget/2 {
			t.Errorf("GAsBudget(%dKB) uses %d bits, budget %d", kb, bits, budget)
		}
		if !strings.Contains(g.Name(), "KB") {
			t.Errorf("budget GAs name %q", g.Name())
		}
	}
}

func TestStaticPredictors(t *testing.T) {
	at, nt := branch.AlwaysTaken{}, branch.NeverTaken{}
	if !at.Predict(1) || nt.Predict(1) {
		t.Fatal("static predictions wrong")
	}
	at.Update(1, false)
	nt.Update(1, true)
	if !at.Predict(1) || nt.Predict(1) {
		t.Fatal("static predictors should ignore updates")
	}
}

func TestPerfectIsOracle(t *testing.T) {
	var p branch.Predictor = branch.Perfect{}
	if _, ok := p.(branch.Oracle); !ok {
		t.Fatal("Perfect must implement Oracle")
	}
	if _, ok := branch.Predictor(branch.NewBimodal(16)).(branch.Oracle); ok {
		t.Fatal("Bimodal must not be an Oracle")
	}
}

func TestConfigSpace(t *testing.T) {
	fs := branch.ConfigSpace(branch.PaperConfigCount)
	if len(fs) != branch.PaperConfigCount {
		t.Fatalf("ConfigSpace returned %d configurations, want %d", len(fs), branch.PaperConfigCount)
	}
	names := map[string]bool{}
	for _, f := range fs {
		if names[f.Name] {
			t.Errorf("duplicate configuration %q", f.Name)
		}
		names[f.Name] = true
		p := f.New()
		if p == nil {
			t.Fatalf("factory %q returned nil", f.Name)
		}
		// Exercise briefly.
		p.Predict(0x400000)
		p.Update(0x400000, true)
	}
}

func TestConfigSpaceSpansAccuracy(t *testing.T) {
	// The sweep must include both terrible and excellent predictors.
	fs := branch.ConfigSpace(branch.PaperConfigCount)
	var rates []float64
	stream := patternStream(64, 20000)
	for _, f := range fs[:len(fs):len(fs)] {
		rates = append(rates, measure(f.New(), stream))
	}
	lo, hi := rates[0], rates[0]
	for _, r := range rates {
		if r < lo {
			lo = r
		}
		if r > hi {
			hi = r
		}
	}
	if hi-lo < 0.2 {
		t.Fatalf("config space accuracy range [%v,%v] too narrow", lo, hi)
	}
}

func TestPaperPredictors(t *testing.T) {
	ps := branch.PaperPredictors()
	if len(ps) != 5 {
		t.Fatalf("PaperPredictors returned %d entries", len(ps))
	}
	if ps[4].Name != "l-tage" {
		t.Fatalf("last paper predictor is %q", ps[4].Name)
	}
}

func TestBTBBasic(t *testing.T) {
	b := branch.NewBTB(64, 4)
	if b.Predict(0x1000, 0x2000) {
		t.Fatal("cold BTB lookup predicted correctly")
	}
	if !b.Predict(0x1000, 0x2000) {
		t.Fatal("trained BTB lookup failed")
	}
	// Target change: wrong-target misprediction, then retrained.
	if b.Predict(0x1000, 0x3000) {
		t.Fatal("stale target counted as correct")
	}
	if !b.Predict(0x1000, 0x3000) {
		t.Fatal("BTB did not retrain target")
	}
	if b.Mispredictions() != 2 || b.Hits() != 2 {
		t.Fatalf("mispredicts %d hits %d", b.Mispredictions(), b.Hits())
	}
}

func TestBTBCapacity(t *testing.T) {
	b := branch.NewBTB(16, 2) // 32 entries
	// Train 32 monomorphic call sites at irregular addresses (regular
	// power-of-two strides alias pathologically in a real BTB too), then
	// they should essentially all hit.
	site := func(i uint64) uint64 { return 0x1000 + i*52 }
	for round := 0; round < 3; round++ {
		for i := uint64(0); i < 32; i++ {
			b.Predict(site(i), 0x9000+i)
		}
	}
	start := b.Hits()
	for i := uint64(0); i < 32; i++ {
		if !b.Predict(site(i), 0x9000+i) {
			// Allow a few conflicts from hashing, but count them.
			continue
		}
	}
	if b.Hits()-start < 24 {
		t.Fatalf("only %d/32 trained sites hit", b.Hits()-start)
	}
}

func TestBTBReset(t *testing.T) {
	b := branch.NewBTB(16, 2)
	b.Predict(0x1000, 0x2000)
	b.Reset()
	if b.Hits() != 0 || b.Mispredictions() != 0 {
		t.Fatal("Reset did not clear counters")
	}
	if b.Predict(0x1000, 0x2000) {
		t.Fatal("Reset did not clear entries")
	}
}

func TestLTAGESizeScales(t *testing.T) {
	small := branch.NewLTAGE(branch.LTAGEConfig{NumTables: 4, LogTagged: 7, LogBase: 10})
	big := branch.NewLTAGEDefault()
	if small.SizeBits() >= big.SizeBits() {
		t.Fatalf("small L-TAGE %d bits >= default %d bits", small.SizeBits(), big.SizeBits())
	}
}

func BenchmarkBimodal(b *testing.B) {
	p := branch.NewBimodal(4096)
	r := xrand.New(1)
	for i := 0; i < b.N; i++ {
		pc := 0x400000 + uint64(i%256)*32
		taken := r.Bool(0.7)
		p.Predict(pc)
		p.Update(pc, taken)
	}
}

func BenchmarkGshare(b *testing.B) {
	p := branch.NewGshare(4096, 12)
	r := xrand.New(1)
	for i := 0; i < b.N; i++ {
		pc := 0x400000 + uint64(i%256)*32
		taken := r.Bool(0.7)
		p.Predict(pc)
		p.Update(pc, taken)
	}
}

// TestPredictorsZeroAlloc: after warm-up, Predict and Update allocate
// nothing, for every predictor the sweeps build — including L-TAGE's
// allocate-on-mispredict path, which a 70%-taken random stream
// exercises constantly. The multi-lane machine walk keeps dozens of
// these in one loop, so one allocating predictor would show up there.
func TestPredictorsZeroAlloc(t *testing.T) {
	factories := append(branch.ConfigSpace(0), branch.PaperPredictors()...)
	for _, f := range factories {
		p := f.New()
		r := xrand.New(1)
		i := 0
		step := func() {
			pc := 0x400000 + uint64(i%256)*32
			i++
			p.Predict(pc)
			p.Update(pc, r.Bool(0.7))
		}
		for k := 0; k < 4096; k++ {
			step()
		}
		if allocs := testing.AllocsPerRun(2000, step); allocs != 0 {
			t.Errorf("%s: %.2f allocs per Predict+Update after warm-up, want 0", f.Name, allocs)
		}
	}
}

func BenchmarkLTAGE(b *testing.B) {
	p := branch.NewLTAGEDefault()
	r := xrand.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pc := 0x400000 + uint64(i%256)*32
		taken := r.Bool(0.7)
		p.Predict(pc)
		p.Update(pc, taken)
	}
}

// BenchmarkLTAGEBank is BenchmarkLTAGE for an 8-lane bank, the width of
// one worker's chunk in the predict workload's predictor evaluation: one
// op is one branch row across every lane, each lane at its own PC.
func BenchmarkLTAGEBank(b *testing.B) {
	const lanes = 8
	bank := newBank[*branch.LTAGEBank](b, func() branch.Predictor { return branch.NewLTAGEDefault() }, lanes)
	r := xrand.New(1)
	pcs := make([]uint64, lanes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range pcs {
			pcs[k] = 0x400000 + uint64((i+37*k)%256)*32
		}
		bank.PredictUpdateRow(pcs, r.Bool(0.7))
	}
}
