package core_test

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"

	"interferometry/internal/core"
	"interferometry/internal/interp"
	"interferometry/internal/machine"
	"interferometry/internal/progen"
	"interferometry/internal/toolchain"
	"interferometry/internal/uarch/branch"
)

// linearityFixture is a small sweep: 473.astar at 80K instructions
// through 24 graded predictor configurations.
func linearityFixture(t *testing.T) core.LinearityConfig {
	t.Helper()
	spec, ok := progen.ByName("473.astar")
	if !ok {
		t.Fatal("missing spec")
	}
	return core.LinearityConfig{
		Program:   progen.MustGenerate(spec),
		InputSeed: 1,
		Budget:    80000,
		Configs:   branch.ConfigSpace(24),
	}
}

// samePoints compares two sweeps bit for bit.
func samePoints(t *testing.T, what string, got, want []core.LinearityPoint) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d points, want %d", what, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Config != w.Config || math.Float64bits(g.MPKI) != math.Float64bits(w.MPKI) || math.Float64bits(g.CPI) != math.Float64bits(w.CPI) {
			t.Fatalf("%s: point %d is %+v, want %+v", what, i, g, w)
		}
	}
}

// TestLinearityStudyWorkerInvariant: the sweep's points, fit and
// reference runs do not depend on how many workers split it into
// chunks, and every point equals an independent one-predictor scalar
// run of its configuration — the sweep's multi-predictor walks change
// nothing a per-configuration replay would measure.
func TestLinearityStudyWorkerInvariant(t *testing.T) {
	cfg := linearityFixture(t)

	trace, err := interp.Run(cfg.Program, cfg.InputSeed, interp.StopRule{Budget: cfg.Budget})
	if err != nil {
		t.Fatal(err)
	}
	exe, err := toolchain.NewBuilder(cfg.Program, toolchain.CompileConfig{}, toolchain.LinkConfig{}).Build(1)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.New(machine.XeonE5440())
	scalar := func(p branch.Predictor) machine.Counters {
		c, _, err := m.RunDeterministic(machine.RunSpec{Exe: exe, Trace: trace, Predictor: p, DisableNoise: true})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	var want []core.LinearityPoint
	for _, f := range cfg.Configs {
		c := scalar(f.New())
		want = append(want, core.LinearityPoint{Config: f.Name, MPKI: c.MPKI(), CPI: c.CPI()})
	}
	perfect, ltage := scalar(branch.Perfect{}), scalar(branch.NewLTAGEDefault())

	for _, workers := range []int{1, 2, 4} {
		cfg.Workers = workers
		res, err := core.RunLinearityStudy(cfg)
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		samePoints(t, "sweep", res.Points, want)
		if len(res.Skipped) != 0 {
			t.Errorf("%d workers: skipped %v", workers, res.Skipped)
		}
		if res.PerfectCPI != perfect.CPI() || res.LTAGEMPKI != ltage.MPKI() || res.LTAGECPI != ltage.CPI() {
			t.Errorf("%d workers: reference runs (%v, %v, %v), scalar (%v, %v, %v)", workers,
				res.PerfectCPI, res.LTAGEMPKI, res.LTAGECPI, perfect.CPI(), ltage.MPKI(), ltage.CPI())
		}
	}
}

// midWalkPanic panics on its hundredth prediction, taking down the
// whole multi-predictor walk it rides in. onPanic, when set, runs just
// before the panic.
type midWalkPanic struct {
	branch.Predictor
	calls   int
	onPanic func()
}

func (p *midWalkPanic) Predict(pc uint64) bool {
	if p.calls++; p.calls == 100 {
		if p.onPanic != nil {
			p.onPanic()
		}
		panic("predictor exploded mid-walk")
	}
	return p.Predictor.Predict(pc)
}

func (p *midWalkPanic) Reset() {
	p.calls = 0
	p.Predictor.Reset()
}

// TestLinearityStudyChunkFailures: one chunk holds a factory that
// panics, one that builds no predictor, and a predictor that panics in
// the middle of the shared walk. Exactly those three configurations are
// skipped; every other point equals the clean sweep's bit for bit, on
// any worker count. One failure more than FailureBudget allows still
// aborts the study.
func TestLinearityStudyChunkFailures(t *testing.T) {
	cfg := linearityFixture(t)
	clean, err := core.RunLinearityStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}

	bad := []branch.Factory{
		{Name: "panics-in-new", New: func() branch.Predictor { panic("factory exploded") }},
		{Name: "builds-nil", New: func() branch.Predictor { return nil }},
		{Name: "panics-mid-walk", New: func() branch.Predictor { return &midWalkPanic{Predictor: branch.NewGshare(1024, 8)} }},
	}
	// They land at indices 1, 5 and 9 of the 27. The sweep deals
	// configurations to chunks round-robin, and the three are congruent
	// mod 4, so they share one chunk whether 1, 2 or 4 workers split it.
	var configs []branch.Factory
	for i, f := range cfg.Configs {
		switch i {
		case 1, 4, 7:
			configs = append(configs, bad[0])
			bad = bad[1:]
		}
		configs = append(configs, f)
	}
	cfg.Configs = configs
	cfg.FailureBudget = 3

	for _, workers := range []int{1, 2, 4} {
		cfg.Workers = workers
		res, err := core.RunLinearityStudy(cfg)
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		if want := []string{"panics-in-new", "builds-nil", "panics-mid-walk"}; !slices.Equal(res.Skipped, want) {
			t.Errorf("%d workers: skipped %v, want %v", workers, res.Skipped, want)
		}
		samePoints(t, "surviving points", res.Points, clean.Points)
		if res.Fit.Slope != clean.Fit.Slope || res.Fit.Intercept != clean.Fit.Intercept || res.LTAGECPI != clean.LTAGECPI {
			t.Errorf("%d workers: fit or reference runs moved", workers)
		}
	}

	cfg.FailureBudget = 2
	if _, err := core.RunLinearityStudy(cfg); !errors.Is(err, core.ErrSweepAborted) {
		t.Fatalf("three failures over a budget of two: err %v, want ErrSweepAborted", err)
	}
}

// TestLinearityFallbackStopsWhenSweepEnds: when a chunk's shared walk
// fails, its one-by-one fallback stops as soon as the sweep is over —
// its failure budget exceeded, or its context canceled mid-walk — and
// leaves the rest of the chunk unmeasured instead of replaying it.
func TestLinearityFallbackStopsWhenSweepEnds(t *testing.T) {
	for _, tc := range []struct {
		name   string
		budget int
		// bad fails the shared walk; cancel cancels the sweep's context.
		bad  func(cancel context.CancelFunc) branch.Predictor
		want error
	}{
		{"budget", 0, func(context.CancelFunc) branch.Predictor {
			return &midWalkPanic{Predictor: branch.NewGshare(1024, 8)}
		}, core.ErrSweepAborted},
		{"cancel", 10, func(cancel context.CancelFunc) branch.Predictor {
			return &midWalkPanic{Predictor: branch.NewGshare(1024, 8), onPanic: cancel}
		}, context.Canceled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := linearityFixture(t)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			built := 0
			cfg.Configs = append([]branch.Factory{
				{Name: "fails-walk", New: func() branch.Predictor { return tc.bad(cancel) }},
				{Name: "counted", New: func() branch.Predictor { built++; return branch.NewGshare(1024, 8) }},
			}, cfg.Configs...)
			cfg.Workers, cfg.FailureBudget, cfg.Context = 1, tc.budget, ctx
			if _, err := core.RunLinearityStudy(cfg); !errors.Is(err, tc.want) {
				t.Fatalf("err %v, want %v", err, tc.want)
			}
			if built != 1 {
				t.Errorf("a configuration after the abort was built %d times, want once (the shared walk only)", built)
			}
		})
	}
}
