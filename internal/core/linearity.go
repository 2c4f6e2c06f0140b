package core

import (
	"context"
	"errors"
	"fmt"

	"interferometry/internal/interp"
	"interferometry/internal/isa"
	"interferometry/internal/machine"
	"interferometry/internal/obs"
	"interferometry/internal/stats"
	"interferometry/internal/toolchain"
	"interferometry/internal/uarch/branch"
)

// LinearityConfig drives the §3 simulation study: a fixed layout, a sweep
// of predictor configurations through the timing simulator, and a
// regression test of how linearly CPI follows MPKI.
type LinearityConfig struct {
	Program   *isa.Program
	InputSeed uint64
	Budget    uint64
	// Configs is the predictor sweep; zero-length means
	// branch.ConfigSpace(branch.PaperConfigCount) — the paper's 145.
	Configs []branch.Factory
	// Machine overrides the simulator configuration.
	Machine machine.Config
	Workers int

	// Context cancels the sweep; nil means context.Background(). A
	// worker walks the trace once for all its configurations, so a
	// cancel takes effect when the walks in flight finish, not within
	// one configuration's run.
	Context context.Context
	// FailureBudget tolerates up to this many failed predictor
	// configurations: the fit proceeds over the surviving points and
	// Skipped records what was dropped. Zero aborts on the first failure.
	FailureBudget int

	// Obs optionally observes the sweep (metrics + a span). Nil disables.
	Obs *obs.Observer
}

// LinearityPoint is one simulated (MPKI, CPI) pair.
type LinearityPoint struct {
	Config string
	MPKI   float64
	CPI    float64
}

// LinearityResult quantifies regression extrapolation error for one
// benchmark, Figure 4's two bars: estimating perfect-prediction CPI and
// L-TAGE CPI from the imperfect-predictor sweep.
type LinearityResult struct {
	Benchmark string
	Points    []LinearityPoint
	// Skipped names the predictor configurations whose simulation failed
	// within the failure budget; Points holds only the survivors.
	Skipped []string
	Fit     *stats.LinearFit

	// PerfectCPI is the simulated truth with the oracle predictor;
	// EstPerfectCPI is the regression estimate at 0 MPKI.
	PerfectCPI    float64
	EstPerfectCPI float64
	PerfectErrPct float64

	// LTAGE metrics parallel the perfect ones at L-TAGE's simulated MPKI.
	LTAGEMPKI   float64
	LTAGECPI    float64
	EstLTAGECPI float64
	LTAGEErrPct float64
}

// RunLinearityStudy sweeps predictor configurations through the timing
// model with noise disabled (a simulator has no noise) and measures how
// well linear regression extrapolates to perfect prediction and to
// L-TAGE, as in §3.2.
func RunLinearityStudy(cfg LinearityConfig) (*LinearityResult, error) {
	if cfg.Program == nil {
		return nil, errors.New("core: linearity study needs a program")
	}
	if cfg.Budget == 0 {
		return nil, errors.New("core: linearity study needs a budget")
	}
	configs := cfg.Configs
	if len(configs) == 0 {
		configs = branch.ConfigSpace(branch.PaperConfigCount)
	}
	mcfg := cfg.Machine
	if mcfg.Name == "" {
		mcfg = machine.XeonE5440()
	}

	trace, err := interp.Run(cfg.Program, cfg.InputSeed, interp.StopRule{Budget: cfg.Budget})
	if err != nil {
		return nil, err
	}
	// One fixed layout: the sweep varies the predictor, not the code.
	exe, err := toolchain.NewBuilder(cfg.Program, toolchain.CompileConfig{}, toolchain.LinkConfig{}).Build(1)
	if err != nil {
		return nil, err
	}

	spec := machine.RunSpec{Exe: exe, Trace: trace, DisableNoise: true}

	res := &LinearityResult{
		Benchmark: cfg.Program.Name,
		Points:    make([]LinearityPoint, len(configs)),
	}

	// Each worker takes one chunk of configurations and walks the trace
	// once for it, one predictor lane per configuration, on its own
	// machine; points are written at distinct indices. The chunks are
	// contiguous runs of order, which deals the configurations out
	// round-robin: the config space grows from static and tiny bimodal
	// predictors to large GAs, perceptron and L-TAGE tables, so
	// contiguous runs of it would leave one worker with all the
	// expensive lanes. The sweep runs supervised: a panicking or failing
	// configuration is dropped (within the failure budget) instead of
	// discarding the whole study.
	workers := normalizeWorkers(cfg.Workers, len(configs))
	order := make([]int, 0, len(configs))
	for w := 0; w < workers; w++ {
		for i := w; i < len(configs); i += workers {
			order = append(order, i)
		}
	}
	chunk := (len(configs) + workers - 1) / workers
	machines := make([]*machine.Machine, workers)
	for w := range machines {
		machines[w] = machine.New(mcfg)
	}
	span := rootSpan(cfg.Obs, "linearity", obs.SpanID(cfg.InputSeed, tagLinearity, hashName(cfg.Program.Name)))
	defer span.End()
	failed, err := superviseChunksT(cfg.Context, workers, len(configs), chunk, cfg.FailureBudget, newSupTel(cfg.Obs), func(w, lo, hi int, fail func(int, error), stopped func() bool) {
		sweepChunk(machines[w], spec, configs, order[lo:hi], res.Points, func(k int, err error) { fail(lo+k, err) }, stopped)
	})
	if err != nil {
		return nil, err
	}
	if len(failed) > 0 {
		drop := make(map[int]bool, len(failed))
		for _, f := range failed {
			drop[order[f.Index]] = true
		}
		kept := res.Points[:0]
		for i, p := range res.Points {
			if drop[i] {
				res.Skipped = append(res.Skipped, configs[i].Name)
			} else {
				kept = append(kept, p)
			}
		}
		res.Points = kept
	}

	// Reference runs: the perfect oracle and L-TAGE share one two-lane
	// walk on a sweep machine, now idle.
	refs, _, err := machines[0].RunPredictors(spec, []branch.Predictor{branch.Perfect{}, branch.NewLTAGEDefault()})
	if err != nil {
		return nil, err
	}
	perfect, ltage := refs[0], refs[1]

	mpkis := make([]float64, len(res.Points))
	cpis := make([]float64, len(res.Points))
	for i, p := range res.Points {
		mpkis[i] = p.MPKI
		cpis[i] = p.CPI
	}
	fit, err := stats.FitLinear(mpkis, cpis)
	if err != nil {
		return nil, fmt.Errorf("core: linearity fit for %s: %w", cfg.Program.Name, err)
	}
	res.Fit = fit

	res.PerfectCPI = perfect.CPI()
	res.EstPerfectCPI = fit.Predict(0)
	res.PerfectErrPct = pctErr(res.EstPerfectCPI, res.PerfectCPI)

	res.LTAGEMPKI = ltage.MPKI()
	res.LTAGECPI = ltage.CPI()
	res.EstLTAGECPI = fit.Predict(res.LTAGEMPKI)
	res.LTAGEErrPct = pctErr(res.EstLTAGECPI, res.LTAGECPI)
	return res, nil
}

// sweepChunk measures the configurations configs[idx[k]] in one
// multi-predictor walk on m, reporting a failed configuration as
// fail(k). Each configuration's predictor is built under its own guard,
// so a panicking factory fails only its own configuration. If the shared
// walk fails — one erroring or panicking predictor takes the whole walk
// down — every configuration of the chunk is re-run alone on a fresh
// predictor, so fail names exactly the configurations that fail on
// their own. A lane is bit-identical to its one-lane run, so the
// fallback changes no surviving point. The fallback checks stopped
// before each re-run: once the sweep is canceled or over its failure
// budget, the rest of the chunk is left unmeasured.
func sweepChunk(m *machine.Machine, spec machine.RunSpec, configs []branch.Factory, idx []int, points []LinearityPoint, fail func(k int, err error), stopped func() bool) {
	preds := make([]branch.Predictor, 0, len(idx))
	lanes := make([]int, 0, len(idx)) // positions in idx
	for k, i := range idx {
		p, err := newSweepPredictor(configs[i])
		if err != nil {
			fail(k, err)
			continue
		}
		preds = append(preds, p)
		lanes = append(lanes, k)
	}
	if len(preds) == 0 {
		return
	}
	var cs []machine.Counters
	err := Guard(func() (err error) {
		cs, _, err = m.RunPredictors(spec, preds)
		return err
	})
	if err == nil {
		for l, k := range lanes {
			i := idx[k]
			points[i] = LinearityPoint{Config: configs[i].Name, MPKI: cs[l].MPKI(), CPI: cs[l].CPI()}
		}
		return
	}
	for _, k := range lanes {
		if stopped() {
			return
		}
		i := idx[k]
		p, err := newSweepPredictor(configs[i])
		if err == nil {
			one := spec
			one.Predictor = p
			err = Guard(func() error {
				c, _, err := m.RunDeterministic(one)
				if err == nil {
					points[i] = LinearityPoint{Config: configs[i].Name, MPKI: c.MPKI(), CPI: c.CPI()}
				}
				return err
			})
		}
		if err != nil {
			fail(k, fmt.Errorf("core: linearity config %s: %w", configs[i].Name, err))
		}
	}
}

// newSweepPredictor builds one configuration's predictor, converting a
// factory panic or a nil predictor into that configuration's error.
func newSweepPredictor(f branch.Factory) (branch.Predictor, error) {
	var p branch.Predictor
	err := Guard(func() error {
		if p = f.New(); p == nil {
			return errors.New("factory built no predictor")
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("core: linearity config %s: %w", f.Name, err)
	}
	return p, nil
}

func pctErr(est, truth float64) float64 {
	if truth == 0 {
		return 0
	}
	e := (est - truth) / truth * 100
	if e < 0 {
		return -e
	}
	return e
}
