package core

import (
	"fmt"
	"math"

	"interferometry/internal/pintool"
	"interferometry/internal/stats"
	"interferometry/internal/toolchain"
	"interferometry/internal/uarch/branch"
)

// PredictorEval is the §7 deliverable for one candidate predictor: its
// simulated MPKI averaged over the campaign's code reorderings (Figure 7)
// and the CPI the regression model predicts the real machine would
// achieve with it, with a 95% prediction interval (Figure 8).
type PredictorEval struct {
	Name string
	// MPKI is the mean mispredictions per kilo-instruction over all
	// evaluated layouts; MPKIPerLayout keeps the per-layout values
	// (NaN for a layout whose simulation failed within the failure
	// budget).
	MPKI          float64
	MPKIPerLayout []float64
	// PredictedCPI maps MPKI through the benchmark's regression model.
	PredictedCPI stats.Interval
}

// EvaluatePredictors simulates each candidate predictor over every usable
// layout of the dataset with the Pin-style tool (one deterministic run
// per layout, §7.2) and maps the resulting mean MPKI through the model.
// The model should come from the same dataset. Layouts marked
// StatusFailed in the campaign are skipped; the sweep runs under the
// supervisor with the config's context and failure budget.
func (d *Dataset) EvaluatePredictors(model *Model, factories []branch.Factory) ([]PredictorEval, error) {
	names := make([]string, len(factories))
	for p := range factories {
		names[p] = factories[p].Name
	}
	return d.evaluate(model, names, "predictor evaluation", "predictor-eval", tagEvaluate, func(_ int, exe *toolchain.Executable) ([]float64, error) {
		return mpkis(pintool.Run(d.Trace, exe, factories, pintool.Config{Warmup: true}))
	})
}

// evaluate is the sweep behind EvaluatePredictors and the cache
// evaluations: every usable layout is linked once and sim simulates the
// named candidates on layout i, one MPKI each. Layouts that fail within
// the campaign's failure budget read NaN and stay out of the means, and
// each candidate's mean maps through the model. what names the sweep in
// errors, span and tag its trace span.
func (d *Dataset) evaluate(model *Model, names []string, what, span string, tag uint64, sim func(i int, exe *toolchain.Executable) ([]float64, error)) ([]PredictorEval, error) {
	if model == nil {
		return nil, fmt.Errorf("core: %s needs a model", what)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("core: %s needs candidates", what)
	}
	idx := d.usableIdx()
	if len(idx) == 0 {
		return nil, fmt.Errorf("core: %s needs at least one usable layout", what)
	}
	perLayout := make([][]float64, len(names)) // [candidate][usable layout]
	for c := range perLayout {
		perLayout[c] = make([]float64, len(idx))
	}

	// One compile shared by every layout; each column of perLayout is
	// written at a distinct index, so no locking is needed.
	builder := toolchain.NewBuilder(d.Config.Program, d.Config.Compile, d.Config.Link)
	builder.Observe(builderMetrics(d.Config.Obs))
	sp := sweepSpan(&d.Config, span, tag)
	defer sp.End()
	workers := normalizeWorkers(d.Config.Workers, len(idx))
	failed, err := superviseForT(d.Config.context(), workers, len(idx), d.Config.FailureBudget, newSupTel(d.Config.Obs), func(_, k int) error {
		i := idx[k]
		exe, err := builder.Build(d.Obs[i].LayoutSeed)
		var mpki []float64
		if err == nil {
			mpki, err = sim(i, exe)
		}
		if err != nil {
			return fmt.Errorf("core: %s layout %d: %w", what, i, err)
		}
		for c, m := range mpki {
			perLayout[c][k] = m
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, f := range failed {
		for c := range perLayout {
			perLayout[c][f.Index] = math.NaN()
		}
	}

	out := make([]PredictorEval, len(names))
	for c, name := range names {
		mean := meanValid(perLayout[c])
		out[c] = PredictorEval{
			Name:          name,
			MPKI:          mean,
			MPKIPerLayout: perLayout[c],
			PredictedCPI:  model.PredictCPI(mean),
		}
	}
	return out, nil
}

// mpkis reads a simulator's per-candidate results as MPKIs.
func mpkis[R interface{ MPKI() float64 }](rs []R, err error) ([]float64, error) {
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(rs))
	for c := range rs {
		out[c] = rs[c].MPKI()
	}
	return out, nil
}

// meanValid averages the non-NaN entries.
func meanValid(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if !math.IsNaN(x) {
			sum += x
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// RealPredictorSummary reports the measured behaviour of the machine's
// own predictor over the campaign: mean MPKI and mean CPI with the
// tighter 95% confidence interval, "since the data are observations and
// not predictions" (§7.2).
type RealPredictorSummary struct {
	MPKI float64
	CPI  stats.Interval
}

// RealPredictor summarizes the dataset's own measurements.
func (d *Dataset) RealPredictor(model *Model) RealPredictorSummary {
	mean := stats.Mean(d.PKIs(model.Event))
	return RealPredictorSummary{
		MPKI: mean,
		CPI:  model.ConfidenceAt(mean),
	}
}
