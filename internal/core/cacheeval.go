package core

import (
	"interferometry/internal/cachetool"
	"interferometry/internal/toolchain"
	"interferometry/internal/uarch/cache"
)

// CacheEval is the cache-side analog of PredictorEval: a candidate cache
// geometry's simulated miss rate over the campaign layouts and the CPI
// the regression model predicts the machine would achieve with it. This
// realizes the paper's stated future work — applying interferometry to
// the instruction and data caches (§1.4, §8).
type CacheEval = PredictorEval

// EvaluateICaches simulates each candidate instruction-cache geometry
// over every usable layout of the dataset and maps the mean MPKI
// through the model, which should be a FitCPI(EvL1IMisses) model from
// the same dataset.
func (d *Dataset) EvaluateICaches(model *Model, candidates []cache.Config) ([]CacheEval, error) {
	return d.evaluateCaches(model, candidates, false)
}

// EvaluateDCaches is EvaluateICaches for the data side: candidates are
// simulated against the data-access stream, with heap objects placed the
// same way the campaign placed them for each layout.
func (d *Dataset) EvaluateDCaches(model *Model, candidates []cache.Config) ([]CacheEval, error) {
	return d.evaluateCaches(model, candidates, true)
}

// evaluateCaches runs the shared evaluation sweep over cache geometries.
// No warmup: the measured counters that trained the model include each
// run's cold misses, so the candidate simulation must replay under the
// same protocol for its MPKI to be comparable.
func (d *Dataset) evaluateCaches(model *Model, candidates []cache.Config, data bool) ([]CacheEval, error) {
	names := make([]string, len(candidates))
	for c := range candidates {
		names[c] = candidates[c].Name
	}
	return d.evaluate(model, names, "cache evaluation", "cache-eval", tagCacheEval, func(i int, exe *toolchain.Executable) ([]float64, error) {
		if !data {
			return mpkis(cachetool.RunICache(d.Trace, exe, candidates, cachetool.Config{}))
		}
		cfg := cachetool.Config{Data: true, HeapMode: d.Config.HeapMode, HeapSeed: d.Obs[i].HeapSeed}
		return mpkis(cachetool.RunDCache(d.Trace, exe, candidates, cfg))
	})
}
