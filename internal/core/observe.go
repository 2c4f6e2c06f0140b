package core

import (
	"fmt"
	"time"

	"interferometry/internal/obs"
	"interferometry/internal/pmc"
	"interferometry/internal/toolchain"
)

// Span-path tags: the deterministic span tree is keyed by BaseSeed and
// these constants, so identical campaign seeds yield identical span IDs
// whatever the timing or worker schedule.
const (
	tagCampaign  uint64 = 0x63616d70 // "camp"
	tagLayout    uint64 = 0x6c61796f // "layo"
	tagCompile   uint64 = 0x636f6d70 // "comp"
	tagRun       uint64 = 0x72756e   // "run"
	tagFit       uint64 = 0x666974   // "fit"
	tagOutlier   uint64 = 0x6f75746c // "outl"
	tagModelFit  uint64 = 0x6d6f6466 // "modf"
	tagEvaluate  uint64 = 0x6576616c // "eval"
	tagCacheEval uint64 = 0x63616368 // "cach"
	tagLinearity uint64 = 0x6c696e65 // "line"
)

// hashName folds a benchmark name into the span-ID chain (FNV-1a 64).
func hashName(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

// campSpanID derives the campaign's root span ID. The chain mixes the
// base seed, benchmark and heap mode so campaigns sharing a base seed
// (Figure 2 runs two benchmarks with one seed) never collide, while
// identical configurations reproduce identical IDs run to run.
func campSpanID(cfg *CampaignConfig) uint64 {
	return obs.SpanID(cfg.BaseSeed, tagCampaign, hashName(cfg.Program.Name), uint64(cfg.HeapMode))
}

// campaignObs holds the campaign's resolved instruments. All instrument
// lookups happen once here, at campaign start; the per-layout hot path
// touches only held pointers. A nil *campaignObs (unobserved campaign)
// makes every method a no-op without a single time.Now call.
type campaignObs struct {
	o      *obs.Observer
	campID uint64

	layoutsDone      *obs.Counter
	layoutsFailed    *obs.Counter
	layoutsRetried   *obs.Counter
	attempts         *obs.Counter
	restored         *obs.Counter
	outliersFlagged  *obs.Counter
	outliersRepaired *obs.Counter
	screenPanics     *obs.Counter

	compileSec *obs.Histogram
	runSec     *obs.Histogram
	fitSec     *obs.Histogram
	layoutSec  *obs.Histogram

	// Engine instruments: layouts whose deterministic replay a batched
	// walk produced, and walks declined, by reason. Scalar replays are
	// counted by the harnesses (harnessMetrics).
	batchLanes *obs.Counter
	declines   [numDeclines]*obs.Counter
}

// decline is why a requested trace walk did not measure a group of
// layouts. Every decline costs only the shortcut: the layouts replay
// one by one on the scalar engine.
type decline uint8

const (
	// declineFidelity: FidelityPaperNaive literally executes every run.
	declineFidelity decline = iota
	// declineLanes: more layouts than the engine's 64-lane mask.
	declineLanes
	// declineGeometry: a machine config the batch banks cannot hold.
	declineGeometry
	// declineWalkError and declineWalkPanic: the batched walk failed or
	// panicked.
	declineWalkError
	declineWalkPanic
	numDeclines
)

var declineNames = [numDeclines]string{
	declineFidelity:  "fidelity",
	declineLanes:     "lanes",
	declineGeometry:  "geometry",
	declineWalkError: "walk_error",
	declineWalkPanic: "walk_panic",
}

// declined counts one decline (nil-safe).
func (co *campaignObs) declined(d decline) {
	if co != nil {
		co.declines[d].Inc()
	}
}

// walked counts the lanes one successful walk measured (nil-safe).
func (co *campaignObs) walked(lanes int) {
	if co != nil {
		co.batchLanes.Add(uint64(lanes))
	}
}

// newCampaignObs resolves the campaign instruments, or nil when the
// config carries no observer.
func newCampaignObs(cfg *CampaignConfig) *campaignObs {
	o := cfg.Obs
	if o == nil {
		return nil
	}
	co := &campaignObs{
		o:                o,
		campID:           campSpanID(cfg),
		layoutsDone:      o.Counter("interferometry_layouts_done_total", "layouts measured successfully"),
		layoutsFailed:    o.Counter("interferometry_layouts_failed_total", "layouts that exhausted their retry budget"),
		layoutsRetried:   o.Counter("interferometry_layouts_retried_total", "layouts that needed more than one attempt"),
		attempts:         o.Counter("interferometry_attempts_total", "build+measure attempts, including retries"),
		restored:         o.Counter("interferometry_checkpoint_restored_total", "observations restored from a checkpoint on resume"),
		outliersFlagged:  o.Counter("interferometry_outliers_flagged_total", "observations flagged by the MAD screen"),
		outliersRepaired: o.Counter("interferometry_outliers_repaired_total", "flagged observations replaced by re-measurement"),
		screenPanics:     o.Counter("interferometry_outlier_screen_panics_total", "outlier re-measurements that panicked (recovered, settled as failed re-measurements)"),
		compileSec:       o.Histogram("interferometry_stage_compile_seconds", "reorder+link+check stage latency", obs.DurationBuckets),
		runSec:           o.Histogram("interferometry_stage_run_seconds", "measurement stage latency", obs.DurationBuckets),
		fitSec:           o.Histogram("interferometry_stage_fit_seconds", "plausibility-check+record stage latency", obs.DurationBuckets),
		layoutSec:        o.Histogram("interferometry_layout_seconds", "whole-layout latency including retries", obs.DurationBuckets),
		batchLanes:       o.Counter(engineLayouts("batch"), engineLayoutsHelp),
	}
	for d := range co.declines {
		co.declines[d] = o.Counter(fmt.Sprintf("interferometry_engine_declines_total{reason=%q}", declineNames[d]),
			"requested trace walks declined; the layouts replayed on the scalar engine")
	}
	return co
}

// engineLayouts names the per-engine member of the layouts-measured family.
func engineLayouts(engine string) string {
	return fmt.Sprintf("interferometry_engine_layouts_total{engine=%q}", engine)
}

const engineLayoutsHelp = "layouts whose deterministic replay each engine produced"

// layoutID derives the deterministic span ID of campaign-local layout i.
func (co *campaignObs) layoutID(cfg *CampaignConfig, i int) uint64 {
	return obs.SpanID(co.campID, tagLayout, uint64(cfg.FirstLayout+i))
}

// layoutStage opens a unit's "layout" span (ID id, parented on the
// campaign span) in worker lane w+1 and starts the whole-layout latency
// timer.
func (co *campaignObs) layoutStage(id uint64, w int) stage {
	if co == nil {
		return stage{}
	}
	return stage{
		co:   co,
		span: co.o.StartSpan("layout", id, co.campID, w+1),
		hist: co.layoutSec,
		t0:   time.Now(),
	}
}

// stage is one timed, traced step of a layout measurement.
type stage struct {
	co   *campaignObs
	span obs.Span
	hist *obs.Histogram
	t0   time.Time
}

// stageStart opens a stage span in the worker's tid lane (lane w+1; lane
// 0 is reserved for campaign-level spans) and starts its latency timer.
// The stage tag selects both the span identity and the latency histogram.
func (co *campaignObs) stageStart(name string, layoutID, tag uint64, w int) stage {
	if co == nil {
		return stage{}
	}
	var hist *obs.Histogram
	switch tag {
	case tagCompile:
		hist = co.compileSec
	case tagRun:
		hist = co.runSec
	case tagFit:
		hist = co.fitSec
	}
	return stage{
		co:   co,
		span: co.o.StartSpan(name, obs.SpanID(layoutID, tag), layoutID, w+1),
		hist: hist,
		t0:   time.Now(),
	}
}

// end closes the span and records the stage latency.
func (s stage) end() {
	if s.co == nil {
		return
	}
	s.hist.Observe(time.Since(s.t0).Seconds())
	s.span.End()
}

// supTel is superviseFor's telemetry sink: per-worker busy/idle time and
// per-index queue wait (the gap between a worker freeing up and its next
// index's work starting). A nil *supTel keeps the supervisor free of any
// clock reads.
type supTel struct {
	busy *obs.Gauge
	idle *obs.Gauge
	wait *obs.Histogram
}

// newSupTel resolves the supervisor instruments, or nil without an
// observer. The gauges accumulate across sweeps and workers; the report
// reader compares busy against busy+idle for utilization.
func newSupTel(o *obs.Observer) *supTel {
	if o == nil {
		return nil
	}
	return &supTel{
		busy: o.Gauge("interferometry_worker_busy_seconds", "total worker time spent inside sweep bodies"),
		idle: o.Gauge("interferometry_worker_idle_seconds", "total worker time spent waiting for work or draining"),
		wait: o.Histogram("interferometry_queue_wait_seconds", "per-index wait between a worker freeing up and its next index starting", obs.DurationBuckets),
	}
}

// harnessMetrics builds the pmc instrument set from the observer.
func harnessMetrics(o *obs.Observer) *pmc.HarnessMetrics {
	if o == nil {
		return nil
	}
	return &pmc.HarnessMetrics{
		Measurements: o.Counter("interferometry_pmc_measurements_total", "layout measurements performed"),
		Simulations:  o.Counter("interferometry_pmc_simulations_total", "full machine simulations executed"),
		SynthRuns:    o.Counter("interferometry_pmc_synth_runs_total", "protocol runs synthesized from a shared simulation"),
		Scalar:       o.Counter(engineLayouts("scalar"), engineLayoutsHelp),
	}
}

// builderMetrics builds the toolchain instrument set from the observer.
func builderMetrics(o *obs.Observer) *toolchain.BuilderMetrics {
	if o == nil {
		return nil
	}
	return &toolchain.BuilderMetrics{
		Builds:       o.Counter("interferometry_builder_builds_total", "layout links performed"),
		BuildSeconds: o.Histogram("interferometry_builder_build_seconds", "reorder+link latency", obs.DurationBuckets),
	}
}

// sweepSpan opens a campaign-level span for one of the dataset sweeps
// (model fit, predictor eval, cache eval), parented on the campaign
// span; it is inert without an observer.
func sweepSpan(cfg *CampaignConfig, name string, tag uint64) obs.Span {
	if cfg.Obs == nil {
		return obs.Span{}
	}
	campID := campSpanID(cfg)
	return cfg.Obs.StartSpan(name, obs.SpanID(campID, tag), campID, 0)
}

// rootSpan opens a parentless span for studies that run outside a
// campaign (the linearity study).
func rootSpan(o *obs.Observer, name string, id uint64) obs.Span {
	if o == nil {
		return obs.Span{}
	}
	return o.StartSpan(name, id, 0, 0)
}
