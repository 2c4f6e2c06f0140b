package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"time"
	"unsafe"

	"interferometry/internal/core"
	"interferometry/internal/heap"
	"interferometry/internal/interp"
	"interferometry/internal/isa"
	"interferometry/internal/machine"
	"interferometry/internal/obs"
	"interferometry/internal/pintool"
	"interferometry/internal/pmc"
	"interferometry/internal/progen"
	"interferometry/internal/results"
	"interferometry/internal/toolchain"
	"interferometry/internal/uarch/branch"
)

// closedWorkload is a closed loop with one client: each operation is one
// paper-fidelity campaign (layouts × one trace → MPKI model → dataset CSV)
// and, for predict, the predictor evaluation and linearity sweep on top.
type closedWorkload struct {
	bench   string
	heap    heap.Mode
	budget  uint64
	layouts int
	// simBudget and configs shape predict's linearity sweep; zero for the
	// campaign-only workloads.
	simBudget uint64
	configs   int
}

var (
	campaignCode = &closedWorkload{bench: "400.perlbench", heap: heap.ModeBump, budget: 300_000, layouts: 64}
	campaignHeap = &closedWorkload{bench: "454.calculix", heap: heap.ModeRandomized, budget: 1_000_000, layouts: 32}
	predict      = &closedWorkload{bench: "471.omnetpp", heap: heap.ModeBump, budget: 300_000, layouts: 16, simBudget: 150_000, configs: 72}
)

func (c *closedWorkload) predicts() bool { return c.configs > 0 }

// closedState is a set-up workload.
type closedState struct {
	c       *closedWorkload
	prog    *isa.Program
	builder *toolchain.Builder // spot checks
	scalar  *machine.Machine   // spot checks
	// eng holds the traced decomposition's engines, kept across
	// operations the way the campaign pools its own.
	eng *engines
	// canary is the canary operation's output.
	canary *closedOut
}

type engines struct {
	batch   *machine.Batch
	harness *pmc.Harness
	det     *detSource
}

// closedOut is one operation's outputs.
type closedOut struct {
	ds    *core.Dataset
	model *core.Model
	csv   []byte
	evals []core.PredictorEval
	lin   *core.LinearityResult
	// campaign, evaluate and linearity time the operation's phases.
	campaign, evaluate, linearity time.Duration
}

func (c *closedWorkload) setup(w *workload, traced bool) (*closedState, error) {
	spec, ok := progen.ByName(c.bench)
	if !ok {
		return nil, fmt.Errorf("unknown benchmark %s", c.bench)
	}
	prog, err := progen.Generate(spec)
	if err != nil {
		return nil, err
	}
	s := &closedState{
		c:       c,
		prog:    prog,
		builder: toolchain.NewBuilder(prog, toolchain.CompileConfig{}, toolchain.LinkConfig{}),
		scalar:  machine.New(machine.XeonE5440()),
	}
	if traced {
		b, err := machine.NewBatch(machine.XeonE5440(), c.width())
		if err != nil {
			return nil, err
		}
		det := &detSource{}
		s.eng = &engines{
			batch:   b,
			det:     det,
			harness: &pmc.Harness{Machine: machine.New(machine.XeonE5440()), Fidelity: pmc.FidelityPaper, Det: det},
		}
	}
	out, err := s.op(canarySeeds, nil)
	if err == nil {
		err = s.check(out)
	}
	if err == nil {
		err = s.spotCheck(out, canarySeeds, nil, 0, -1)
	}
	if err == nil {
		err = checkDigest(w, out.digest())
	}
	if err != nil {
		return nil, fmt.Errorf("canary: %w", err)
	}
	s.canary = out
	return s, nil
}

// width is the batch width the campaign picks: each worker's fair share,
// capped at 32 lanes.
func (c *closedWorkload) width() int {
	return min((c.layouts+workers-1)/workers, 32)
}

func (s *closedState) campaignConfig(sd opSeeds, o *obs.Observer) core.CampaignConfig {
	return core.CampaignConfig{
		Program:   s.prog,
		InputSeed: sd.input,
		Budget:    s.c.budget,
		Layouts:   s.c.layouts,
		HeapMode:  s.c.heap,
		Fidelity:  pmc.FidelityPaper,
		BaseSeed:  sd.base,
		Workers:   workers,
		Obs:       o,
	}
}

func (s *closedState) linearityConfig(sd opSeeds, o *obs.Observer) core.LinearityConfig {
	return core.LinearityConfig{
		Program:   s.prog,
		InputSeed: sd.input,
		Budget:    s.c.simBudget,
		Configs:   branch.ConfigSpace(s.c.configs),
		Workers:   workers,
		Obs:       o,
	}
}

// op is one black-box operation.
func (s *closedState) op(sd opSeeds, o *obs.Observer) (*closedOut, error) {
	t0 := time.Now()
	ds, err := core.RunCampaign(s.campaignConfig(sd, o))
	if err != nil {
		return nil, err
	}
	model, err := ds.MPKIModel()
	if err != nil {
		return nil, err
	}
	var csv bytes.Buffer
	if err := results.WriteDatasetCSV(&csv, ds); err != nil {
		return nil, err
	}
	out := &closedOut{ds: ds, model: model, csv: csv.Bytes(), campaign: time.Since(t0)}
	if !s.c.predicts() {
		return out, nil
	}
	t1 := time.Now()
	if out.evals, err = ds.EvaluatePredictors(model, branch.PaperPredictors()); err != nil {
		return nil, err
	}
	t2 := time.Now()
	if out.lin, err = core.RunLinearityStudy(s.linearityConfig(sd, o)); err != nil {
		return nil, err
	}
	out.evaluate, out.linearity = t2.Sub(t1), time.Since(t2)
	return out, nil
}

// check verifies one operation's invariants.
func (s *closedState) check(out *closedOut) error {
	ds := out.ds
	if len(ds.Obs) != s.c.layouts || ds.EffectiveN() != s.c.layouts || len(ds.Failures) != 0 {
		return fmt.Errorf("%d observations, %d usable, %d failures; want %d clean", len(ds.Obs), ds.EffectiveN(), len(ds.Failures), s.c.layouts)
	}
	if f := out.model.Fit; !finite(f.Slope, f.Intercept, f.R2) {
		return fmt.Errorf("MPKI model is not finite: %v", out.model)
	}
	if !s.c.predicts() {
		return nil
	}
	if n := len(branch.PaperPredictors()); len(out.evals) != n {
		return fmt.Errorf("%d predictor evaluations, want %d", len(out.evals), n)
	}
	for _, e := range out.evals {
		if !finite(e.MPKI, e.PredictedCPI.Center, e.PredictedCPI.Low, e.PredictedCPI.High) {
			return fmt.Errorf("predictor %s evaluation is not finite", e.Name)
		}
	}
	lin := out.lin
	if len(lin.Skipped) != 0 || len(lin.Points) != s.c.configs {
		return fmt.Errorf("linearity: %d points, %d skipped; want %d", len(lin.Points), len(lin.Skipped), s.c.configs)
	}
	if !finite(lin.Fit.Slope, lin.Fit.Intercept, lin.PerfectCPI, lin.LTAGECPI) {
		return fmt.Errorf("linearity fit is not finite")
	}
	return nil
}

// spotCheck replays one sampled layout on the scalar engine and compares
// its counters with the campaign's bit for bit. The sample depends only
// on the operation's seeds.
func (s *closedState) spotCheck(out *closedOut, sd opSeeds, rec *recorder, op, parent int) error {
	j := int(sd.base % uint64(len(out.ds.Obs)))
	o := out.ds.Obs[j]
	exe, err := s.builder.Build(o.LayoutSeed)
	if err != nil {
		return err
	}
	sp := rec.begin("machine.RunDeterministic", op, 0, parent)
	c, _, err := s.scalar.RunDeterministic(machine.RunSpec{Exe: exe, Trace: out.ds.Trace, HeapMode: s.c.heap, HeapSeed: o.HeapSeed})
	rec.end(sp, float64(out.ds.Trace.Instrs))
	if err != nil {
		return err
	}
	return sameCounters(fmt.Sprintf("spot check of layout %d", j), o.Measurement, c)
}

// sameCounters compares a measurement's instruction and event counts with
// a replay's counters.
func sameCounters(what string, m pmc.Measurement, c machine.Counters) error {
	want := [pmc.NumEvents]uint64{
		pmc.EvInstructions:      c.Instructions,
		pmc.EvBranchMispredicts: c.BranchMispredicts,
		pmc.EvL1IMisses:         c.L1IMisses,
		pmc.EvL2Misses:          c.L2Misses,
		pmc.EvL1DMisses:         c.L1DMisses,
	}
	if m.Instructions != c.Instructions || m.Events != want {
		return fmt.Errorf("%s: events %v (%d instructions), replay has %v (%d)", what, m.Events, m.Instructions, want, c.Instructions)
	}
	return nil
}

// digest hashes the operation's outputs: the dataset CSV, then for
// predict the bit patterns of every evaluated MPKI and linearity point.
func (out *closedOut) digest() string {
	h := sha256.New()
	h.Write(out.csv)
	bits := func(vs ...float64) {
		for _, v := range vs {
			binary.Write(h, binary.LittleEndian, math.Float64bits(v))
		}
	}
	for _, e := range out.evals {
		h.Write([]byte(e.Name))
		bits(e.MPKI)
		bits(e.MPKIPerLayout...)
	}
	if out.lin != nil {
		for _, p := range out.lin.Points {
			h.Write([]byte(p.Config))
			bits(p.MPKI, p.CPI)
		}
		bits(out.lin.PerfectCPI, out.lin.LTAGEMPKI, out.lin.LTAGECPI)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// run is the closed loop.
func (c *closedWorkload) run(w *workload, o options) (*runStats, *recorder, error) {
	rs := newRunStats(o.ref)
	var s *closedState
	for k := 0; k < o.setups; k++ {
		rw, _ := rs.ref.unit()
		t0 := time.Now()
		st, err := c.setup(w, o.trace)
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		rs.setup = append(rs.setup, rw*time.Since(t0).Seconds())
		s = st
	}
	var rec *recorder
	var tracedLat []float64
	var goOps goStats // the Go runtime's counters' growth over the untraced operations
	if o.trace {
		rec = newRecorder()
		for k, v := range simulatedStats(s.canary.ds) {
			rs.fixed[k] = v
		}
		rs.fixed["machine.batch_lanes"] = float64(c.width())
	}
	deadline := time.Now().Add(o.duration)
	for i := 0; (o.ops == 0 || i < o.ops) && time.Now().Before(deadline); i++ {
		sd := seedsFor(o.seed, i)
		rw, rc := rs.ref.unit() // the host's speed, next to every operation
		var g0 goStats
		if o.trace {
			g0 = readGoStats()
		}
		cpu0, t0 := cpuTime(), time.Now()
		out, err := s.op(sd, nil)
		lat := time.Since(t0)
		rs.cpu += rc * (cpuTime() - cpu0)
		rs.attempted++
		if o.trace {
			goOps = goOps.add(readGoStats().sub(g0))
		}
		if err == nil {
			err = s.check(out)
		}
		if err == nil && (!o.trace || i%traceEvery != 0) {
			err = s.spotCheck(out, sd, nil, i, -1)
		}
		if err == nil && o.trace && i%traceEvery == 0 {
			var tl time.Duration
			if tl, err = s.traceOp(rec, i, sd, out, lat, rs); err == nil {
				tracedLat = append(tracedLat, rw*tl.Seconds())
			}
		}
		if err != nil {
			rs.opFailed(w, i, err)
			continue
		}
		rs.lat = append(rs.lat, rw*lat.Seconds())
		rs.wall += rw * lat.Seconds()
		rs.layouts += c.layouts
	}
	if o.trace {
		for k, v := range goLayers(goOps, rs.attempted) {
			rs.fixed[k] = v
		}
		if len(tracedLat) > 0 {
			rs.fixed["bench.trace_overhead"] = quantile(tracedLat, 0.5) / quantile(rs.lat, 0.5)
		}
	}
	return rs, rec, nil
}

// simulatedStats are the canary dataset's mean simulated event rates and
// CPI: pure functions of the simulated machine, so any change that only
// claims speed must leave them identical.
func simulatedStats(ds *core.Dataset) map[string]float64 {
	mean := func(xs []float64) float64 {
		sum := 0.0
		for _, x := range xs {
			sum += x
		}
		return sum / float64(len(xs))
	}
	return map[string]float64{
		"uarch.branch_mpki": mean(ds.PKIs(pmc.EvBranchMispredicts)),
		"uarch.l1i_mpki":    mean(ds.PKIs(pmc.EvL1IMisses)),
		"uarch.l1d_mpki":    mean(ds.PKIs(pmc.EvL1DMisses)),
		"uarch.l2_mpki":     mean(ds.PKIs(pmc.EvL2Misses)),
		"machine.cpi":       mean(ds.CPIs()),
	}
}

// traceOp runs operation op again as an observed black box, which must
// reproduce the untraced outputs, then layer by layer, and records the
// per-layer samples. It returns the observed black box's latency.
func (s *closedState) traceOp(rec *recorder, op int, sd opSeeds, untraced *closedOut, lat time.Duration, rs *runStats) (time.Duration, error) {
	root := rec.begin("op", op, 0, -1)
	defer rec.end(root, 0)
	m := obs.NewMetrics()
	bb := rec.begin("blackbox", op, 0, root)
	t0 := time.Now()
	out, err := s.op(sd, &obs.Observer{Metrics: m})
	tracedLat := time.Since(t0)
	rec.end(bb, 0)
	if err != nil {
		return 0, err
	}
	if out.digest() != untraced.digest() {
		return 0, fmt.Errorf("observed black box changed the outputs")
	}
	dec := rec.begin("decomposed", op, 0, root)
	err = s.decompose(rec, op, dec, sd, out)
	rec.end(dec, 0)
	if err != nil {
		return 0, err
	}
	chk := rec.begin("check", op, 0, root)
	err = s.spotCheck(out, sd, rec, op, chk)
	if err == nil && s.c.predicts() {
		err = s.probePredictors(rec, op, chk, sd, out.ds)
	}
	rec.end(chk, 0)
	if err != nil {
		return 0, err
	}

	layers := layerMetrics(rec.sumByName(root))
	layers["interp.trace_mb"] = float64(traceBytes(out.ds.Trace)) / (1 << 20)
	layers["core.residual_ms"] = float64(lat-rec.accounted(dec, workers)) / 1e6
	layers["core.campaign_ms"] = float64(out.campaign) / 1e6
	if s.c.predicts() {
		layers["core.evaluate_ms"] = float64(out.evaluate) / 1e6
		layers["core.linearity_ms"] = float64(out.linearity) / 1e6
	}
	for k, v := range coreInstruments(m) {
		layers[k] = v
	}
	rs.addLayers(layers)
	return tracedLat, nil
}

// coreInstruments reads the campaign supervisor's and the counter
// harness's own instruments after an observed operation.
func coreInstruments(m *obs.Metrics) map[string]float64 {
	out := map[string]float64{}
	busy := m.Gauge("interferometry_worker_busy_seconds", "").Value()
	idle := m.Gauge("interferometry_worker_idle_seconds", "").Value()
	if busy+idle > 0 {
		out["core.worker_busy_share"] = busy / (busy + idle)
	}
	if h := m.Histogram("interferometry_queue_wait_seconds", "", obs.DurationBuckets); h.Count() > 0 {
		out["core.queue_wait_ms"] = h.Sum() / float64(h.Count()) * 1e3
	}
	if n := m.Counter("interferometry_pmc_measurements_total", "").Value(); n > 0 {
		out["core.simulations_per_measurement"] = float64(m.Counter("interferometry_pmc_simulations_total", "").Value()) / float64(n)
	}
	return out
}

// decompose replays one operation layer by layer, the way the black box
// runs it: the trace, the shared compile, each worker's builds, one
// batched walk per chunk and one harness measurement per layout, then the
// fit and the CSV; for predict, the predictor evaluation and linearity
// sweep likewise. Every layout's event counts, every predictor MPKI and
// every linearity point must match the black box exactly.
//
// The calls run one after another, each span tagged with the worker lane
// the black box runs it on, so every layer is timed without the other
// lane contending; core.residual_ms then holds what running the lanes
// side by side and supervising them costs on top.
func (s *closedState) decompose(rec *recorder, op, parent int, sd opSeeds, bb *closedOut) error {
	sp := rec.begin("interp.Run", op, 0, parent)
	trace, err := interp.Run(s.prog, sd.input, interp.StopRule{Budget: s.c.budget})
	if err != nil {
		return err
	}
	rec.end(sp, float64(trace.Instrs))
	if trace.Instrs != bb.ds.Trace.Instrs {
		return fmt.Errorf("decomposed trace has %d instructions, black box %d", trace.Instrs, bb.ds.Trace.Instrs)
	}
	sp = rec.begin("toolchain.NewBuilder", op, 0, parent)
	builder := toolchain.NewBuilder(s.prog, toolchain.CompileConfig{}, toolchain.LinkConfig{})
	rec.end(sp, 0)

	n, width := s.c.layouts, s.c.width()
	obsv := make([]core.Observation, n)
	for lo := 0; lo < n; lo += width {
		if err := s.eng.measureChunk(rec, op, parent, lane(lo/width), builder, trace, s.c.heap, bb.ds.Obs, lo, min(lo+width, n), obsv); err != nil {
			return err
		}
	}
	cfg := s.campaignConfig(sd, nil)
	ds := &core.Dataset{Benchmark: s.prog.Name, Config: cfg, Trace: trace, Obs: obsv}
	sp = rec.begin("core.MPKIModel", op, 0, parent)
	_, err = ds.MPKIModel()
	rec.end(sp, 0)
	if err != nil {
		return err
	}
	sp = rec.begin("results.WriteDatasetCSV", op, 0, parent)
	var csv bytes.Buffer
	err = results.WriteDatasetCSV(&csv, ds)
	rec.end(sp, 0)
	if err != nil {
		return err
	}
	if !s.c.predicts() {
		return nil
	}
	if err := s.decomposeEvaluate(rec, op, parent, ds, bb.evals); err != nil {
		return err
	}
	return s.decomposeLinearity(rec, op, parent, sd, bb.lin)
}

// lane is the worker lane (1..workers) the black box's supervisor runs
// its t-th task on.
func lane(t int) int { return t%workers + 1 }

// measureChunk is one worker's share of the campaign: build every layout
// of the chunk, walk the trace once for all of them, then run each
// layout's harness measurement from that walk.
func (e *engines) measureChunk(rec *recorder, op, parent, ln int, builder *toolchain.Builder, trace *interp.Trace, mode heap.Mode, want []core.Observation, lo, hi int, out []core.Observation) error {
	specs := make([]machine.RunSpec, 0, hi-lo)
	for i := lo; i < hi; i++ {
		sp := rec.begin("toolchain.Build", op, ln, parent)
		exe, err := builder.Build(want[i].LayoutSeed)
		if err == nil {
			err = toolchain.CheckExecutable(exe, i)
		}
		rec.end(sp, 0)
		if err != nil {
			return err
		}
		specs = append(specs, machine.RunSpec{Exe: exe, Trace: trace, HeapMode: mode, HeapSeed: want[i].HeapSeed})
	}
	sp := rec.begin("machine.Batch.Run", op, ln, parent)
	cs, dets, err := e.batch.Run(specs)
	rec.end(sp, float64(trace.Instrs)*float64(len(specs)))
	if err != nil {
		return err
	}
	e.det.fill(specs, cs, dets)
	for j, spec := range specs {
		i := lo + j
		// Any noise seed costs the same; cycles are not compared.
		spec.NoiseSeed = want[i].LayoutSeed
		sp := rec.begin("pmc.Harness.Measure", op, ln, parent)
		m, err := e.harness.Measure(spec)
		rec.end(sp, 0)
		if err != nil {
			return err
		}
		if err := sameCounters(fmt.Sprintf("decomposed layout %d", i), want[i].Measurement, machine.Counters{
			Instructions:      m.Instructions,
			BranchMispredicts: m.Events[pmc.EvBranchMispredicts],
			L1IMisses:         m.Events[pmc.EvL1IMisses],
			L2Misses:          m.Events[pmc.EvL2Misses],
			L1DMisses:         m.Events[pmc.EvL1DMisses],
		}); err != nil {
			return err
		}
		out[i] = core.Observation{LayoutSeed: want[i].LayoutSeed, HeapSeed: want[i].HeapSeed, Measurement: m, Attempts: 1}
	}
	if e.det.misses > 0 {
		return fmt.Errorf("%d harness measurements missed the batched walk", e.det.misses)
	}
	return nil
}

// decomposeEvaluate is EvaluatePredictors layer by layer: per layout, one
// build and one Pin-style replay of all the paper's predictors.
func (s *closedState) decomposeEvaluate(rec *recorder, op, parent int, ds *core.Dataset, want []core.PredictorEval) error {
	sp := rec.begin("toolchain.NewBuilder", op, 0, parent)
	builder := toolchain.NewBuilder(s.prog, toolchain.CompileConfig{}, toolchain.LinkConfig{})
	rec.end(sp, 0)
	for k, o := range ds.Obs {
		sp := rec.begin("toolchain.Build", op, lane(k), parent)
		exe, err := builder.Build(o.LayoutSeed)
		rec.end(sp, 0)
		if err != nil {
			return err
		}
		sp = rec.begin("pintool.Run", op, lane(k), parent)
		rs, err := pintool.Run(ds.Trace, exe, branch.PaperPredictors(), pintool.Config{Warmup: true})
		rec.end(sp, 0)
		if err != nil {
			return err
		}
		for p, r := range rs {
			if got := r.MPKI(); math.Float64bits(got) != math.Float64bits(want[p].MPKIPerLayout[k]) {
				return fmt.Errorf("decomposed %s MPKI on layout %d is %v, black box %v", r.Name, k, got, want[p].MPKIPerLayout[k])
			}
		}
	}
	return nil
}

// probePredictors times the Pin-style replay of the GAs predictors and of
// L-TAGE separately on one layout, for the per-predictor rates the shared
// replay cannot separate.
func (s *closedState) probePredictors(rec *recorder, op, parent int, sd opSeeds, ds *core.Dataset) error {
	exe, err := s.builder.Build(ds.Obs[int(sd.base%uint64(len(ds.Obs)))].LayoutSeed)
	if err != nil {
		return err
	}
	var gas, ltage []branch.Factory
	for _, f := range branch.PaperPredictors() {
		if f.Name == "l-tage" {
			ltage = append(ltage, f)
		} else {
			gas = append(gas, f)
		}
	}
	for _, g := range []struct {
		span  string
		preds []branch.Factory
	}{{"pintool.Run.gas", gas}, {"pintool.Run.ltage", ltage}} {
		sp := rec.begin(g.span, op, 0, parent)
		_, err := pintool.Run(ds.Trace, exe, g.preds, pintool.Config{Warmup: true})
		// Warm-up replays the trace twice for each predictor.
		rec.end(sp, 2*float64(ds.Trace.Instrs)*float64(len(g.preds)))
		if err != nil {
			return err
		}
	}
	return nil
}

// decomposeLinearity is RunLinearityStudy layer by layer: its own trace
// and fixed layout, one scalar replay per predictor configuration, then
// the oracle and L-TAGE reference runs.
func (s *closedState) decomposeLinearity(rec *recorder, op, parent int, sd opSeeds, want *core.LinearityResult) error {
	sp := rec.begin("interp.Run", op, 0, parent)
	trace, err := interp.Run(s.prog, sd.input, interp.StopRule{Budget: s.c.simBudget})
	if err != nil {
		return err
	}
	rec.end(sp, float64(trace.Instrs))
	sp = rec.begin("toolchain.NewBuilder", op, 0, parent)
	exe, err := toolchain.NewBuilder(s.prog, toolchain.CompileConfig{}, toolchain.LinkConfig{}).Build(1)
	rec.end(sp, 0)
	if err != nil {
		return err
	}
	replay := func(m *machine.Machine, ln int, p branch.Predictor) (machine.Counters, error) {
		sp := rec.begin("machine.RunDeterministic", op, ln, parent)
		c, _, err := m.RunDeterministic(machine.RunSpec{Exe: exe, Trace: trace, Predictor: p, DisableNoise: true})
		rec.end(sp, float64(trace.Instrs))
		return c, err
	}
	configs := branch.ConfigSpace(s.c.configs)
	for k, f := range configs {
		c, err := replay(s.scalar, lane(k), f.New())
		if err != nil {
			return err
		}
		if p := want.Points[k]; !sameBits([]float64{c.MPKI(), c.CPI()}, []float64{p.MPKI, p.CPI}) {
			return fmt.Errorf("decomposed linearity point %s is (%v, %v), black box (%v, %v)", p.Config, c.MPKI(), c.CPI(), p.MPKI, p.CPI)
		}
	}
	perfect, err := replay(s.scalar, 0, branch.Perfect{})
	if err != nil {
		return err
	}
	ltage, err := replay(s.scalar, 0, branch.NewLTAGEDefault())
	if err != nil {
		return err
	}
	if !sameBits([]float64{perfect.CPI(), ltage.MPKI(), ltage.CPI()}, []float64{want.PerfectCPI, want.LTAGEMPKI, want.LTAGECPI}) {
		return fmt.Errorf("decomposed linearity reference runs differ from the black box")
	}
	return nil
}

// detSource serves the decomposition's harness from its last batched walk,
// through the same pmc.DetSource seam the campaign uses.
type detSource struct {
	specs  []machine.RunSpec
	cs     []machine.Counters
	dets   []float64
	misses int
}

func (d *detSource) fill(specs []machine.RunSpec, cs []machine.Counters, dets []float64) {
	d.specs = append(d.specs[:0], specs...)
	d.cs = append(d.cs[:0], cs...)
	d.dets = append(d.dets[:0], dets...)
	d.misses = 0
}

func (d *detSource) Det(spec machine.RunSpec) (machine.Counters, float64, bool) {
	for j := range d.specs {
		if d.specs[j].Exe == spec.Exe && d.specs[j].HeapSeed == spec.HeapSeed {
			return d.cs[j], d.dets[j], true
		}
	}
	d.misses++
	return machine.Counters{}, 0, false
}

// traceBytes is the memory the trace's event arrays hold.
func traceBytes(t *interp.Trace) int {
	return sliceBytes(t.BlockSeq) + sliceBytes(t.TakenBits) + sliceBytes(t.IndirectSel) +
		sliceBytes(t.MemObj) + sliceBytes(t.MemOff) + sliceBytes(t.AllocObj) + sliceBytes(t.AllocKind) +
		sliceBytes(t.ProcEntries) + sliceBytes(t.ProcLastEntry)
}

func sliceBytes[T any](s []T) int {
	var z T
	return cap(s) * int(unsafe.Sizeof(z))
}
