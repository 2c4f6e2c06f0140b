package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workers is the campaign worker count of every workload. The benchmark
// pins it, and GOMAXPROCS (run.sh), to 2 so that runs on hosts with more
// cores still measure the same amount of parallelism.
const workers = 2

// defaultSetups is how many times a run sets its workload up; setup_s is
// the median. The set-ups of one run differ by up to a third (the
// service's by a factor of two), so the median needs this many to repeat
// from run to run.
const defaultSetups = 9

// traceEvery makes every traceEvery-th operation of a traced run a traced
// one: it runs again as an observed black box and then layer by layer.
const traceEvery = 10

// workload is one traffic mix.
type workload struct {
	name string
	// golden is the sha256 of the canary operation's outputs.
	golden string
	// tail is the quantile op_tail_s reports. It leaves at least ten
	// operations beyond it at the run length BENCHMARK.json sets: p90,
	// but p80 for predict, which completes about 80 operations in a run.
	// The higher quantiles the faster workloads would allow varied from
	// run to run by more than any bound permits.
	tail float64
	run  func(w *workload, o options) (*runStats, *recorder, error)
}

var workloads = map[string]*workload{
	"campaign-code": {name: "campaign-code", run: campaignCode.run, tail: 0.9,
		golden: "cf6ad9a62f348b454a7909e521ad5bf50af75a2477320c764477a04be025fc40"},
	"campaign-heap": {name: "campaign-heap", run: campaignHeap.run, tail: 0.9,
		golden: "64a18b5135c322169494d891c8ac8f849ac0400050239518614a0808d2b28409"},
	"predict": {name: "predict", run: predict.run, tail: 0.8,
		golden: "074804fdc6b9124e77d2232433c5439fa43bd163f77af5433ca517a1e918334d"},
	"service": {name: "service", run: runService, tail: 0.9,
		golden: "ebb54819ba728ecdf5ee56dd41143253540b5711992b5f51031f79e4fdaef9f0"},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// options configure one run.
type options struct {
	seed     uint64
	duration time.Duration
	// ops caps the timed operations (0 = until duration elapses); tests
	// use it to run a fixed handful.
	ops    int
	trace  bool
	setups int
	// runDir holds the run's on-disk state (campaignd's WAL and
	// checkpoints).
	runDir string
	// ref is the host reference (hostref.go).
	ref *hostRef
}

// runStats is what a workload's run measured. Its times are quoted for
// the reference host (hostref.go), each scaled by a reference unit run
// next to it.
type runStats struct {
	attempted, failed int
	lat               []float64 // latency of each successful operation, s
	layouts           int       // layouts measured by successful operations
	wall              float64   // timed wall clock those layouts took, s (not scaled for an open loop, whose rate is fixed)
	cpu               float64   // user+system CPU of the timed region, s
	setup             []float64 // duration of each setup, s
	ref               *hostRef
	// invalid names a reason the run cannot be trusted as a whole (the
	// open-loop generator fell behind); empty when valid.
	invalid string
	// layers holds one sample per traced operation of each per-layer
	// metric; fixed holds per-layer values measured once per run.
	layers map[string][]float64
	fixed  map[string]float64
}

func newRunStats(ref *hostRef) *runStats {
	return &runStats{layers: map[string][]float64{}, fixed: map[string]float64{}, ref: ref}
}

func (rs *runStats) addLayers(m map[string]float64) {
	for k, v := range m {
		rs.layers[k] = append(rs.layers[k], v)
	}
}

// opFailed counts a failed operation and says why on standard error.
func (rs *runStats) opFailed(w *workload, i int, err error) {
	rs.failed++
	fmt.Fprintf(os.Stderr, "bench: %s: op %d: %v\n", w.name, i, err)
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// benchSpec is the part of BENCHMARK.json the benchmark reads: the
// metric names, units and bounds.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// specPath is BENCHMARK.json relative to the working directory, which is
// the repository root for every mode except the package's own tests.
var specPath = "BENCHMARK.json"

func loadSpec() (*benchSpec, error) {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", specPath, err)
	}
	return &s, nil
}

// runWorkload runs one workload and reports the metrics BENCHMARK.json
// names for the mode: end-to-end ones untraced, per-layer ones traced. A
// nil result means the run could not produce one (setup failed).
func runWorkload(w *workload, o options) (*result, *recorder, error) {
	spec, err := loadSpec()
	if err != nil {
		return nil, nil, err
	}
	if o.ref, err = newHostRef(); err != nil {
		return nil, nil, fmt.Errorf("host reference: %w", err)
	}
	defer o.ref.close()
	rs, rec, err := w.run(w, o)
	if err != nil {
		return nil, nil, err
	}
	res := &result{
		Correct:   rs.failed == 0 && rs.invalid == "" && rs.attempted > 0,
		Attempted: rs.attempted,
		Failed:    rs.failed,
		Metrics:   map[string]metric{},
	}
	if rs.invalid != "" {
		fmt.Fprintf(os.Stderr, "bench: %s: run invalid: %s\n", w.name, rs.invalid)
	}
	values, defs := endToEnd(rs, w.tail), spec.EndToEnd
	if o.trace {
		values, defs = perLayer(rs, spec.PerLayer), spec.PerLayer
	}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok && !o.trace {
			return nil, nil, fmt.Errorf("metric %s is in %s but not measured", d.Name, specPath)
		}
		delete(values, d.Name)
		if !finite(v) { // no successful operation to measure
			v = 0
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	for name := range values {
		return nil, nil, fmt.Errorf("metric %s is measured but missing from %s", name, specPath)
	}
	fmt.Fprintf(os.Stderr, "bench: %s: seed %d, %d ops (%d failed), num_cpu %d, GOMAXPROCS %d\n",
		w.name, o.seed, rs.attempted, rs.failed, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	fmt.Fprintf(os.Stderr, "bench: %s: host reference unit %.3f ms wall, %.3f ms CPU (median of %d)\n",
		w.name, quantile(rs.ref.wall, 0.5)*1e3, quantile(rs.ref.cpus, 0.5)*1e3, len(rs.ref.wall))
	return res, rec, nil
}

func endToEnd(rs *runStats, tail float64) map[string]float64 {
	m := map[string]float64{
		"op_p50_s":     quantile(rs.lat, 0.5),
		"op_tail_s":    quantile(rs.lat, tail),
		"cpu_s_per_op": rs.cpu / float64(max(rs.attempted, 1)),
		"peak_rss_mb":  peakRSSMiB(),
		"setup_s":      quantile(rs.setup, 0.5),
		"success_rate": float64(rs.attempted-rs.failed) / float64(max(rs.attempted, 1)),
	}
	if rs.wall > 0 {
		m["layouts_per_s"] = float64(rs.layouts) / rs.wall
	}
	return m
}

// timeUnits are the units of the per-layer metrics that are times.
var timeUnits = map[string]bool{"ms": true, "us": true, "ns": true}

// perLayer reduces the traced operations' samples to their medians, times
// quoted for the reference host by the run's median reference unit: CPU
// times by its CPU time, the others by its wall time. The benchmark's own
// bench.* metrics are not scaled; bench.host_ref_ms is that median unit.
// Layers a workload does not exercise read 0.
func perLayer(rs *runStats, defs []metricSpec) map[string]float64 {
	m := map[string]float64{"bench.host_ref_ms": quantile(rs.ref.wall, 0.5) * 1e3}
	for k, v := range rs.fixed {
		m[k] = v
	}
	for k, v := range rs.layers {
		m[k] = quantile(v, 0.5)
	}
	wall, cpu := rs.ref.scale()
	for _, d := range defs {
		switch {
		case !timeUnits[d.Unit] || strings.HasPrefix(d.Name, "bench."):
		case strings.Contains(d.Name, "cpu_"):
			m[d.Name] *= cpu
		default:
			m[d.Name] *= wall
		}
	}
	return m
}

// quantile is the linearly interpolated q-quantile of xs (NaN when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return quantile(s, 0.25), quantile(s, 0.75)
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		j = min(max(j, 1), n-1)
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// opSeeds are the inputs of one operation, derived from the run seed.
type opSeeds struct {
	base, input uint64
}

func seedsFor(seed uint64, op int) opSeeds {
	return opSeeds{
		base:  splitmix(seed ^ splitmix(uint64(2*op+1))),
		input: splitmix(seed ^ splitmix(uint64(2*op+2))),
	}
}

// canarySeeds are the fixed inputs of the canary operation.
var canarySeeds = seedsFor(0xca9a2011, 0)

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// cpuTime is the process's user+system CPU time, s.
func cpuTime() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// peakRSSMiB is the process's peak resident set (VmHWM) without the host
// reference's tables, which are resident from before set-up to the end,
// MiB.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss*1024-refBytes) / (1 << 20) // Linux reports KiB
}

// goStats samples the Go runtime's allocation and GC CPU counters.
type goStats struct {
	allocBytes, gcCPU, busyCPU float64
}

var goStatNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readGoStats() goStats {
	s := make([]metrics.Sample, len(goStatNames))
	for i, n := range goStatNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return goStats{allocBytes: v(0), gcCPU: v(1), busyCPU: v(2) - v(3)}
}

func (g goStats) sub(h goStats) goStats {
	return goStats{g.allocBytes - h.allocBytes, g.gcCPU - h.gcCPU, g.busyCPU - h.busyCPU}
}

func (g goStats) add(h goStats) goStats {
	return goStats{g.allocBytes + h.allocBytes, g.gcCPU + h.gcCPU, g.busyCPU + h.busyCPU}
}

// goLayers reports the Go runtime's share of ops operations, given the
// counters' growth over them.
func goLayers(d goStats, ops int) map[string]float64 {
	m := map[string]float64{"go.alloc_mb_per_op": d.allocBytes / float64(max(ops, 1)) / (1 << 20)}
	if d.busyCPU > 0 {
		m["go.gc_cpu_share"] = d.gcCPU / d.busyCPU
	}
	return m
}

// sameBits reports whether two float slices are bit-for-bit equal.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func finite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

func checkDigest(w *workload, got string) error {
	if got != w.golden {
		return fmt.Errorf("canary digest %s, want %s", got, w.golden)
	}
	return nil
}
