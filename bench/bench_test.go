package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func init() { specPath = filepath.Join("..", "BENCHMARK.json") }

// raceDetector is set when the tests run with -race (race_test.go).
var raceDetector bool

// TestWorkloads runs every workload for three operations, untraced and
// traced. Setup checks each canary digest; every operation checks its
// invariants and a scalar spot check; a traced operation's decomposition
// must reproduce the black box's counts. The test then checks that every
// metric BENCHMARK.json names is reported with its unit.
func TestWorkloads(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		w, ok := workloads[sw.Name]
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q is not implemented", sw.Name)
		}
		for _, traced := range []bool{false, true} {
			o := options{seed: 7, duration: time.Minute, ops: 3, trace: traced, setups: 1, runDir: t.TempDir()}
			res, rec, err := runWorkload(w, o)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.name, traced, err)
			}
			if !(res.Correct || raceDetector && w.name == "service") || res.Attempted != 3 || res.Failed != 0 {
				t.Fatalf("%s (traced %v): correct %v, %d attempted, %d failed", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			defs := spec.EndToEnd
			if traced {
				defs = spec.PerLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s (traced %v): %d metrics, BENCHMARK.json names %d", w.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s (traced %v): metric %s reported as %+v, want unit %s", w.name, traced, d.Name, m, d.Unit)
				}
				if !traced && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s is %v, want > 0", w.name, d.Name, m.Value)
				}
			}
			if traced {
				if !(res.Metrics["toolchain.build_us"].Value > 0 && res.Metrics["pmc.measure_us"].Value > 0) {
					t.Errorf("%s: no traced operation was decomposed: %+v", w.name, res.Metrics)
				}
				path := filepath.Join(t.TempDir(), "trace.json")
				if err := rec.writeChrome(path); err != nil {
					t.Fatal(err)
				}
				var chrome struct{ TraceEvents []map[string]any }
				if data, err := os.ReadFile(path); err != nil || json.Unmarshal(data, &chrome) != nil || len(chrome.TraceEvents) == 0 {
					t.Errorf("%s: chrome trace unreadable or empty (%v)", w.name, err)
				}
			}
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "op_p50_s", Better: "lower", Bound: 0.05}
	base := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{0.7, 1.3, 0.8, 1.2, 1.0, 0.6, 1.4, 0.9, 1.1, 1.0}
	for _, tc := range []struct {
		name   string
		change []float64
		want   string
	}{
		{"faster", scale(0.8), "improved"},
		{"same", scale(1.0), "unchanged"},
		{"slower within bound", scale(1.03), "unchanged"},
		{"slower beyond bound", scale(1.2), "regressed"},
		{"noisy", noisy, "unresolved"},
	} {
		if got := judge(lower, base, tc.change).verdict; got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}
