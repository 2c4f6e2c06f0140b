package core

import (
	"math"
	"strings"
	"testing"

	"interferometry/internal/machine"
	"interferometry/internal/obs"
	"interferometry/internal/pmc"
	"interferometry/internal/testprog"
)

// corruptSeam always returns a zero-instruction counter read — the
// invalid-measurement shape a faulty harness hands the screen.
type corruptSeam struct{}

func (corruptSeam) Measure(machine.RunSpec) (pmc.Measurement, error) {
	return pmc.Measurement{Cycles: 12345}, nil
}

func TestMeasurementValid(t *testing.T) {
	if measurementValid(pmc.Measurement{Cycles: 100}) {
		t.Error("zero-instruction read counted as valid")
	}
	if !measurementValid(pmc.Measurement{Cycles: 100, Instructions: 80}) {
		t.Error("ordinary read counted as invalid")
	}
}

// screenFixture runs a clean campaign and hands back the config and
// dataset a screen is re-driven against (through screenRunner) once a
// test has tampered with the dataset.
func screenFixture(t *testing.T, layouts int) (CampaignConfig, *Dataset) {
	t.Helper()
	cfg := CampaignConfig{
		Program:   testprog.ManyBranches(200, 400),
		InputSeed: 1,
		Budget:    120000,
		Layouts:   layouts,
		BaseSeed:  7,
	}
	ds, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ds.Obs {
		if !measurementValid(ds.Obs[i].Measurement) {
			t.Fatalf("clean campaign produced invalid measurement at layout %d", i)
		}
	}
	return cfg, ds
}

// screenRunner builds a runner with slots worker slots on the fixture's
// trace. A non-nil seam replaces every slot's measure seam.
func screenRunner(t *testing.T, cfg CampaignConfig, ds *Dataset, slots int, seam measureSeam) *LayoutRunner {
	t.Helper()
	r, err := NewLayoutRunner(cfg, slots, ds.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if seam != nil {
		for w := range r.meas {
			r.meas[w] = seam
		}
	}
	return r
}

// TestScreenDegradesUnrepairableCorruption: an invalid measurement whose
// re-measurement is also invalid must leave the screen as StatusFailed
// with a recorded failure — never as data, and never as a NaN panic in
// the median/MAD pass.
func TestScreenDegradesUnrepairableCorruption(t *testing.T) {
	cfg, ds := screenFixture(t, 8)
	const victim = 3
	ds.Obs[victim].Measurement = pmc.Measurement{Cycles: 999}

	screenOutliers(screenRunner(t, cfg, ds, 1, corruptSeam{}), ds, nil)

	got := ds.Obs[victim]
	if got.Status != StatusFailed {
		t.Fatalf("unrepairable corrupt layout has status %v, want StatusFailed", got.Status)
	}
	if got.LayoutSeed != cfg.layoutSeed(victim) {
		t.Errorf("degraded observation lost its layout seed")
	}
	found := false
	for _, f := range ds.Failures {
		if f.Index == victim {
			found = true
			if !strings.Contains(f.Err, "corrupt counters") {
				t.Errorf("failure cause %q does not name corrupt counters", f.Err)
			}
		}
	}
	if !found {
		t.Error("no LayoutFailure recorded for the degraded layout")
	}
}

// TestScreenRepairsCorruptionByRemeasuring: with a working measurement
// seam, a corrupt stored observation is re-measured back to the clean
// value and marked retried.
func TestScreenRepairsCorruptionByRemeasuring(t *testing.T) {
	cfg, ds := screenFixture(t, 8)
	const victim = 5
	want := ds.Obs[victim].Measurement
	ds.Obs[victim].Measurement = pmc.Measurement{Cycles: 999}

	screenOutliers(screenRunner(t, cfg, ds, 1, nil), ds, nil)

	got := ds.Obs[victim]
	if got.Status != StatusRetried {
		t.Fatalf("repaired layout has status %v, want StatusRetried", got.Status)
	}
	if got.Measurement != want {
		t.Fatal("re-measurement did not restore the clean counters")
	}
	if len(ds.Failures) != 0 {
		t.Fatalf("repairable corruption recorded failures: %v", ds.Failures)
	}
}

// TestScreenKeepsValidObservations: when every stored measurement is
// valid, a screen whose re-measurement seam is broken must not change a
// single observation — it improves datasets or leaves them alone.
func TestScreenKeepsValidObservations(t *testing.T) {
	cfg, ds := screenFixture(t, 8)
	before := append([]Observation(nil), ds.Obs...)

	screenOutliers(screenRunner(t, cfg, ds, 1, corruptSeam{}), ds, nil)

	for i := range ds.Obs {
		if ds.Obs[i] != before[i] {
			t.Fatalf("layout %d changed: %+v -> %+v", i, before[i], ds.Obs[i])
		}
	}
	if len(ds.Failures) != 0 {
		t.Fatalf("screen of a valid dataset recorded failures: %v", ds.Failures)
	}
}

// TestScreenMedianExcludesInvalid: the invalid observation must not
// enter the median/MAD statistics. With an absurd corrupt CPI in a
// small spread of valid ones, a poisoned median would flag everything;
// the screen must re-measure only the corrupt entry.
func TestScreenMedianExcludesInvalid(t *testing.T) {
	cfg, ds := screenFixture(t, 8)
	const victim = 0
	ds.Obs[victim].Measurement = pmc.Measurement{Cycles: math.MaxUint64}

	screenOutliers(screenRunner(t, cfg, ds, 1, nil), ds, nil)

	retried := 0
	for i := range ds.Obs {
		if ds.Obs[i].Status == StatusRetried {
			retried++
			if i != victim {
				t.Errorf("valid layout %d was re-measured and replaced", i)
			}
		}
	}
	if retried == 0 {
		t.Error("corrupt layout was not repaired")
	}
}

// panicSeam panics on every measurement — a re-measurement the pool
// must recover, count and settle as failed.
type panicSeam struct{}

func (panicSeam) Measure(machine.RunSpec) (pmc.Measurement, error) {
	panic("measure seam exploded")
}

// TestScreenPoolSizedFromSeams: the screen runs one worker per runner
// slot, whatever cfg.Workers says. With one slot and several flagged
// layouts a pool sized from cfg.Workers indexes past the seams; with
// four slots every flagged layout is still repaired exactly once.
func TestScreenPoolSizedFromSeams(t *testing.T) {
	for _, seams := range []int{1, 4} {
		cfg, ds := screenFixture(t, 8)
		cfg.Workers = 8
		want := append([]Observation(nil), ds.Obs...)
		victims := []int{1, 4, 6}
		for _, v := range victims {
			ds.Obs[v].Measurement = pmc.Measurement{Cycles: 999}
		}
		screenOutliers(screenRunner(t, cfg, ds, seams, nil), ds, nil)
		for _, v := range victims {
			if got := ds.Obs[v]; got.Status != StatusRetried || got.Measurement != want[v].Measurement {
				t.Errorf("%d seams: layout %d not repaired: status %v", seams, v, got.Status)
			}
		}
		if len(ds.Failures) != 0 {
			t.Errorf("%d seams: repairable corruption recorded failures: %v", seams, ds.Failures)
		}
	}
}

// TestScreenCountsRecoveredPanics: a panicking re-measurement is neither
// a silent no-op nor fatal. It is counted, a corrupt observation it was
// meant to repair degrades to StatusFailed with the panic as its cause,
// and a valid outlier is kept.
func TestScreenCountsRecoveredPanics(t *testing.T) {
	cfg, ds := screenFixture(t, 8)
	const victim = 2
	ds.Obs[victim].Measurement = pmc.Measurement{Cycles: 999}
	m := obs.NewMetrics()
	cfg.Obs = &obs.Observer{Metrics: m}

	screenOutliers(screenRunner(t, cfg, ds, 2, panicSeam{}), ds, nil)

	if got := ds.Obs[victim].Status; got != StatusFailed {
		t.Fatalf("corrupt layout whose re-measurement panicked has status %v, want StatusFailed", got)
	}
	if len(ds.Failures) != 1 || ds.Failures[0].Index != victim || !strings.Contains(ds.Failures[0].Err, "measure seam exploded") {
		t.Fatalf("failures %v, want one for layout %d naming the panic", ds.Failures, victim)
	}
	flagged := m.Counter("interferometry_outliers_flagged_total", "").Value()
	if n := m.Counter("interferometry_outlier_screen_panics_total", "").Value(); n == 0 || n != flagged {
		t.Errorf("%d panics counted for %d flagged layouts, all of which panicked", n, flagged)
	}
	for i := range ds.Obs {
		if i != victim && ds.Obs[i].Status == StatusFailed {
			t.Errorf("valid layout %d degraded by a panicking re-measurement", i)
		}
	}
}
