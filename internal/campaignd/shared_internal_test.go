package campaignd

import (
	"bytes"
	"context"
	"errors"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"interferometry/internal/core"
	"interferometry/internal/experiments"
	"interferometry/internal/interp"
	"interferometry/internal/isa"
	"interferometry/internal/obs"
	"interferometry/internal/results"
)

// heldBy returns the program and trace a running campaign's runner holds.
func heldBy(t *testing.T, srv *Server, spec JobSpec) (*isa.Program, *interp.Trace) {
	t.Helper()
	st, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	c, ok := srv.lookup(st.ID)
	if !ok {
		t.Fatalf("campaign %s not found", st.ID)
	}
	ds, err := c.runner.Dataset(make([]core.Observation, spec.Layouts), nil)
	if err != nil {
		t.Fatal(err)
	}
	return ds.Config.Program, ds.Trace
}

// TestCampaignsShareProgramAndTrace: campaigns of one benchmark and
// budget on one server share one program and one trace; another budget
// gets its own trace on the same program; and the server holds traces
// for at most maxSharedTraces keys, so after five distinct budgets the
// first one's trace is gone and a new campaign of that budget interprets
// afresh.
func TestCampaignsShareProgramAndTrace(t *testing.T) {
	srv, err := New(Config{NoLocalWorkers: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Drain)
	spec := func(budget, seed uint64) JobSpec {
		return JobSpec{Benchmark: "429.mcf", Layouts: 2, Budget: budget, BaseSeed: seed}
	}

	p1, t1 := heldBy(t, srv, spec(60_000, 1))
	p2, t2 := heldBy(t, srv, spec(60_000, 2))
	if p1 != p2 {
		t.Error("two campaigns of one benchmark hold different programs")
	}
	if t1 != t2 {
		t.Error("two campaigns of one benchmark and budget hold different traces")
	}
	p3, t3 := heldBy(t, srv, spec(70_000, 1))
	if p3 != p1 {
		t.Error("a campaign with another budget holds another program")
	}
	if t3 == t1 || t3.Stop.Budget != 70_000 {
		t.Errorf("a campaign with another budget shares the 60k trace (budget %d)", t3.Stop.Budget)
	}

	for _, budget := range []uint64{80_000, 90_000, 100_000} {
		heldBy(t, srv, spec(budget, 1))
	}
	srv.shared.mu.Lock()
	held := len(srv.shared.traces)
	for _, e := range srv.shared.traces {
		if e.v == t1 {
			t.Error("the first budget's trace is still held after five distinct budgets")
		}
	}
	srv.shared.mu.Unlock()
	if held != maxSharedTraces {
		t.Errorf("server holds %d traces, want %d", held, maxSharedTraces)
	}
	if _, t4 := heldBy(t, srv, spec(60_000, 3)); t4 == t1 {
		t.Error("a campaign after the eviction still got the evicted trace")
	}
}

// TestSharedWorkConcurrentFirstUse: concurrent first requests — worker
// loops and admissions race on a fresh process — get one program and
// one trace per key.
func TestSharedWorkConcurrentFirstUse(t *testing.T) {
	var sw sharedWork
	const n = 8
	progs := make([]*isa.Program, n)
	traces := make([]*interp.Trace, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			cfg, err := sw.campaignConfig(JobSpec{Benchmark: "429.mcf", Layouts: 2, Budget: uint64(60_000 + 10_000*(k%2))}, experiments.Small)
			if err != nil {
				errs[k] = err
				return
			}
			progs[k] = cfg.Program
			traces[k], errs[k] = sw.trace(cfg)
		}(k)
	}
	wg.Wait()
	for k := 0; k < n; k++ {
		if errs[k] != nil {
			t.Fatal(errs[k])
		}
		if progs[k] != progs[0] {
			t.Errorf("request %d got another program", k)
		}
		if traces[k] != traces[k%2] {
			t.Errorf("request %d got another trace for its budget", k)
		}
	}
	if traces[0] == traces[1] {
		t.Error("two budgets share one trace")
	}
}

// TestSharedWorkBuildsKeysIndependently: while one trace is being
// interpreted, another key's first use goes ahead. A failed build is not
// kept: the next request for its key interprets afresh.
func TestSharedWorkBuildsKeysIndependently(t *testing.T) {
	const slowBudget = 60_000
	started, release := make(chan struct{}), make(chan struct{})
	var slowBuilds atomic.Int32
	sw := sharedWork{interpret: func(p *isa.Program, seed uint64, stop interp.StopRule) (*interp.Trace, error) {
		if stop.Budget == slowBudget && slowBuilds.Add(1) == 1 {
			close(started)
			<-release
			return nil, errors.New("build abandoned")
		}
		return interp.Run(p, seed, stop)
	}}
	spec := JobSpec{Benchmark: "429.mcf", Layouts: 2, Budget: slowBudget}
	slowCfg, err := sw.campaignConfig(spec, experiments.Small)
	if err != nil {
		t.Fatal(err)
	}
	spec.Budget = 70_000
	otherCfg, err := sw.campaignConfig(spec, experiments.Small)
	if err != nil {
		t.Fatal(err)
	}

	get := func(cfg core.CampaignConfig) <-chan error {
		done := make(chan error, 1)
		go func() {
			_, err := sw.trace(cfg)
			done <- err
		}()
		return done
	}
	slow := get(slowCfg)
	<-started
	other := get(otherCfg)
	select {
	case err := <-other:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Minute):
		t.Fatal("another key's build waited for the slow key's")
	}
	close(release)
	if err := <-slow; err == nil {
		t.Fatal("the slow key's caller did not get its build's error")
	}
	tr, err := sw.trace(slowCfg)
	if err != nil {
		t.Fatalf("a failed build was kept: %v", err)
	}
	if tr.Stop != slowCfg.StopRule() {
		t.Errorf("trace stop rule %+v, want %+v", tr.Stop, slowCfg.StopRule())
	}
}

// TestPureCoordinatorSlotLayout: a pure coordinator builds each
// campaign's runner with the audit slot alone — no idle local slots —
// and, auditing every result, finishes a 24-layout campaign measured by
// one 3-loop worker byte-identical to a single-process run.
func TestPureCoordinatorSlotLayout(t *testing.T) {
	srv, err := New(Config{NoLocalWorkers: true, AuditRate: 1, Workers: 4, Obs: &obs.Observer{Metrics: obs.NewMetrics()}})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		srv.Drain()
		hs.Close()
	})
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := &Worker{Coordinator: hs.URL, HTTP: hs.Client(), Parallel: 3, Wait: 100 * time.Millisecond}
		w.Run(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		wg.Wait()
	})

	spec := JobSpec{Benchmark: "429.mcf", Layouts: 24, Budget: 60_000}
	st, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	c, ok := srv.lookup(st.ID)
	if !ok {
		t.Fatalf("campaign %s not found", st.ID)
	}
	if n := c.runner.Workers(); n != 1 {
		t.Errorf("pure coordinator's runner holds %d slots, want the audit slot alone", n)
	}
	select {
	case <-c.finished:
	case <-time.After(time.Minute):
		t.Fatal("campaign did not finish")
	}
	got, err := c.dataset()
	if err != nil {
		t.Fatal(err)
	}
	if v := srv.audits.Value(); v < 24 {
		t.Errorf("%d audits for 24 results at rate 1", v)
	}

	var sw sharedWork
	cfg, err := sw.campaignConfig(spec, srv.cfg.scale())
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var gotCSV, wantCSV bytes.Buffer
	if err := results.WriteDatasetCSV(&gotCSV, got); err != nil {
		t.Fatal(err)
	}
	if err := results.WriteDatasetCSV(&wantCSV, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotCSV.Bytes(), wantCSV.Bytes()) {
		t.Errorf("audited sharded dataset differs from single-process run:\n--- sharded ---\n%s--- clean ---\n%s", gotCSV.Bytes(), wantCSV.Bytes())
	}
}
