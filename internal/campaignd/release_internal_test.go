package campaignd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"interferometry/internal/core"
)

// releaseFixture is a coordinator that runs no tasks itself and audits
// every completion, plus an honest executor for its campaigns.
type releaseFixture struct {
	t   *testing.T
	srv *Server
	hs  *httptest.Server
}

func newReleaseFixture(t *testing.T) *releaseFixture {
	t.Helper()
	srv, err := New(Config{NoLocalWorkers: true, AuditRate: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		srv.Drain()
		hs.Close()
	})
	return &releaseFixture{t: t, srv: srv, hs: hs}
}

func (f *releaseFixture) post(path string, body any) (int, []byte) {
	f.t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		f.t.Fatal(err)
	}
	resp, err := f.hs.Client().Post(f.hs.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		f.t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes()
}

func (f *releaseFixture) lease(worker string) leaseResponse {
	f.t.Helper()
	status, body := f.post("/worker/lease", leaseRequest{Worker: worker, WaitMS: 2000})
	var lr leaseResponse
	if status != http.StatusOK {
		f.t.Fatalf("lease status %d (%s)", status, body)
	}
	if err := json.Unmarshal(body, &lr); err != nil {
		f.t.Fatal(err)
	}
	return lr
}

// submit admits a spec and returns its campaign with an honest
// executor: what a real worker derives from the leased spec.
func (f *releaseFixture) submit(spec JobSpec) (*campaign, func(layout int) *core.ObsWire) {
	f.t.Helper()
	st, err := f.srv.Submit(spec)
	if err != nil {
		f.t.Fatal(err)
	}
	c, ok := f.srv.lookup(st.ID)
	if !ok {
		f.t.Fatalf("campaign %s not found", st.ID)
	}
	var sw sharedWork // a worker process's own
	cfg, err := sw.campaignConfig(spec, f.srv.cfg.scale())
	if err != nil {
		f.t.Fatal(err)
	}
	runner, err := sw.runner(cfg, 1)
	if err != nil {
		f.t.Fatal(err)
	}
	return c, func(layout int) *core.ObsWire {
		var w core.ObsWire
		if err := runner.Measure(0, []core.Unit{{Layout: layout}}, 1, func(_ int, o core.Observation, err error) {
			if err != nil {
				f.t.Fatal(err)
			}
			w = o.Wire()
		}); err != nil {
			f.t.Fatal(err)
		}
		w.Fingerprint = w.Attest(runner.AttestationKey())
		return &w
	}
}

// TestClosedCampaignReleasesRunner: a finished campaign drops its
// engines and its dataset's trace but keeps serving its result, its
// seed derivation and its attestation key. A completion arriving after
// the campaign closed is acknowledged and discarded, and an audit of a
// closed campaign fails cleanly with ErrRunnerReleased — no nil
// dereference, and the worker is not blamed.
func TestClosedCampaignReleasesRunner(t *testing.T) {
	f := newReleaseFixture(t)

	// A campaign that finishes.
	spec := JobSpec{Benchmark: "429.mcf", Layouts: 2, Budget: 60_000}
	c, execute := f.submit(spec)
	key, seed := c.runner.AttestationKey(), c.runner.Seed(core.Unit{Layout: 1})
	for i := 0; i < spec.Layouts; i++ {
		lr := f.lease("honest")
		if status, body := f.post("/worker/complete", completeRequest{LeaseID: lr.LeaseID, Observation: execute(lr.Layout)}); status != http.StatusOK {
			t.Fatalf("completion status %d (%s)", status, body)
		}
	}
	<-c.finished
	ds, err := c.dataset()
	if err != nil {
		t.Fatal(err)
	}
	if ds.Trace != nil || len(ds.Obs) != spec.Layouts {
		t.Errorf("done dataset keeps its trace (%v) or lost rows (%d)", ds.Trace != nil, len(ds.Obs))
	}
	if err := c.runner.Measure(0, []core.Unit{{Layout: 0}}, 1, func(int, core.Observation, error) {
		t.Error("a done campaign's runner measured a unit")
	}); !errors.Is(err, core.ErrRunnerReleased) {
		t.Errorf("Measure on a done campaign: err %v, want ErrRunnerReleased", err)
	}
	if c.runner.AttestationKey() != key || c.runner.Seed(core.Unit{Layout: 1}) != seed {
		t.Error("release changed the attestation key or the seed derivation")
	}
	if _, err := f.srv.audit(c, task{camp: c, layout: 0}, execute(0)); !errors.Is(err, core.ErrRunnerReleased) {
		t.Errorf("audit of a done campaign: err %v, want ErrRunnerReleased", err)
	}
	resp, err := f.hs.Client().Get(f.hs.URL + "/campaigns/" + c.id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("result of a released campaign: status %d", resp.StatusCode)
	}

	// A campaign that closes while a worker still holds its leases.
	spec = JobSpec{Benchmark: "429.mcf", Layouts: 2, Budget: 60_000, BaseSeed: 99}
	c, execute = f.submit(spec)
	held := []leaseResponse{f.lease("late"), f.lease("late")}
	c.abort(errors.New("operator cancel"))
	for _, lr := range held {
		status, body := f.post("/worker/complete", completeRequest{LeaseID: lr.LeaseID, Observation: execute(lr.Layout)})
		if status != http.StatusOK {
			t.Errorf("late completion status %d (%s), want 200", status, body)
		}
	}
	if st := c.snapshot(); st.State != StateFailed || st.Completed != 0 {
		t.Errorf("late completions changed the closed campaign: %+v", st)
	}
	if h := f.srv.WorkerHealth()["late"]; h.Quarantined || h.Rejected > 0 {
		t.Errorf("late worker blamed for a closed campaign: %+v", h)
	}
}

// TestReleaseRacesSeamCalls closes a campaign while a task loop's slot
// and the audit slot hammer its runner's Measure. Every call completes,
// stops on the campaign's canceled context (its units report the
// close), or fails with ErrRunnerReleased; run under -race this pins
// that Release and in-flight walks share no unsynchronized state. The
// server has one local slot but is never started, so the test itself
// plays that slot's task loop (a pure coordinator has only the audit
// slot).
func TestReleaseRacesSeamCalls(t *testing.T) {
	srv, err := New(Config{Workers: 1, AuditRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Drain)
	f := &releaseFixture{t: t, srv: srv}
	c, execute := f.submit(JobSpec{Benchmark: "429.mcf", Layouts: 4, Budget: 60_000})
	got := execute(1)
	closed := errors.New("closed mid-flight")

	// Each loop signals running after its first call, so the close lands
	// while both are calling.
	var wg, running sync.WaitGroup
	errs := make(chan error, 2)
	wg.Add(2)
	running.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			units := []core.Unit{{Layout: i % 4}, {Layout: (i + 1) % 4}}
			err := c.runner.Measure(0, units, 1, func(_ int, _ core.Observation, uerr error) {
				if uerr != nil && !errors.Is(uerr, closed) {
					t.Errorf("unit failed, not stopped by the close: %v", uerr)
				}
			})
			if i == 0 {
				running.Done()
			}
			if err != nil {
				errs <- err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			_, err := f.srv.audit(c, task{camp: c, layout: 1}, got)
			if i == 0 {
				running.Done()
			}
			if err != nil {
				errs <- err
				return
			}
		}
	}()
	running.Wait()
	c.abort(closed)
	wg.Wait()
	close(errs)
	for err := range errs {
		if !errors.Is(err, core.ErrRunnerReleased) && !errors.Is(err, closed) {
			t.Errorf("seam call racing the close: err %v, want the close or ErrRunnerReleased", err)
		}
	}
}

// TestClosedCampaignGroupSettlesUncharged: a local loop leases a group,
// and the campaign closes before the group runs. Measure finds the
// runner released, and settle drops the group: no attempt is charged,
// nothing is recorded, no lease stays out. A later campaign then runs on
// the local loops to the end. Layout and search tasks share the settle
// path; both are driven.
func TestClosedCampaignGroupSettlesUncharged(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec JobSpec
	}{
		{"layout", JobSpec{Benchmark: "429.mcf", Layouts: 4, Budget: 60_000}},
		{"search", JobSpec{Benchmark: "429.mcf", Budget: 60_000, Kind: KindSearch, Search: &SearchSpec{Population: 4, Generations: 1}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := New(Config{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(srv.Drain)

			// Before Start the test is the only task loop.
			st, err := srv.Submit(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			c, ok := srv.lookup(st.ID)
			if !ok {
				t.Fatalf("campaign %s not found", st.ID)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			first, err := srv.pop(ctx)
			if err != nil {
				t.Fatal(err)
			}
			group := srv.gather(first)
			if len(group) != 2 {
				t.Fatalf("leased a group of %d, want a lone loop's share of 2", len(group))
			}
			c.abort(errors.New("operator cancel"))
			srv.executeGroup(0, group)

			c.mu.Lock()
			charged := len(c.attempts)
			c.mu.Unlock()
			if charged != 0 {
				t.Errorf("closed campaign's group charged attempts: %v", c.attempts)
			}
			if got := c.snapshot(); got.State != StateFailed || got.Completed != 0 || got.Failed != 0 {
				t.Errorf("closed campaign's group recorded results: %+v", got)
			}
			if n := srv.queue.Leased(); n != 0 {
				t.Errorf("%d leases still out after the group settled", n)
			}

			// A later campaign runs on the local loops to the end.
			srv.Start()
			later := tc.spec
			later.BaseSeed = 99
			st, err = srv.Submit(later)
			if err != nil {
				t.Fatal(err)
			}
			if c, ok = srv.lookup(st.ID); !ok {
				t.Fatalf("campaign %s not found", st.ID)
			}
			select {
			case <-c.finished:
			case <-time.After(10 * time.Second):
				t.Fatal("later campaign stuck")
			}
			if got := c.snapshot(); got.State != StateDone {
				t.Fatalf("later campaign %s (%s), want done", got.State, got.Error)
			}
		})
	}
}
