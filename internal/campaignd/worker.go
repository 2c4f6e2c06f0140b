package campaignd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"os"
	"sync"
	"time"

	"interferometry/internal/core"
	"interferometry/internal/experiments"
	"interferometry/internal/faultinject"
	"interferometry/internal/jobqueue/backoff"
	"interferometry/internal/obs"
	"interferometry/internal/toolchain"
)

// Worker is one remote execution process: it pulls leased layout tasks
// from a coordinator's /worker/* endpoints, executes them through its
// own core.LayoutRunner, and streams the observations back. Workers are
// stateless between tasks — every per-layout input re-derives from the
// spec the lease carries — so any number of them can join, leave or die
// mid-campaign without changing a byte of the finished dataset: the
// coordinator's lease reaping requeues whatever a dead worker held, and
// the re-execution derives identical results.
//
// Each task loop measures in lease groups: after one task arrives it
// leases whatever else the coordinator hands over at once, up to each
// campaign's share (see share) and core.AutoBatchLanes tasks in all, and
// every same-campaign part of the group goes through one
// core.LayoutRunner.Measure call, which shares one batched trace walk
// across it. A part of one layout replays on the scalar engine.
// Grouping changes throughput, never a byte of any result.
type Worker struct {
	// Coordinator is the coordinator's base URL, e.g.
	// "http://localhost:8347".
	Coordinator string
	// ID identifies this worker to the coordinator's health scoring:
	// rejected results count against it and a condemned ID's lease
	// requests are refused (403). Empty means "<hostname>-<pid>".
	ID string
	// HTTP is the transport; nil means http.DefaultClient.
	HTTP *http.Client
	// Parallel is the number of concurrent task loops (and the worker's
	// runner slot count). Zero or negative means 1.
	Parallel int
	// Wait bounds each lease long poll. Zero means the coordinator's
	// default.
	Wait time.Duration
	// Backoff spaces retries of coordinator requests (lease polls after
	// transport errors, completion reports). The jitter is seeded by
	// the worker's ID, so a fleet that loses its coordinator does not
	// thunder back in lockstep. The zero policy means {50ms, 2s, 0.5}.
	Backoff backoff.Policy
	// Faults optionally injects faults into the worker's seams, as the
	// sharded rows of the chaos soak (TestChaosSoak) do. Nil runs clean.
	Faults *faultinject.Injector
	// Tamper, when set, rewrites every outgoing observation after it is
	// attested; attestationKey is the runner's key, so a rewrite can
	// re-attest what it forged. The byzantine soak's lying workers set
	// it to answer wrong instead of dying. Nil reports honestly.
	Tamper func(wire core.ObsWire, attestationKey string) core.ObsWire
	// Obs observes the worker's campaigns; nil runs unobserved.
	Obs *obs.Observer

	idOnce sync.Once
	id     string
	// shared holds the programs and traces the worker's campaigns share.
	shared sharedWork
}

func (w *Worker) parallel() int {
	if w.Parallel <= 0 {
		return 1
	}
	return w.Parallel
}

func (w *Worker) http() *http.Client {
	if w.HTTP != nil {
		return w.HTTP
	}
	return http.DefaultClient
}

// workerID resolves the worker's identity once: the configured ID, or
// "<hostname>-<pid>" so every process is distinguishable by default.
func (w *Worker) workerID() string {
	w.idOnce.Do(func() {
		w.id = w.ID
		if w.id == "" {
			host, err := os.Hostname()
			if err != nil || host == "" {
				host = "worker"
			}
			w.id = fmt.Sprintf("%s-%d", host, os.Getpid())
		}
	})
	return w.id
}

func (w *Worker) backoff() backoff.Policy {
	if w.Backoff == (backoff.Policy{}) {
		return backoff.Policy{Base: 50 * time.Millisecond, Cap: 2 * time.Second, Jitter: 0.5}
	}
	return w.Backoff
}

// hashString folds a string into a backoff seed.
func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// Run pulls and executes tasks until the coordinator drains or ctx
// ends. Connection errors are retried with a short pause — a worker
// outliving a coordinator restart just resumes pulling.
func (w *Worker) Run(ctx context.Context) error {
	if w.Coordinator == "" {
		return errors.New("campaignd: worker needs a coordinator URL")
	}
	runners := &workerRunners{w: w}
	var wg sync.WaitGroup
	for slot := 0; slot < w.parallel(); slot++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			w.loop(ctx, runners, slot)
		}(slot)
	}
	wg.Wait()
	return nil
}

// loop is one task goroutine; slot doubles as the runner's measurement
// slot so concurrent tasks never share harness state.
func (w *Worker) loop(ctx context.Context, runners *workerRunners, slot int) {
	fails := 0
	for ctx.Err() == nil {
		lr, status, err := w.lease(ctx)
		switch {
		case err != nil:
			// Coordinator unreachable: back off with seeded jitter so a
			// fleet that lost its coordinator does not stampede back.
			fails++
			select {
			case <-ctx.Done():
			case <-time.After(w.backoff().Delay(fails, hashString(w.workerID()), uint64(slot))):
			}
			continue
		case status == http.StatusServiceUnavailable:
			return // draining: no more work will be leased
		case status == http.StatusForbidden:
			return // quarantined: this identity gets no more work
		case status == http.StatusNoContent:
			// Long poll elapsed with nothing eligible; poll again.
		default:
			w.executeGroup(ctx, runners, slot, w.gather(ctx, lr))
		}
		fails = 0
	}
}

// gather tops a freshly leased task up to a lease group (gatherGroup)
// with whatever the coordinator can hand over immediately — the extra
// leases use a minimal wait so an idle queue never delays the task in
// hand.
func (w *Worker) gather(ctx context.Context, first leaseResponse) []leaseResponse {
	return gatherGroup(first, leaseCampaignID, func(lr leaseResponse) int {
		return share(lr.Spec, lr.Scale, w.parallel())
	}, func() (leaseResponse, bool) {
		var lr leaseResponse
		status, _, err := w.post(ctx, "/worker/lease", leaseRequest{WaitMS: 1, Worker: w.workerID()}, &lr)
		return lr, err == nil && status == http.StatusOK
	})
}

// leaseCampaignID is the campaign a leased task belongs to.
func leaseCampaignID(lr leaseResponse) string { return lr.CampaignID }

// gatherGroup is the one rule that sizes a lease group, for the local
// loops and remote workers alike: starting from first, it adds the
// leases next yields until next has none, the last lease's campaign
// holds its share of the group, or the group holds core.AutoBatchLanes
// leases.
func gatherGroup[L any, K comparable](first L, campaign func(L) K, share func(L) int, next func() (L, bool)) []L {
	group := []L{first}
	parts := map[K]int{campaign(first): 1}
	for last := first; parts[campaign(last)] < share(last) && len(group) < core.AutoBatchLanes; {
		l, ok := next()
		if !ok {
			break
		}
		group = append(group, l)
		parts[campaign(l)]++
		last = l
	}
	return group
}

// share is how many of a campaign's tasks one lease group may hold: a
// loop's fair share of the tasks the campaign queues at once, the way
// core sizes an in-process worker's batch (core.AutoBatch), for a process
// running loops task loops. No process sees the rest of the fleet, so it
// counts at least two loops: a lone loop still leaves half of every
// campaign for whichever loop or worker polls next, and measures it
// alongside.
func share(spec JobSpec, scale experiments.Scale, loops int) int {
	return core.AutoBatch(spec.waveTasks(scale), max(loops, 2))
}

// splitByCampaign splits a lease group into its campaigns' parts, each
// in lease order, the parts in order of their first task.
func splitByCampaign[L any, K comparable](group []L, campaign func(L) K) [][]L {
	var parts [][]L
	index := make(map[K]int)
	for _, l := range group {
		k := campaign(l)
		i, ok := index[k]
		if !ok {
			i = len(parts)
			index[k] = i
			parts = append(parts, nil)
		}
		parts[i] = append(parts[i], l)
	}
	return parts
}

// every calls beat once per period, from one goroutine, until ctx ends
// or the returned stop is called; stop waits out a beat in flight. A
// non-positive period never beats. beat gets a context that ends with
// the ticker or one period after the beat began, so a beat stuck on one
// request gives up in time for the next.
func every(ctx context.Context, period time.Duration, beat func(context.Context)) (stop func()) {
	if period <= 0 {
		return func() {}
	}
	ctx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		ticker := time.NewTicker(period)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				bctx, cancel := context.WithTimeout(ctx, period)
				beat(bctx)
				cancel()
			}
		}
	}()
	return func() {
		cancel()
		<-done
	}
}

// lease long-polls the coordinator for one task.
func (w *Worker) lease(ctx context.Context) (leaseResponse, int, error) {
	req := leaseRequest{Worker: w.workerID()}
	if w.Wait > 0 {
		req.WaitMS = w.Wait.Milliseconds()
	}
	var lr leaseResponse
	status, _, err := w.post(ctx, "/worker/lease", req, &lr)
	return lr, status, err
}

// executeGroup runs a group of leased tasks, all heartbeated for the
// duration, one campaign at a time: each campaign's part of the group,
// in lease order, executes as one batch. Failures to execute become
// error completions (the coordinator owns retry policy); failures to
// report are abandoned — the lease expires and the task's next owner
// derives the identical result.
func (w *Worker) executeGroup(ctx context.Context, runners *workerRunners, slot int, group []leaseResponse) {
	defer w.heartbeat(ctx, group)()
	for _, part := range splitByCampaign(group, leaseCampaignID) {
		w.executeBatch(ctx, runners, slot, part)
	}
}

// executeBatch runs one campaign's part of a lease group through the
// runner's pipeline (core.LayoutRunner.Measure) with a single attempt —
// the coordinator owns retry policy and requeues a failed task — and
// completes each task as its outcome arrives: a failure costs only its
// own task. The part shares one trace walk; a part of one, or a
// declined walk, replays on the scalar engine, bit-identically.
func (w *Worker) executeBatch(ctx context.Context, runners *workerRunners, slot int, batch []leaseResponse) {
	runner, err := runners.get(batch[0].CampaignID, batch[0].Spec, batch[0].Scale)
	if err != nil {
		for _, lr := range batch {
			w.complete(ctx, completeRequest{LeaseID: lr.LeaseID, Error: err.Error()})
		}
		return
	}
	leases := batch[:0:0]
	units := make([]core.Unit, 0, len(batch))
	for _, lr := range batch {
		u := core.Unit{Layout: lr.Layout}
		if len(lr.Genome) > 0 {
			g, err := toolchain.DecodeGenome(lr.Genome)
			if err != nil {
				w.complete(ctx, completeRequest{LeaseID: lr.LeaseID, Error: fmt.Sprintf("decode genome: %v", err)})
				continue
			}
			u.Genome = &g
		}
		leases = append(leases, lr)
		units = append(units, u)
	}
	err = runner.Measure(slot, units, 1, func(k int, o core.Observation, err error) {
		if err != nil {
			w.complete(ctx, completeRequest{LeaseID: leases[k].LeaseID, Error: err.Error()})
			return
		}
		wire := w.stamp(o, runner)
		w.complete(ctx, completeRequest{LeaseID: leases[k].LeaseID, Observation: &wire})
	})
	if err != nil {
		for _, lr := range leases {
			w.complete(ctx, completeRequest{LeaseID: lr.LeaseID, Error: err.Error()})
		}
	}
}

// stamp attests an observation against the runner's toolchain identity
// and passes it through Tamper, when set.
func (w *Worker) stamp(o core.Observation, runner *core.LayoutRunner) core.ObsWire {
	wire := o.Wire()
	wire.Fingerprint = wire.Attest(runner.AttestationKey())
	if w.Tamper != nil {
		wire = w.Tamper(wire, runner.AttestationKey())
	}
	return wire
}

// complete reports one outcome, retrying transport failures and 429s
// under the worker's seeded backoff (honoring Retry-After, delta or
// HTTP-date, like the submit client). Terminal verdicts need no
// handling: a 410 (lease lost) means the result is discarded and the
// requeued task re-derives it elsewhere; a 422 (rejected) means the
// coordinator already released the task and retrying the same bytes
// cannot change its mind.
func (w *Worker) complete(ctx context.Context, req completeRequest) {
	seedA, seedB := hashString(w.workerID()), hashString(req.LeaseID)
	for attempt := 1; attempt <= 3; attempt++ {
		status, hdr, err := w.post(ctx, "/worker/complete", req, &ack{})
		if err == nil && status != http.StatusTooManyRequests {
			return
		}
		wait := w.backoff().Delay(attempt, seedA, seedB)
		if err == nil { // 429: the coordinator names its own delay
			wait = retryAfter(hdr.Get("Retry-After"), time.Now())
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(wait):
		}
	}
}

// heartbeat keeps a group's leases alive at a third of the
// coordinator's lease duration while the group runs, one heartbeat
// request per live lease per beat. A lost lease (410) is not beaten
// again; its completion discovers the loss. A request stuck past the
// beat's period (every) fails with the rest of that beat's requests,
// their leases kept for the next beat, so one stuck request costs the
// leases after it one beat, not their lease (three beats).
func (w *Worker) heartbeat(ctx context.Context, group []leaseResponse) (stop func()) {
	live := append([]leaseResponse(nil), group...)
	return every(ctx, time.Duration(group[0].LeaseMS)*time.Millisecond/3, func(ctx context.Context) {
		kept := live[:0]
		for _, lr := range live {
			status, _, err := w.post(ctx, "/worker/heartbeat", leaseRef{LeaseID: lr.LeaseID}, nil)
			if err != nil || status == http.StatusNoContent {
				kept = append(kept, lr)
			}
		}
		live = kept
	})
}

// post sends one protocol request and decodes a JSON response into out
// (when out is non-nil and the response has a body). The response
// headers come back so retry loops can honor Retry-After.
func (w *Worker) post(ctx context.Context, path string, body, out any) (int, http.Header, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.Coordinator+path, bytes.NewReader(data))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.http().Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, resp.Header, fmt.Errorf("campaignd: worker: bad %s response: %w", path, err)
		}
	}
	return resp.StatusCode, resp.Header, nil
}

// workerRunners caches one LayoutRunner per campaign. A runner holds the
// campaign's compile and its per-slot harnesses (the program and trace
// are the worker's shared ones), so reusing it across that campaign's
// tasks is what makes a worker's marginal task cost just
// Reorder+Link+measure. A small bound is plenty: a worker rarely
// interleaves more than a couple of campaigns, and an evicted runner is
// just rebuilt.
type workerRunners struct {
	w *Worker

	mu      sync.Mutex
	runners map[string]*core.LayoutRunner
	order   []string // FIFO eviction order
}

// maxWorkerRunners bounds the cached runners per worker process.
const maxWorkerRunners = 4

func (rc *workerRunners) get(id string, spec JobSpec, scale experiments.Scale) (*core.LayoutRunner, error) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if r, ok := rc.runners[id]; ok {
		return r, nil
	}
	cfg, err := rc.w.shared.campaignConfig(spec, scale)
	if err != nil {
		return nil, err
	}
	cfg.Faults = rc.w.Faults
	cfg.Obs = rc.w.Obs
	r, err := rc.w.shared.runner(cfg, rc.w.parallel())
	if err != nil {
		return nil, err
	}
	if rc.runners == nil {
		rc.runners = make(map[string]*core.LayoutRunner)
	}
	for len(rc.order) >= maxWorkerRunners {
		delete(rc.runners, rc.order[0])
		rc.order = rc.order[1:]
	}
	rc.runners[id] = r
	rc.order = append(rc.order, id)
	return r, nil
}
