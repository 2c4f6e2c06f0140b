// Package campaignd is the long-running campaign job service: it accepts
// campaign specs over HTTP, fans each one out into per-layout tasks on a
// bounded priority queue, and measures the tasks in lease groups through
// core.LayoutRunner.Measure — on the coordinator's own task loops or on
// remote workers — under leases and seeded-backoff retries.
//
// The service adds scheduling, not meaning: every measurement is a pure
// function of the spec's seed tuple, so whatever the queue, the lease
// groups or the fault injector do to the schedule — retries, lease expiries,
// duplicate executions, drains and resumes — the finished dataset is
// byte-identical to a clean single-process core.RunCampaign of the same
// spec. The chaos soak (TestChaosSoak, one row per fault story) holds
// the live service to exactly that.
package campaignd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"interferometry/internal/core"
	"interferometry/internal/experiments"
	"interferometry/internal/faultinject"
	"interferometry/internal/jobqueue"
	"interferometry/internal/jobqueue/backoff"
	"interferometry/internal/jobqueue/wal"
	"interferometry/internal/obs"
	"interferometry/internal/toolchain"
)

// Submission errors.
var (
	// ErrDraining rejects submissions once a drain has begun (503).
	ErrDraining = errors.New("campaignd: draining, not accepting campaigns")
	// ErrOverloaded rejects submissions the queue cannot admit (429).
	ErrOverloaded = errors.New("campaignd: queue full")
	// ErrTenantOverQuota rejects submissions that would push one tenant
	// past its quota while the service still has room for others (429).
	ErrTenantOverQuota = errors.New("campaignd: tenant over quota")
)

// errKilled is the cancel cause of a hard stop (Kill).
var errKilled = errors.New("campaignd: killed")

// Config parameterizes a Server.
type Config struct {
	// Scale supplies per-spec defaults (layouts, budget, fidelity).
	// The zero Scale means experiments.Small.
	Scale experiments.Scale
	// Workers is the number of local task loops. Zero or negative means 1.
	Workers int
	// NoLocalWorkers runs the server as a pure coordinator: Start
	// launches no local task loops, and every layout is executed by
	// remote campaignd worker processes pulling tasks from the
	// /worker/* endpoints (DESIGN.md §10). Workers is then unused, and
	// each campaign's runner holds only the audit slot.
	NoLocalWorkers bool
	// QueueCapacity bounds tasks in the system (queued plus leased);
	// admission control sheds whole campaigns beyond it. Zero means 256.
	QueueCapacity int
	// Lease is how long a task stays owned without a heartbeat before it
	// is reaped and requeued. Zero means 30s.
	Lease time.Duration
	// HeartbeatEvery is the local loops' heartbeat interval. Zero means
	// a third of the lease; negative disables heartbeats (tests use this
	// to force lease expiry under a live loop).
	HeartbeatEvery time.Duration
	// MaxAttempts bounds executions per layout. Zero means 3.
	MaxAttempts int
	// Backoff spaces retries of a failed task. The jitter is seeded by
	// (campaign seed, layout), so a replayed campaign backs off by
	// identical amounts. The zero policy retries immediately.
	Backoff backoff.Policy
	// CheckpointRoot, when set, checkpoints every campaign under
	// <root>/<campaign-id>/ and resumes from an existing checkpoint on
	// resubmission. Empty disables checkpointing.
	CheckpointRoot string
	// WALDir, when set, makes admissions durable: every acknowledged
	// submission, settled search generation and finalization is fsynced to
	// <dir>/campaignd.wal before the client sees it, and a restarted
	// server replays the log, reconciles it with the checkpoint
	// directories and resumes unfinished campaigns automatically. Empty
	// disables the WAL (a crash then loses in-flight campaigns, though
	// checkpoints still make resubmission a resume).
	WALDir string
	// MaxQueuedPerTenant bounds each tenant's tasks in the system
	// (queued plus leased); a submission that would exceed it is shed
	// with ErrTenantOverQuota (429). Zero means unlimited.
	MaxQueuedPerTenant int
	// MaxCampaignsPerTenant bounds how many of a tenant's campaigns may
	// be running at once; beyond it submissions shed with
	// ErrTenantOverQuota (429). Zero means unlimited.
	MaxCampaignsPerTenant int
	// FairQuantum is the deficit-round-robin quantum: how many tasks one
	// tenant may dispatch per scheduling turn before the queue moves to
	// the next tenant in its priority class. Zero means 1.
	FairQuantum int
	// AuditRate is the fraction of verified remote results the
	// coordinator re-executes through its own runner and compares byte
	// for byte (DESIGN.md §14). The sampler is seeded per (campaign,
	// task, attempt), so which completions get audited is deterministic.
	// Zero disables auditing; 1 audits everything. A mismatch condemns
	// the reporting worker.
	AuditRate float64
	// QuarantineThreshold condemns a worker once this many of its
	// recent results (a sliding window of 32) were rejected at
	// verification. Zero means 3. Audit failures condemn immediately.
	QuarantineThreshold int
	// Faults optionally injects faults into every campaign's build and
	// measure seams, as the chaos soak's local rows (TestChaosSoak) do.
	// Nil runs clean.
	Faults *faultinject.Injector
	// Obs observes the service; nil runs unobserved.
	Obs *obs.Observer
}

func (c Config) scale() experiments.Scale {
	if c.Scale.Name == "" {
		return experiments.Small
	}
	return c.Scale
}

func (c Config) workers() int {
	if c.Workers <= 0 {
		return 1
	}
	return c.Workers
}

// slotLayout is how every campaign's runner slots are numbered: one per
// local task loop Start runs, then one reserved for the coordinator's
// spot audits. Start, admission and the audit path all read the
// server's one layout, so they cannot disagree.
type slotLayout struct {
	local int // task loops Start runs; slots [0, local)
}

// slotLayout computes the layout: a pure coordinator runs no loops.
func (c Config) slotLayout() slotLayout {
	if c.NoLocalWorkers {
		return slotLayout{}
	}
	return slotLayout{local: c.workers()}
}

// audit is the index of the audit slot, the last one.
func (l slotLayout) audit() int { return l.local }

// runners is the slot count of a campaign's runner.
func (l slotLayout) runners() int { return l.local + 1 }

func (c Config) queueCapacity() int {
	if c.QueueCapacity <= 0 {
		return 256
	}
	return c.QueueCapacity
}

func (c Config) lease() time.Duration {
	if c.Lease <= 0 {
		return 30 * time.Second
	}
	return c.Lease
}

func (c Config) heartbeatEvery() time.Duration {
	if c.HeartbeatEvery < 0 {
		return 0 // disabled
	}
	if c.HeartbeatEvery == 0 {
		return c.lease() / 3
	}
	return c.HeartbeatEvery
}

func (c Config) maxAttempts() int {
	if c.MaxAttempts <= 0 {
		return 3
	}
	return c.MaxAttempts
}

func (c Config) quarantineThreshold() int {
	if c.QuarantineThreshold <= 0 {
		return 3
	}
	return c.QuarantineThreshold
}

// task is one queue entry: a single layout of one campaign, or — when
// genome is set — one individual of a search campaign's generation
// (layout is then the index within the generation).
type task struct {
	camp   *campaign
	layout int
	gen    int
	genome *toolchain.Genome
}

// unit is the runner unit the task measures.
func (t task) unit() core.Unit { return core.Unit{Layout: t.layout, Genome: t.genome} }

// Server is the campaign job service.
type Server struct {
	cfg       Config
	queue     *jobqueue.Queue[task]
	remote    *jobqueue.Registry[task]
	wal       *wal.Log
	shed      *obs.Counter
	writeErrs *obs.Counter
	walErrs   *obs.Counter

	// Trust & verification instruments (DESIGN.md §14).
	attRejects *obs.Counter
	audits     *obs.Counter
	auditFails *obs.Counter
	auditErrs  *obs.Counter
	condemned  *obs.Counter
	refusals   *obs.Counter
	quarGauge  *obs.Gauge
	// auditMu serializes spot-audit re-executions: every campaign
	// reserves exactly one runner slot for the coordinator's audits
	// (slots.audit), so they run one at a time.
	auditMu sync.Mutex

	// slots numbers every campaign's runner slots.
	slots slotLayout
	// shared holds the programs and traces the server's campaigns share.
	shared sharedWork

	baseCtx context.Context
	stop    context.CancelCauseFunc
	wg      sync.WaitGroup
	// driverWG tracks search campaign drivers, which outlive individual
	// tasks: a drain seals the queue and waits for them so an in-flight
	// generation settles instead of being dropped mid-barrier.
	driverWG sync.WaitGroup

	mu        sync.Mutex
	drivers   int // live search drivers (guards the Seal-on-drain path)
	campaigns map[string]*campaign
	// admitting reserves campaign IDs whose admission is in flight (the
	// expensive build happens outside the lock): a concurrent duplicate
	// submission waits on the channel and then returns the winner's
	// status instead of racing a second checkpoint resume.
	admitting map[string]chan struct{}
	draining  bool

	drainOnce sync.Once
	done      chan struct{}
}

// WALFile is the write-ahead log's name inside Config.WALDir.
const WALFile = "campaignd.wal"

// New builds a server; Start launches its task loops. With Config.WALDir
// set, New replays the log and re-admits every campaign that was
// acknowledged but not finished — their tasks are queued (resuming from
// checkpoints where those exist) before the first request is served.
func New(cfg Config) (*Server, error) {
	ctx, stop := context.WithCancelCause(context.Background())
	s := &Server{
		cfg: cfg,
		queue: jobqueue.New[task](jobqueue.Config{
			Capacity:      cfg.queueCapacity(),
			MaxPerTenant:  cfg.MaxQueuedPerTenant,
			Quantum:       cfg.FairQuantum,
			Lease:         cfg.lease(),
			Metrics:       jobqueue.ObserveMetrics(cfg.Obs, "campaignd"),
			TenantMetrics: tenantMetricsHook(cfg.Obs),
		}),
		remote:     jobqueue.NewRegistry[task](),
		shed:       obsCounter(cfg.Obs, "campaignd_shed_total", "submissions rejected by admission control (429)"),
		writeErrs:  obsCounter(cfg.Obs, "campaignd_http_write_errors_total", "HTTP response bodies that failed to encode or send"),
		walErrs:    obsCounter(cfg.Obs, "campaignd_wal_append_errors_total", "WAL appends that failed (state stays replayable from the last good record)"),
		attRejects: obsCounter(cfg.Obs, "campaignd_attestation_rejects_total", "remote results refused at verification (422): bad fingerprint or wrong seed"),
		audits:     obsCounter(cfg.Obs, "campaignd_audit_total", "remote results spot-audited by coordinator re-execution"),
		auditFails: obsCounter(cfg.Obs, "campaignd_audit_failures_total", "spot audits whose re-execution disowned the reported bytes"),
		auditErrs:  obsCounter(cfg.Obs, "campaignd_audit_errors_total", "spot audits the coordinator could not complete (result accepted unaudited)"),
		condemned:  obsCounter(cfg.Obs, "campaignd_quarantine_condemned_total", "workers condemned to quarantine"),
		refusals:   obsCounter(cfg.Obs, "campaignd_quarantine_lease_refusals_total", "lease requests refused because the worker is quarantined (403)"),
		quarGauge:  obsGauge(cfg.Obs, "campaignd_quarantine_workers", "workers currently quarantined"),
		slots:      cfg.slotLayout(),
		baseCtx:    ctx,
		stop:       stop,
		campaigns:  make(map[string]*campaign),
		admitting:  make(map[string]chan struct{}),
		done:       make(chan struct{}),
	}
	s.remote.SetPolicy(jobqueue.RegistryPolicy{QuarantineAfter: cfg.quarantineThreshold()})
	if cfg.WALDir != "" {
		if err := os.MkdirAll(cfg.WALDir, 0o755); err != nil {
			return nil, fmt.Errorf("campaignd: wal dir: %w", err)
		}
		log, states, err := wal.Open(wal.Config{
			Path: filepath.Join(cfg.WALDir, WALFile),
			Obs:  cfg.Obs,
		})
		if err != nil {
			return nil, fmt.Errorf("campaignd: %w", err)
		}
		s.wal = log
		for _, st := range states {
			if !st.Live() {
				continue // finalized; dropped at the next compaction
			}
			if err := s.resume(st); err != nil {
				s.Kill() // tears down any drivers already started
				return nil, fmt.Errorf("campaignd: resume %s: %w", st.ID, err)
			}
		}
	}
	return s, nil
}

// tenantMetricsHook resolves per-tenant queue gauges as labeled members
// of the campaignd_tenant_* families.
func tenantMetricsHook(o *obs.Observer) func(string) *jobqueue.TenantMetrics {
	if o == nil {
		return nil
	}
	return func(tenant string) *jobqueue.TenantMetrics {
		return &jobqueue.TenantMetrics{
			Depth:  o.Gauge(fmt.Sprintf("campaignd_tenant_queue_depth{tenant=%q}", tenant), "queued tasks per tenant"),
			Leased: o.Gauge(fmt.Sprintf("campaignd_tenant_leases_active{tenant=%q}", tenant), "leased tasks per tenant"),
		}
	}
}

// shedTenant counts one shed submission against a tenant's labeled
// counter (and the global one).
func (s *Server) shedTenant(tenant string) {
	s.shed.Inc()
	if o := s.cfg.Obs; o != nil {
		o.Counter(fmt.Sprintf("campaignd_tenant_shed_total{tenant=%q}", tenant),
			"submissions rejected by admission control per tenant (429)").Inc()
	}
}

// resume re-admits one live WAL campaign at startup. The submit record
// is already in the log, so the admission is not re-journaled; gen and
// final records append as the resumed work progresses.
func (s *Server) resume(st *wal.CampaignState) error {
	var spec JobSpec
	if err := json.Unmarshal(st.Spec, &spec); err != nil {
		return fmt.Errorf("bad spec in WAL: %w", err)
	}
	status, err := s.admit(spec, false)
	if err != nil {
		return err
	}
	if spec.IsSearch() && s.cfg.CheckpointRoot != "" {
		if c, ok := s.lookup(status.ID); ok {
			if err := verifyResumedSearch(c, st.Gens); err != nil {
				return err
			}
		}
	}
	return nil
}

func obsCounter(o *obs.Observer, name, help string) *obs.Counter {
	if o == nil {
		return nil
	}
	return o.Counter(name, help)
}

func obsGauge(o *obs.Observer, name, help string) *obs.Gauge {
	if o == nil {
		return nil
	}
	return o.Gauge(name, help)
}

// WorkerHealth snapshots every remote worker's health record:
// accepted/rejected/audit-failed counters, the sliding-window score and
// the quarantine bit. Workers that never identified themselves are
// absent.
func (s *Server) WorkerHealth() map[string]jobqueue.WorkerHealth {
	return s.remote.Workers()
}

// Start launches the local task loops (a no-op for a pure coordinator).
func (s *Server) Start() {
	for w := 0; w < s.slots.local; w++ {
		s.wg.Add(1)
		go func(slot int) {
			defer s.wg.Done()
			s.loop(slot)
		}(w)
	}
}

// Submit admits one campaign: validates the spec, prepares (or resumes)
// its runner and checkpoint, journals the admission, and pushes every
// pending layout task as one atomic batch. A spec identical to a live
// or finished campaign returns that campaign instead of duplicating
// work. ErrOverloaded and ErrTenantOverQuota mean the queue cannot hold
// the fan-out now — retry later (429 + Retry-After). A first wave (the
// layouts, or a search's population) larger than the queue capacity or
// the tenant's quota can never be held and is refused outright, an error
// wrapping jobqueue.ErrTooLarge (400).
func (s *Server) Submit(spec JobSpec) (Status, error) {
	return s.admit(spec, true)
}

// admit is the single admission path; record distinguishes a fresh
// submission (journaled, quota-checked) from a startup resume of a
// campaign the WAL already holds.
func (s *Server) admit(spec JobSpec, record bool) (Status, error) {
	if err := spec.validate(); err != nil {
		return Status{}, err
	}
	id := spec.ID(s.cfg.scale())

	s.mu.Lock()
	for {
		if s.draining {
			s.mu.Unlock()
			return Status{}, ErrDraining
		}
		if c, ok := s.campaigns[id]; ok {
			// Live (or draining, or finished) campaign with this exact
			// identity: return its status — never race a duplicate
			// checkpoint resume against it.
			s.mu.Unlock()
			return c.snapshot(), nil
		}
		ch, ok := s.admitting[id]
		if !ok {
			break
		}
		// Another submission of this spec is mid-admission; wait for it
		// and take its result from the campaigns map.
		s.mu.Unlock()
		<-ch
		s.mu.Lock()
	}
	if record {
		// A first wave the queue can never hold would be shed on every
		// retry: refuse it as a bad request before building anything.
		if err := s.queue.Admissible(spec.Tenant, spec.waveTasks(s.cfg.scale())); err != nil {
			s.mu.Unlock()
			return Status{}, fmt.Errorf("campaignd: campaign too large for this service: %w", err)
		}
	}
	if max := s.cfg.MaxCampaignsPerTenant; record && max > 0 && s.runningCampaignsLocked(spec.Tenant) >= max {
		s.mu.Unlock()
		s.shedTenant(spec.Tenant)
		return Status{}, ErrTenantOverQuota
	}
	ch := make(chan struct{})
	s.admitting[id] = ch
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.admitting, id)
		s.mu.Unlock()
		close(ch)
	}()

	// Build the campaign outside the lock: the compile (and, for a new
	// benchmark and budget, program generation and trace interpretation)
	// is real work. The admitting reservation keeps duplicates out, so
	// this build is the only one for this ID.
	c, pending, err := s.newCampaign(spec)
	if err != nil {
		return Status{}, err
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		c.abort(ErrDraining)
		return Status{}, ErrDraining
	}
	s.campaigns[id] = c
	s.mu.Unlock()

	// Write-ahead: the admission is durable before any task runs and
	// before the client sees its 202. A crash after this point resumes
	// the campaign; a crash before it leaves nothing acknowledged.
	if record && s.wal != nil {
		specJSON, jerr := json.Marshal(spec)
		if jerr == nil {
			jerr = s.wal.Submit(id, spec.Tenant, spec.Priority, specJSON)
		}
		if jerr != nil {
			s.mu.Lock()
			delete(s.campaigns, id)
			s.mu.Unlock()
			c.abort(jerr)
			return Status{}, fmt.Errorf("campaignd: journal admission: %w", jerr)
		}
	}
	s.wireJournal(c)

	// A campaign fully restored from its checkpoint finalized inside
	// newCampaign, before the journal hooks existed: record the final
	// now so the WAL converges with what the client will see.
	if st := c.snapshot(); st.State != StateRunning {
		s.walFinal(id, st.State)
		return st, nil
	}

	if c.search != nil {
		// Search fan-out: push the first pending generation atomically
		// and hand the rest of the trajectory to the campaign's driver.
		if err := s.admitSearch(c); err != nil {
			s.mu.Lock()
			delete(s.campaigns, id)
			s.mu.Unlock()
			c.abort(err)
			switch {
			case errors.Is(err, jobqueue.ErrTenantQuota):
				s.shedTenant(spec.Tenant)
				return Status{}, ErrTenantOverQuota
			case errors.Is(err, jobqueue.ErrFull):
				s.shedTenant(spec.Tenant)
				return Status{}, ErrOverloaded
			case errors.Is(err, jobqueue.ErrClosed):
				return Status{}, ErrDraining
			}
			return Status{}, err
		}
		return c.snapshot(), nil
	}

	tasks := make([]task, len(pending))
	for n, i := range pending {
		tasks[n] = task{camp: c, layout: i}
	}
	if err := s.queue.PushBatchTenant(spec.Tenant, spec.Priority, tasks); err != nil {
		s.mu.Lock()
		delete(s.campaigns, id)
		s.mu.Unlock()
		c.abort(err) // journals the final, voiding the submit record
		switch {
		case errors.Is(err, jobqueue.ErrTenantQuota):
			s.shedTenant(spec.Tenant)
			return Status{}, ErrTenantOverQuota
		case errors.Is(err, jobqueue.ErrFull):
			s.shedTenant(spec.Tenant)
			return Status{}, ErrOverloaded
		case errors.Is(err, jobqueue.ErrClosed):
			return Status{}, ErrDraining
		}
		return Status{}, err
	}
	return c.snapshot(), nil
}

// runningCampaignsLocked counts a tenant's campaigns still running.
// Callers hold s.mu; campaign locks nest inside it.
func (s *Server) runningCampaignsLocked(tenant string) int {
	n := 0
	for _, c := range s.campaigns {
		if c.spec.Tenant != tenant {
			continue
		}
		c.mu.Lock()
		if c.state == StateRunning {
			n++
		}
		c.mu.Unlock()
	}
	return n
}

// wireJournal points the campaign's terminal-state hook at the WAL.
// Append failures are counted, not fatal: the log stays replayable from
// its last good record, and determinism makes re-running lost work
// free.
func (s *Server) wireJournal(c *campaign) {
	if s.wal == nil {
		return
	}
	id := c.id
	c.onFinal = func(state string) { s.walFinal(id, state) }
}

// walFinal journals a campaign's terminal state (nil-safe).
func (s *Server) walFinal(id, state string) {
	if s.wal == nil {
		return
	}
	if err := s.wal.Final(id, state); err != nil {
		s.walErrs.Inc()
	}
}

// RetryAfter estimates when a shed submission is worth retrying: one
// lease duration is when currently-leased work must have completed or
// been reaped.
func (s *Server) RetryAfter() time.Duration { return s.cfg.lease() }

// lookup returns a campaign by ID.
func (s *Server) lookup(id string) (*campaign, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.campaigns[id]
	return c, ok
}

// Drain performs the graceful shutdown sequence: stop admission, drop
// queued tasks (the checkpoint has everything completed; a resubmission
// resumes the rest), let the local loops finish the groups they hold,
// flush every checkpoint, then release Done. Idempotent and safe from
// any goroutine, including a signal handler's.
func (s *Server) Drain() {
	s.drainOnce.Do(func() {
		s.mu.Lock()
		s.draining = true
		sealFirst := s.drivers > 0
		s.mu.Unlock()

		if sealFirst {
			// Search campaigns have a generation in flight: Close now
			// would drop its queued siblings mid-barrier. Seal instead —
			// admission stops, dispatch continues until the system is
			// empty — so every driver settles (and checkpoints) its
			// in-flight generation, refuses the next one, and exits. The
			// grace is bounded: if nothing is executing the sealed tasks
			// (a pure coordinator whose remote workers died), fall
			// through to Close, which drops them and interrupts the
			// drivers — the generation checkpoint resumes the rest.
			s.queue.Seal()
			settled := make(chan struct{})
			go func() {
				s.driverWG.Wait()
				close(settled)
			}()
			select {
			case <-settled:
			case <-time.After(2 * s.cfg.lease()):
			}
		}
		s.queue.Close() // Pops return ErrClosed; leased tasks stay valid
		s.wg.Wait()     // local loops finish their groups and exit
		s.driverWG.Wait()

		s.mu.Lock()
		camps := make([]*campaign, 0, len(s.campaigns))
		for _, c := range s.campaigns {
			camps = append(camps, c)
		}
		s.mu.Unlock()
		for _, c := range camps {
			c.interrupt() // no-op on finished campaigns; flushes the rest
		}
		if s.wal != nil {
			// Interrupted campaigns stay live in the log (a restart
			// resumes them); compaction drops the finalized ones.
			if err := s.wal.Compact(); err != nil {
				s.walErrs.Inc()
			}
			s.wal.Close()
		}
		s.stop(ErrDraining)
		close(s.done)
	})
}

// Kill hard-stops the coordinator: no checkpoint-flushing interrupt
// pass, no WAL finalization, no graceful anything — the in-process
// analog of kill -9, which the chaos soak's kill rows (TestChaosSoak)
// use to prove a restart on the same WAL dir resumes to byte-identical
// results. The WAL is closed first, so in-flight settlements cannot
// journal state the "dead" coordinator would not have persisted; a local
// loop's Measure stops at its next step, its campaign's context gone,
// and settle drops the group uncharged.
func (s *Server) Kill() {
	s.drainOnce.Do(func() {
		s.mu.Lock()
		s.draining = true
		s.mu.Unlock()
		if s.wal != nil {
			s.wal.Close()
		}
		s.stop(errKilled)
		s.queue.Close()
		s.wg.Wait()
		s.driverWG.Wait()
		close(s.done)
	})
}

// Done is closed when a drain has fully finished.
func (s *Server) Done() <-chan struct{} { return s.done }

// DrainOnSignal starts the graceful drain when one of sigs arrives
// (default SIGTERM and SIGINT). It returns a stop function that
// uninstalls the handler; wait on Done for the drain itself.
func (s *Server) DrainOnSignal(sigs ...os.Signal) (stop func()) {
	if len(sigs) == 0 {
		sigs = []os.Signal{syscall.SIGTERM, os.Interrupt}
	}
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, sigs...)
	go func() {
		if _, ok := <-ch; ok {
			s.Drain()
		}
	}()
	return func() {
		signal.Stop(ch)
		close(ch)
	}
}

// Draining reports whether admission has stopped.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// loop is one local task loop, the remote worker's pipeline in process:
// lease a group (pop, then gather), measure it, settle it. The slot
// index doubles as the runner's measurement slot, so concurrent groups
// never share harness state.
func (s *Server) loop(slot int) {
	for {
		first, err := s.pop(s.baseCtx)
		if err != nil {
			return // closed or stopped
		}
		s.executeGroup(slot, s.gather(first))
	}
}

// pop leases the next task of a live campaign. A dead campaign's tasks
// (deadline passed, aborted, finished) settle in place, unexecuted, so
// its queue drains without running — for the local loops and the
// remote lease endpoint alike.
func (s *Server) pop(ctx context.Context) (*jobqueue.Lease[task], error) {
	for {
		lease, err := s.queue.Pop(ctx)
		if err != nil {
			return nil, err
		}
		if lease.Payload().camp.ctx.Err() == nil {
			return lease, nil
		}
		s.settle(lease, core.Observation{}, nil) // closed: dropped uncharged
	}
}

// readyOnly is an already-done context: a Pop on it returns a task only
// if one is ready now.
var readyOnly = func() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}()

// gather tops a leased task up to a lease group (gatherGroup) with the
// tasks that are ready now.
func (s *Server) gather(first *jobqueue.Lease[task]) []*jobqueue.Lease[task] {
	return gatherGroup(first, leaseCampaign, func(l *jobqueue.Lease[task]) int {
		return share(leaseCampaign(l).spec, s.cfg.scale(), s.slots.local)
	}, func() (*jobqueue.Lease[task], bool) {
		lease, err := s.pop(readyOnly)
		return lease, err == nil
	})
}

// leaseCampaign is the campaign a lease's task belongs to.
func leaseCampaign(l *jobqueue.Lease[task]) *campaign { return l.Payload().camp }

// executeGroup measures a lease group, all of it heartbeated for the
// duration, the way a remote worker does: each campaign's part, in lease
// order, goes through one Measure call with a single attempt (the queue
// owns retries). Measure stops on the campaign's context, so a deadline
// or abort lands within one build, walk or measurement, and the part
// settles uncharged. Outcomes settle once Measure has returned, never
// inside its callback: that runs under the runner's read lock, and a
// completion that finalizes the campaign releases the runner. An error
// from Measure itself means nothing ran — the campaign closed and
// released its runner — and settle drops the part uncharged.
func (s *Server) executeGroup(slot int, group []*jobqueue.Lease[task]) {
	defer every(s.baseCtx, s.cfg.heartbeatEvery(), func(context.Context) {
		for _, lease := range group {
			lease.Heartbeat() // a lost lease's settlement finds out
		}
	})()
	for _, part := range splitByCampaign(group, leaseCampaign) {
		c := leaseCampaign(part[0])
		units := make([]core.Unit, len(part))
		for k, lease := range part {
			units[k] = lease.Payload().unit()
		}
		outs := make([]core.Observation, len(part))
		errs := make([]error, len(part))
		if err := c.runner.Measure(slot, units, 1, func(k int, o core.Observation, err error) {
			outs[k], errs[k] = o, err
		}); err != nil {
			for k := range errs {
				errs[k] = err
			}
		}
		for k, lease := range part {
			s.settle(lease, outs[k], errs[k])
		}
	}
}

// settle applies one execution's outcome to its lease, for the local
// loops and remote completions alike. A closed campaign's task is
// dropped uncharged; a failure charges one attempt (taskFailed); a
// result is recorded and its lease completed. ErrLeaseLost on Complete
// means the execution overran its lease and the task was requeued: the
// result still counted (complete is idempotent and a duplicate execution
// derives identical bytes), and the re-execution settles the residue.
func (s *Server) settle(lease *jobqueue.Lease[task], o core.Observation, err error) {
	t := lease.Payload()
	c := t.camp
	switch {
	case c.ctx.Err() != nil:
		c.abort(context.Cause(c.ctx))
		lease.Complete()
	case err != nil:
		s.taskFailed(lease, c, t, err)
	default:
		c.completeTask(t, o)
		lease.Complete()
	}
}

// taskFailed settles a failed execution: requeue with seeded backoff
// while attempts remain, otherwise record the permanent failure.
func (s *Server) taskFailed(lease *jobqueue.Lease[task], c *campaign, t task, err error) {
	n := c.recordFailure(t.layout)
	if n < s.cfg.maxAttempts() {
		key := uint64(t.layout)
		if t.genome != nil {
			// Genome retries back off keyed by the fingerprint, matching
			// the in-process search's retry stream.
			key = t.genome.Fingerprint()
		}
		delay := s.cfg.Backoff.Delay(n, c.spec.effectiveSeed(), key)
		lease.Requeue(time.Now().Add(delay))
		return
	}
	if t.genome != nil {
		c.failSearchIndividual(t, n)
	} else {
		c.failLayout(t.layout, n, err)
	}
	lease.Complete()
}
