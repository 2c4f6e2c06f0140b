package campaignd

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"interferometry/internal/core"
	"interferometry/internal/experiments"
	"interferometry/internal/progen"
)

// JobSpec is the JSON body of a campaign submission. Everything that
// influences a measurement is in the spec, so a spec resubmitted to any
// campaignd (or run through core.RunCampaign directly) derives the same
// seed tuples and therefore the same dataset.
type JobSpec struct {
	// Benchmark names a progen suite program, e.g. "429.mcf".
	Benchmark string `json:"benchmark"`
	// Tenant attributes the campaign for quota accounting and fair
	// scheduling. Submissions may set it in the spec or the X-Tenant
	// header (they must agree). Empty is the anonymous tenant. Tenant is
	// part of the campaign identity: two tenants submitting the same
	// measurement spec get separate campaigns and checkpoints, so one
	// tenant can never read or extend another's work by guessing a spec.
	Tenant string `json:"tenant,omitempty"`
	// Layouts is the number of code reorderings to measure. Zero means
	// the server scale's default.
	Layouts int `json:"layouts,omitempty"`
	// BaseSeed roots every derived seed. Zero means the standard
	// campaign seed, matching cmd/interferometry -campaign.
	BaseSeed uint64 `json:"base_seed,omitempty"`
	// Budget is the retired-instruction budget per run. Zero means the
	// server scale's default.
	Budget uint64 `json:"budget,omitempty"`
	// Priority orders jobs in the queue: lower runs sooner; equal
	// priorities run in submission order.
	Priority int `json:"priority,omitempty"`
	// FailureBudget is how many layouts may fail permanently before the
	// campaign is abandoned.
	FailureBudget int `json:"failure_budget,omitempty"`
	// DeadlineMS bounds the campaign's wall-clock time. The deadline
	// propagates as a context from admission to every task; once it
	// passes, remaining tasks are dropped and the campaign reports
	// failed. Zero means no deadline.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Kind selects the campaign kind: "" or "campaign" measures Layouts
	// random layouts (the default); "search" runs a seeded evolutionary
	// search over the layout space, generation by generation, with the
	// shape in Search.
	Kind string `json:"kind,omitempty"`
	// Search shapes a layout-search campaign; only valid with Kind
	// "search". Nil uses the search defaults.
	Search *SearchSpec `json:"search,omitempty"`
}

// Campaign kinds.
const (
	KindCampaign = "campaign"
	KindSearch   = "search"
)

// SearchSpec is the JSON shape of a layout search: population size,
// generation count and the selection knobs. Zero fields take the core
// search defaults (16×8, elite 2, tournament 3).
type SearchSpec struct {
	Population  int `json:"population,omitempty"`
	Generations int `json:"generations,omitempty"`
	Elite       int `json:"elite,omitempty"`
	Tournament  int `json:"tournament,omitempty"`
}

// IsSearch reports whether the spec describes a layout-search campaign.
func (s JobSpec) IsSearch() bool { return s.Kind == KindSearch }

func (s JobSpec) validate() error {
	if s.Benchmark == "" {
		return fmt.Errorf("campaignd: spec needs a benchmark")
	}
	if _, ok := progen.ByName(s.Benchmark); !ok {
		return fmt.Errorf("campaignd: unknown benchmark %q", s.Benchmark)
	}
	if s.Layouts < 0 || s.DeadlineMS < 0 || s.FailureBudget < 0 {
		return fmt.Errorf("campaignd: negative spec field")
	}
	switch s.Kind {
	case "", KindCampaign:
		if s.Search != nil {
			return fmt.Errorf("campaignd: search parameters need kind %q", KindSearch)
		}
	case KindSearch:
		sp := s.searchSpec()
		if sp.Population < 0 || sp.Generations < 0 || sp.Elite < 0 || sp.Tournament < 0 {
			return fmt.Errorf("campaignd: negative search field")
		}
		cfg := s.searchShape()
		if elite, pop := cfg.Elite, cfg.Population; elite >= pop {
			return fmt.Errorf("campaignd: search elite %d must be smaller than population %d", elite, pop)
		}
	default:
		return fmt.Errorf("campaignd: unknown campaign kind %q", s.Kind)
	}
	return nil
}

// searchSpec returns the search shape, defaulting a nil Search.
func (s JobSpec) searchSpec() SearchSpec {
	if s.Search != nil {
		return *s.Search
	}
	return SearchSpec{}
}

// searchShape resolves the search defaults the way core does, so the
// campaign identity hashes effective values, not spellings of them.
func (s JobSpec) searchShape() core.SearchConfig {
	sp := s.searchSpec()
	cfg := core.SearchConfig{
		Population:  sp.Population,
		Generations: sp.Generations,
		Elite:       sp.Elite,
		TournamentK: sp.Tournament,
	}
	return cfg.Resolved()
}

// ID is the campaign's deterministic identity: a hash of every
// measurement-relevant spec field. Identical submissions collapse onto
// one campaign (and one checkpoint directory), which is what makes
// resubmit-after-crash a resume instead of a duplicate.
func (s JobSpec) ID(scale experiments.Scale) string {
	key := fmt.Sprintf("%s|%d|%d|%d|%s|%s",
		s.Benchmark, s.effectiveLayouts(scale), s.effectiveSeed(), s.effectiveBudget(scale), scale.Name, s.Tenant)
	if s.IsSearch() {
		// Search campaigns extend the key; layout campaign IDs are
		// untouched, so existing checkpoints and WALs stay addressable.
		shape := s.searchShape()
		key += fmt.Sprintf("|search|%d|%d|%d|%d",
			shape.Population, shape.Generations, shape.Elite, shape.TournamentK)
	}
	h := sha256.Sum256([]byte(key))
	return hex.EncodeToString(h[:6])
}

func (s JobSpec) effectiveLayouts(scale experiments.Scale) int {
	if s.Layouts > 0 {
		return s.Layouts
	}
	return scale.Layouts
}

// waveTasks is how many tasks the campaign queues at once: every layout
// of a layout campaign, one generation's population of a search.
func (s JobSpec) waveTasks(scale experiments.Scale) int {
	if s.IsSearch() {
		return s.searchShape().Population
	}
	return s.effectiveLayouts(scale)
}

func (s JobSpec) effectiveSeed() uint64 {
	if s.BaseSeed != 0 {
		return s.BaseSeed
	}
	return defaultBaseSeed
}

func (s JobSpec) effectiveBudget(scale experiments.Scale) uint64 {
	if s.Budget > 0 {
		return s.Budget
	}
	return scale.Budget
}

// defaultBaseSeed matches cmd/interferometry's -campaign mode, so a job
// submitted with no seed reproduces the CLI's standalone campaigns.
const defaultBaseSeed = 0x1f2e3d4c

// Campaign states.
const (
	StateRunning     = "running"
	StateDone        = "done"
	StateFailed      = "failed"
	StateInterrupted = "interrupted" // drained mid-flight; resubmit to resume
)

// campaign is one admitted job and its accumulating results.
type campaign struct {
	id        string
	spec      JobSpec
	runner    *core.LayoutRunner
	sink      *core.CheckpointSink
	ctx       context.Context
	cancel    context.CancelCauseFunc
	stopTimer context.CancelFunc // releases the deadline timer, if any
	created   time.Time

	// onFinal journals the campaign finishing, wired by the server at
	// admission when a WAL is open (nil otherwise). It is invoked with
	// c.mu held, before tasks can observe the new state.
	onFinal func(state string)

	// search carries the generational state of a layout-search
	// campaign (nil for layout campaigns). Its fields are guarded by
	// c.mu like the layout state below.
	search *searchRun

	mu        sync.Mutex
	state     string
	obs       []core.Observation
	done      map[int]bool
	attempts  map[int]int // failed executions per layout (or per individual of the in-flight generation)
	failures  []core.LayoutFailure
	restored  int
	completed int
	failed    int
	remaining int
	ds        *core.Dataset
	err       error
	finished  chan struct{}
}

// newCampaign admits a spec: derives the campaign config on the
// server's shared program, builds the runner on the shared trace with
// the server's slot layout, and opens (or resumes) the checkpoint. The
// returned pending slice lists the layout indices still to measure.
func (s *Server) newCampaign(spec JobSpec) (*campaign, []int, error) {
	if spec.IsSearch() {
		c, err := s.newSearchCampaign(spec)
		return c, nil, err
	}
	now, scale := time.Now(), s.cfg.scale()
	cfg, err := s.shared.campaignConfig(spec, scale)
	if err != nil {
		return nil, nil, err
	}
	cfg.Faults = s.cfg.Faults
	cfg.Obs = s.cfg.Obs
	id := spec.ID(scale)

	var sink *core.CheckpointSink
	restored := map[int]core.Observation{}
	if root := s.cfg.CheckpointRoot; root != "" {
		dir := filepath.Join(root, id)
		ccfg := cfg
		ccfg.Checkpoint = core.CheckpointConfig{Dir: dir}
		if _, statErr := os.Stat(filepath.Join(dir, "observations.jsonl")); statErr == nil {
			ccfg.Checkpoint.Resume = true
		}
		sink, err = core.OpenCheckpointSink(ccfg)
		if err != nil {
			return nil, nil, fmt.Errorf("campaignd: checkpoint for %s: %w", id, err)
		}
		restored = sink.Restored()
	}

	ctx, cancel := context.WithCancelCause(s.baseCtx)
	stopTimer := context.CancelFunc(func() {})
	if spec.DeadlineMS > 0 {
		ctx, stopTimer = context.WithDeadline(ctx, now.Add(time.Duration(spec.DeadlineMS)*time.Millisecond))
	}
	// The runner's Measure stops on the campaign's context, so a deadline
	// or abort lands within one step of a group a local loop holds.
	cfg.Context = ctx
	runner, err := s.shared.runner(cfg, s.slots.runners())
	if err != nil {
		cancel(err)
		stopTimer()
		if sink != nil {
			sink.Close()
		}
		return nil, nil, err
	}

	c := &campaign{
		id:        id,
		spec:      spec,
		runner:    runner,
		sink:      sink,
		ctx:       ctx,
		cancel:    cancel,
		stopTimer: stopTimer,
		created:   now,
		state:     StateRunning,
		obs:       make([]core.Observation, cfg.Layouts),
		done:      make(map[int]bool, cfg.Layouts),
		attempts:  make(map[int]int),
		restored:  len(restored),
		completed: len(restored),
		remaining: cfg.Layouts,
		finished:  make(chan struct{}),
	}
	var pending []int
	for i := 0; i < cfg.Layouts; i++ {
		if o, ok := restored[i]; ok {
			c.obs[i] = o
			c.done[i] = true
			c.remaining--
			continue
		}
		pending = append(pending, i)
	}
	if c.remaining == 0 {
		c.mu.Lock()
		c.finalizeLocked()
		c.mu.Unlock()
	}
	return c, pending, nil
}

// complete records one successful observation. Idempotent: duplicate
// executions (an expired lease redone elsewhere) are byte-identical by
// determinism, and only the first recording counts.
func (c *campaign) complete(i int, o core.Observation) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state != StateRunning || c.done[i] {
		return
	}
	c.done[i] = true
	c.obs[i] = o
	c.completed++
	c.remaining--
	if c.sink != nil {
		c.sink.Put(i, o)
	}
	if c.remaining == 0 {
		c.finalizeLocked()
	}
}

// completeTask records a task's observation, stamped with the attempts
// it took, on its layout or on its search individual.
func (c *campaign) completeTask(t task, o core.Observation) {
	o = core.CompletedObservation(o, c.attemptsOf(t.layout)+1)
	if t.genome != nil {
		c.completeSearch(t, o)
		return
	}
	c.complete(t.layout, o)
}

// recordFailure counts one failed execution of layout i and reports the
// total so far. Lease expiries, quarantine releases and closed
// campaigns never reach here: nothing failed, so they cost no attempt.
func (c *campaign) recordFailure(i int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempts[i]++
	return c.attempts[i]
}

func (c *campaign) attemptsOf(i int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.attempts[i]
}

// failLayout records a permanent per-layout failure after exhausted
// attempts. The campaign survives while failures stay within the spec's
// budget; one more abandons it.
func (c *campaign) failLayout(i, attempts int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state != StateRunning || c.done[i] {
		return
	}
	c.done[i] = true
	c.obs[i] = c.runner.FailedObservation(core.Unit{Layout: i}, attempts)
	c.failures = append(c.failures, core.LayoutFailure{
		Index: i, LayoutSeed: c.obs[i].LayoutSeed, Err: err.Error(),
	})
	c.failed++
	c.remaining--
	if c.failed > c.spec.FailureBudget {
		c.failLocked(fmt.Errorf("campaignd: layout %d failed after %d attempts (budget %d): %w",
			i, attempts, c.spec.FailureBudget, err))
		return
	}
	if c.remaining == 0 {
		c.finalizeLocked()
	}
}

// abort fails the whole campaign (deadline exceeded, drain, operator
// cancel). Remaining queued tasks see the canceled context and drop.
func (c *campaign) abort(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state != StateRunning {
		return
	}
	c.failLocked(err)
}

// interrupt marks a draining campaign: completed observations are
// flushed to the checkpoint and the rest resumes on resubmission.
func (c *campaign) interrupt() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state != StateRunning {
		return
	}
	c.state = StateInterrupted
	c.err = fmt.Errorf("campaignd: drained with %d layouts unmeasured; resubmit to resume", c.remaining)
	c.closeLocked()
}

func (c *campaign) failLocked(err error) {
	c.state = StateFailed
	c.err = err
	c.closeLocked()
	if c.onFinal != nil {
		c.onFinal(c.state)
	}
}

func (c *campaign) finalizeLocked() {
	ds, err := c.runner.Dataset(c.obs, c.failures)
	if err != nil {
		c.failLocked(err)
		return
	}
	// The result endpoints serve observations only; the trace goes with
	// the runner's engines.
	ds.Trace = nil
	c.ds = ds
	c.state = StateDone
	// closeLocked can degrade done to failed on a checkpoint flush
	// error, so the journal records the state that survives it.
	c.closeLocked()
	if c.onFinal != nil {
		c.onFinal(c.state)
	}
}

// closeLocked closes the checkpoint (a layout campaign's compacts),
// cancels the task context, releases the runner's engines and releases
// waiters. Sink write errors degrade a done campaign to failed — a
// checkpoint that lies is worse than none. A closed campaign keeps only
// what its endpoints and late worker calls still read: observations,
// the dataset, and the runner's seed derivation and attestation key. The context is canceled before
// the release, so a group in Measure stops at its next step, and the
// release waits out at most that step; a group that reaches Measure
// after the release finds ErrRunnerReleased. settle drops both.
func (c *campaign) closeLocked() {
	var err error
	if c.sink != nil {
		err = c.sink.Close()
		c.sink = nil
	}
	if c.search != nil && c.search.sink != nil {
		err = c.search.sink.Close()
		c.search.sink = nil
	}
	if err != nil && c.state == StateDone {
		c.state = StateFailed
		c.err = fmt.Errorf("campaignd: checkpoint flush: %w", err)
	}
	c.cancel(c.err)
	c.stopTimer()
	c.runner.Release()
	close(c.finished)
}

// snapshot returns the campaign's externally visible status.
func (c *campaign) snapshot() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{
		ID:        c.id,
		Benchmark: c.spec.Benchmark,
		Tenant:    c.spec.Tenant,
		State:     c.state,
		Layouts:   len(c.obs),
		Completed: c.completed,
		Failed:    c.failed,
		Restored:  c.restored,
	}
	if c.err != nil {
		st.Error = c.err.Error()
	}
	if c.search != nil {
		c.search.snapshotLocked(&st)
	}
	return st
}

// dataset returns the final dataset once the campaign is done.
func (c *campaign) dataset() (*core.Dataset, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.search != nil {
		return nil, errIsSearch
	}
	switch c.state {
	case StateDone:
		return c.ds, nil
	case StateRunning:
		return nil, errNotDone
	default:
		return nil, c.err
	}
}

var (
	errNotDone  = fmt.Errorf("campaignd: campaign still running")
	errIsSearch = fmt.Errorf("campaignd: search campaign has no layout dataset; fetch its generations")
)

// Status is the JSON shape of a campaign's state. For a search
// campaign, Layouts is the per-generation population, Completed counts
// measured individuals across settled generations, and the search
// fields report the trajectory so far.
type Status struct {
	ID        string `json:"id"`
	Benchmark string `json:"benchmark"`
	Tenant    string `json:"tenant,omitempty"`
	State     string `json:"state"`
	Layouts   int    `json:"layouts"`
	Completed int    `json:"completed"`
	Failed    int    `json:"failed"`
	Restored  int    `json:"restored,omitempty"`
	Error     string `json:"error,omitempty"`

	// Search-campaign fields.
	Kind           string  `json:"kind,omitempty"`
	Generation     int     `json:"generation,omitempty"`  // settled generations so far
	Generations    int     `json:"generations,omitempty"` // configured total
	BestCPI        float64 `json:"best_cpi,omitempty"`
	TrajectoryHash string  `json:"trajectory_hash,omitempty"`
}
