package campaignd

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"interferometry/internal/core"
	"interferometry/internal/jobqueue"
	"interferometry/internal/toolchain"
)

// Search campaigns (DESIGN.md §13): a spec with kind "search" runs a
// seeded evolutionary optimization over the layout space instead of a
// flat sampling sweep. The service drives it as a dependent task graph:
// one driver goroutine per campaign derives each generation's genomes
// from the settled previous generation, pushes the population as one
// atomic barrier batch (internal/jobqueue.PushBarrierTenant), and waits
// for every individual to settle before breeding the next — generation
// N+1 is never admitted before N has fully left the queue. Individuals
// execute through the same lease-group/retry machinery as layout
// tasks, locally or on remote workers, so the trajectory is a pure
// function of the spec and byte-identical to core.RunSearch whatever
// the worker count, batching or failure schedule.

// searchRun is the generational state of a search campaign. All fields
// below the engine handles are guarded by the owning campaign's mu.
type searchRun struct {
	eng  *core.Search
	sink *core.SearchCheckpointSink // nil without a checkpoint root

	// restored is the checkpoint prefix loaded at admission, immutable
	// afterwards; resume cross-checks WAL generation records against it.
	restored []core.GenerationResult

	// gens is the settled prefix (starts as restored, driver appends).
	gens []core.GenerationResult
	// cur is the in-flight generation; nil between generations.
	cur *generationState
	// result is set when the trajectory finalizes.
	result *core.SearchResult
}

// generationState tracks one in-flight generation's observations as
// workers settle them.
type generationState struct {
	gen       int
	genomes   []toolchain.Genome
	obs       []core.Observation
	done      []bool
	remaining int
}

// newSearchCampaign admits a search spec: derives the search config on
// the server's shared program, prepares the engine on the shared trace,
// and opens (or resumes) the generation checkpoint. The server pushes
// the first pending generation and starts the driver after journaling
// the admission.
func (s *Server) newSearchCampaign(spec JobSpec) (*campaign, error) {
	now, scale := time.Now(), s.cfg.scale()
	cfg, err := s.shared.searchConfig(spec, scale)
	if err != nil {
		return nil, err
	}
	cfg.Campaign.Faults = s.cfg.Faults
	cfg.Campaign.Obs = s.cfg.Obs
	id := spec.ID(scale)
	if root := s.cfg.CheckpointRoot; root != "" {
		dir := filepath.Join(root, id)
		cfg.Campaign.Checkpoint = core.CheckpointConfig{Dir: dir}
		if _, statErr := os.Stat(filepath.Join(dir, core.SearchCheckpointFile)); statErr == nil {
			cfg.Campaign.Checkpoint.Resume = true
		}
	}

	trace, err := s.shared.trace(cfg.Campaign)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancelCause(s.baseCtx)
	stopTimer := context.CancelFunc(func() {})
	if spec.DeadlineMS > 0 {
		ctx, stopTimer = context.WithDeadline(ctx, now.Add(time.Duration(spec.DeadlineMS)*time.Millisecond))
	}
	// As for a layout campaign (newCampaign), Measure stops on it.
	cfg.Campaign.Context = ctx
	fail := func(err error) (*campaign, error) {
		cancel(err)
		stopTimer()
		return nil, err
	}
	eng, err := core.NewSearch(cfg, s.slots.runners(), trace)
	if err != nil {
		return fail(err)
	}
	run := &searchRun{eng: eng}
	if cfg.Campaign.Checkpoint.Dir != "" {
		run.sink, err = core.OpenSearchCheckpointSink(eng)
		if err != nil {
			return fail(fmt.Errorf("campaignd: search checkpoint for %s: %w", id, err))
		}
		run.restored = run.sink.Restored()
		run.gens = append([]core.GenerationResult(nil), run.restored...)
	}

	pop := eng.Population()
	c := &campaign{
		id:        id,
		spec:      spec,
		runner:    eng.Runner(),
		search:    run,
		ctx:       ctx,
		cancel:    cancel,
		stopTimer: stopTimer,
		created:   now,
		state:     StateRunning,
		obs:       make([]core.Observation, pop),
		done:      make(map[int]bool, pop),
		attempts:  make(map[int]int),
		restored:  len(run.gens) * pop,
		completed: len(run.gens) * pop,
		remaining: (eng.Generations() - len(run.gens)) * pop,
		finished:  make(chan struct{}),
	}
	if len(run.gens) >= eng.Generations() {
		// Fully restored from the checkpoint: finalize without queueing
		// a single task, exactly like a fully-restored layout campaign.
		c.finishSearch(run.gens)
	}
	return c, nil
}

// snapshotLocked fills a Status's search fields. Callers hold c.mu.
func (r *searchRun) snapshotLocked(st *Status) {
	st.Kind = KindSearch
	st.Layouts = r.eng.Population()
	st.Generations = r.eng.Generations()
	st.Generation = len(r.gens)
	if r.result != nil {
		st.BestCPI = r.result.Best.Obs.CPI()
		st.TrajectoryHash = r.result.TrajectoryHash
		return
	}
	for k := range r.gens {
		b := r.gens[k].Best()
		if cpi := b.Obs.CPI(); st.BestCPI == 0 || cpi < st.BestCPI {
			st.BestCPI = cpi
		}
	}
}

// beginGeneration registers the in-flight generation and resets the
// per-individual attempt counters — only one generation's tasks are
// ever in the system, so the counters never collide across generations.
func (c *campaign) beginGeneration(gen int, genomes []toolchain.Genome) (*generationState, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state != StateRunning {
		return nil, fmt.Errorf("campaignd: campaign %s is %s", c.id, c.state)
	}
	g := &generationState{
		gen:       gen,
		genomes:   genomes,
		obs:       make([]core.Observation, len(genomes)),
		done:      make([]bool, len(genomes)),
		remaining: len(genomes),
	}
	c.attempts = make(map[int]int)
	c.search.cur = g
	return g, nil
}

// completeSearch records one individual's observation. Idempotent like
// complete: a duplicate execution from an expired lease derives
// byte-identical results and only the first recording counts.
func (c *campaign) completeSearch(t task, o core.Observation) {
	c.mu.Lock()
	defer c.mu.Unlock()
	g := c.search.cur
	if c.state != StateRunning || g == nil || g.gen != t.gen || g.done[t.layout] {
		return
	}
	g.done[t.layout] = true
	g.obs[t.layout] = o
	g.remaining--
	c.completed++
}

// failSearchIndividual records a permanently failed individual. Unlike
// a layout campaign's failure budget, a failed individual never aborts
// the search — it simply loses selection, exactly as in core.Search;
// a generation with no valid individual fails the campaign at Settle.
func (c *campaign) failSearchIndividual(t task, attempts int) {
	o := c.runner.FailedObservation(t.unit(), attempts)
	c.mu.Lock()
	defer c.mu.Unlock()
	g := c.search.cur
	if c.state != StateRunning || g == nil || g.gen != t.gen || g.done[t.layout] {
		return
	}
	g.done[t.layout] = true
	g.obs[t.layout] = o
	g.remaining--
	c.completed++
	c.failed++
}

// generationSettled reports whether every individual of the in-flight
// generation has an observation, and returns them if so.
func (c *campaign) generationSettled(g *generationState) ([]core.Observation, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.search.cur != g || g.remaining > 0 {
		return nil, false
	}
	return g.obs, true
}

// putGeneration persists one settled generation and publishes it to
// status and the streaming export. A closed campaign's checkpoint is
// closed too, so its generation is refused and never journaled.
func (c *campaign) putGeneration(res core.GenerationResult) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state != StateRunning {
		return fmt.Errorf("campaignd: campaign %s is %s", c.id, c.state)
	}
	if c.search.sink != nil {
		if err := c.search.sink.Put(res); err != nil {
			return err
		}
	}
	c.search.gens = append(c.search.gens, res)
	c.search.cur = nil
	return nil
}

// searchGenerations returns the settled generation prefix — available
// while the campaign still runs, which is what lets clients stream a
// search's trajectory as it settles. Settled generations are immutable.
func (c *campaign) searchGenerations() ([]core.GenerationResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.search == nil {
		return nil, false
	}
	return c.search.gens[:len(c.search.gens):len(c.search.gens)], true
}

// searchResult returns the finalized search result.
func (c *campaign) searchResult() (*core.SearchResult, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.search == nil {
		return nil, fmt.Errorf("campaignd: not a search campaign")
	}
	switch {
	case c.search.result != nil:
		return c.search.result, nil
	case c.state == StateRunning:
		return nil, errNotDone
	default:
		return nil, c.err
	}
}

// finishSearch finalizes the trajectory.
func (c *campaign) finishSearch(gens []core.GenerationResult) {
	res, err := c.search.eng.Finalize(gens)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state != StateRunning {
		return
	}
	if err != nil {
		c.failLocked(err)
		return
	}
	c.search.result = res
	c.state = StateDone
	c.closeLocked()
	if c.onFinal != nil {
		c.onFinal(c.state)
	}
}

// admitSearch pushes the first pending generation atomically — a queue
// that cannot hold one population sheds the whole campaign with the
// same 429 a layout fan-out gets — and starts the campaign's driver.
// Caller is admit, which already journaled the submission.
func (s *Server) admitSearch(c *campaign) error {
	gens := c.search.gens
	gen := len(gens)
	var prev *core.GenerationResult
	if gen > 0 {
		prev = &gens[gen-1]
	}
	genomes, err := c.search.eng.Genomes(gen, prev)
	if err != nil {
		return err
	}
	g, err := c.beginGeneration(gen, genomes)
	if err != nil {
		return err
	}
	bar, err := s.queue.PushBarrierTenant(c.spec.Tenant, c.spec.Priority, searchTasks(c, g))
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.drivers++
	s.mu.Unlock()
	s.driverWG.Add(1)
	go s.searchDriver(c, g, bar, append([]core.GenerationResult(nil), gens...))
	return nil
}

// searchTasks fans one generation out into queue tasks. The genome
// pointers alias the generation state, which outlives every lease.
func searchTasks(c *campaign, g *generationState) []task {
	tasks := make([]task, len(g.genomes))
	for i := range g.genomes {
		tasks[i] = task{camp: c, layout: i, gen: g.gen, genome: &g.genomes[i]}
	}
	return tasks
}

// searchDriver runs one search campaign's generation loop: wait for the
// in-flight generation's barrier, settle it, checkpoint and journal it,
// breed and push the next. It exits when the trajectory finalizes, the
// campaign dies, or the queue stops admitting (drain).
func (s *Server) searchDriver(c *campaign, g *generationState, bar *jobqueue.Barrier, gens []core.GenerationResult) {
	defer func() {
		s.mu.Lock()
		s.drivers--
		s.mu.Unlock()
		s.driverWG.Done()
	}()
	eng := c.search.eng
	for {
		select {
		case <-bar.Done():
		case <-c.ctx.Done():
			c.abort(context.Cause(c.ctx))
			return
		}
		// Every task has left the system. Either all individuals settled
		// (completed or permanently failed), or the queue dropped some
		// mid-flight (Close during drain or kill) — then the generation
		// cannot settle and the campaign interrupts, to resume from the
		// last checkpointed generation on resubmission.
		observations, ok := c.generationSettled(g)
		if !ok {
			c.interrupt()
			return
		}
		res, err := eng.Settle(g.gen, g.genomes, observations)
		if err != nil {
			c.abort(err) // no valid individual survived the generation
			return
		}
		if err := c.putGeneration(res); err != nil {
			c.abort(fmt.Errorf("campaignd: search checkpoint: %w", err))
			return
		}
		// The checkpoint flushed before this journal record, so a
		// journaled generation is always recoverable.
		s.walGen(c.id, res.Gen, res.PopHash)
		gens = append(gens, res)

		gen := g.gen + 1
		if gen >= eng.Generations() {
			c.finishSearch(gens)
			return
		}
		genomes, err := eng.Genomes(gen, &gens[len(gens)-1])
		if err != nil {
			c.abort(err)
			return
		}
		if g, err = c.beginGeneration(gen, genomes); err != nil {
			return // campaign died between generations
		}
		if bar, err = s.pushGeneration(c, g); err != nil {
			if errors.Is(err, jobqueue.ErrClosed) {
				c.interrupt() // drain between generations
			} else {
				c.abort(err)
			}
			return
		}
	}
}

// pushGeneration admits one generation's tasks, retrying capacity and
// quota sheds with backoff: unlike a fresh submission, a mid-flight
// generation has already been paid for, so transient pressure from
// other tenants' leased work delays it rather than killing the search.
func (s *Server) pushGeneration(c *campaign, g *generationState) (*jobqueue.Barrier, error) {
	delay := 5 * time.Millisecond
	for {
		bar, err := s.queue.PushBarrierTenant(c.spec.Tenant, c.spec.Priority, searchTasks(c, g))
		if err == nil {
			return bar, nil
		}
		if !errors.Is(err, jobqueue.ErrFull) && !errors.Is(err, jobqueue.ErrTenantQuota) {
			return nil, err
		}
		select {
		case <-c.ctx.Done():
			return nil, context.Cause(c.ctx)
		case <-time.After(delay):
		}
		if delay < 500*time.Millisecond {
			delay *= 2
		}
	}
}

// walGen journals one settled generation (nil-safe).
func (s *Server) walGen(id string, gen int, popHash string) {
	if s.wal == nil {
		return
	}
	if err := s.wal.Gen(id, gen, popHash); err != nil {
		s.walErrs.Inc()
	}
}

// verifyResumedSearch cross-checks the WAL's generation records against
// the restored checkpoint. The generation checkpoint flushes before its
// WAL record is appended, so a checkpoint that is missing a journaled
// generation — or disagrees on its population hash — is corrupt, and
// resuming from it would silently fork the trajectory.
func verifyResumedSearch(c *campaign, gens map[int]string) error {
	if c.search == nil || len(gens) == 0 {
		return nil
	}
	restored := c.search.restored
	for gen, hash := range gens {
		if gen >= len(restored) {
			return fmt.Errorf("generation %d journaled but missing from the checkpoint (%d restored)", gen, len(restored))
		}
		if got := restored[gen].PopHash; got != hash {
			return fmt.Errorf("generation %d population hash %s does not match journaled %s", gen, got, hash)
		}
	}
	return nil
}
