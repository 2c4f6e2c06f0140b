package campaignd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"time"

	"interferometry/internal/core"
	"interferometry/internal/experiments"
	"interferometry/internal/jobqueue"
	"interferometry/internal/toolchain"
	"interferometry/internal/xrand"
)

// Coordinator/worker protocol (DESIGN.md §10). Remote campaignd worker
// processes pull leased layout tasks from these endpoints, execute them
// through their own core.LayoutRunner, and stream the observation back.
// The coordinator stays the single authority over lease lifetime,
// attempt counting and result merging: a worker only ever reports what
// one execution produced, and every merge goes through settle, as the
// local task loops' do — which is what keeps the finished dataset
// byte-identical whatever the worker count, completion order or
// mid-campaign worker deaths.

// Long-poll bounds for /worker/lease.
const (
	defaultLeaseWait = 5 * time.Second
	maxLeaseWait     = 60 * time.Second
)

// leaseRequest is the body of POST /worker/lease.
type leaseRequest struct {
	// WaitMS bounds the long poll; zero means 5s, capped at 60s.
	WaitMS int64 `json:"wait_ms,omitempty"`
	// Worker is the caller's self-chosen identity, tracked by the
	// coordinator's health scoring: rejected results count against it
	// and a condemned identity's lease requests are refused (403).
	// Empty is anonymous — legal, but untracked and uncondemnable, so
	// fleets that want quarantine must set it. Self-reporting is not a
	// trust problem: an identity only ever accumulates blame, so the
	// worst a liar can do by rotating names is reset its own rap sheet,
	// and every lie it tells is still rejected per-result.
	Worker string `json:"worker,omitempty"`
}

// leaseResponse hands one leased layout task to a worker. Spec and
// Scale carry everything the worker needs to derive the campaign config
// locally — the seed tuple discipline guarantees its runner is
// equivalent to the coordinator's.
type leaseResponse struct {
	LeaseID    string            `json:"lease_id"`
	CampaignID string            `json:"campaign_id"`
	Layout     int               `json:"layout"`
	Attempt    int               `json:"attempt"`
	Spec       JobSpec           `json:"spec"`
	Scale      experiments.Scale `json:"scale"`
	// Generation and Genome carry a search individual: the genome's
	// canonical binary encoding (base64 over the wire), which the
	// worker decodes through the validating codec and executes in place
	// of a layout index. Layout is then the index within the
	// generation, used only for reporting.
	Generation int    `json:"generation,omitempty"`
	Genome     []byte `json:"genome,omitempty"`
	// LeaseMS is the coordinator's lease duration; workers heartbeat at
	// a third of it.
	LeaseMS int64 `json:"lease_ms"`
}

// leaseRef names a lease in heartbeat requests.
type leaseRef struct {
	LeaseID string `json:"lease_id"`
}

// completeRequest reports one finished execution: an observation on
// success, an error string on failure. Exactly one should be set.
type completeRequest struct {
	LeaseID     string        `json:"lease_id"`
	Observation *core.ObsWire `json:"observation,omitempty"`
	Error       string        `json:"error,omitempty"`
}

// ack is the empty-but-valid JSON body of settled protocol calls.
type ack struct {
	OK bool `json:"ok"`
}

// decodeBody decodes a small protocol body strictly. An empty body
// decodes to the zero value, so lease requests can omit the JSON.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil && !errors.Is(err, io.EOF) {
		return err
	}
	return nil
}

// handleLease long-polls the queue for a task of a live campaign (pop
// settles dead campaigns' tasks in place, as it does for the local
// loops) and hands it to the caller under a registered lease ID.
func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad lease request: " + err.Error()})
		return
	}
	wait := defaultLeaseWait
	if req.WaitMS > 0 {
		wait = time.Duration(req.WaitMS) * time.Millisecond
	}
	if wait > maxLeaseWait {
		wait = maxLeaseWait
	}
	// Quarantined workers get refused before touching the queue: their
	// identity is condemned, not any one task.
	if s.remote.Quarantined(req.Worker) {
		s.refusals.Inc()
		s.writeJSON(w, http.StatusForbidden, errorResponse{Error: "worker quarantined"})
		return
	}
	// Dead workers leave registry entries behind; sweeping on the lease
	// path bounds them without a background goroutine.
	s.remote.Sweep()
	// The wait clamp doubles as the server-side deadline: however the
	// client behaves, the handler goroutine is released when the
	// long-poll window closes.
	ctx, cancel := context.WithTimeout(r.Context(), wait)
	defer cancel()
	lease, err := s.pop(ctx)
	if errors.Is(err, jobqueue.ErrClosed) {
		s.writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: ErrDraining.Error()})
		return
	}
	if err != nil { // long poll elapsed (or caller went away)
		w.WriteHeader(http.StatusNoContent)
		return
	}
	// Re-check after the blocking pop: a condemnation that landed
	// mid-poll must not hand this worker new work. The task goes
	// straight back, uncharged.
	if s.remote.Quarantined(req.Worker) {
		lease.Release()
		s.refusals.Inc()
		s.writeJSON(w, http.StatusForbidden, errorResponse{Error: "worker quarantined"})
		return
	}
	t := lease.Payload()
	c := t.camp
	resp := leaseResponse{
		LeaseID:    s.remote.Register(lease, req.Worker),
		CampaignID: c.id,
		Layout:     t.layout,
		Attempt:    lease.Attempt(),
		Spec:       c.spec,
		Scale:      s.cfg.scale(),
		LeaseMS:    s.cfg.lease().Milliseconds(),
	}
	if t.genome != nil {
		resp.Generation = t.gen
		resp.Genome = toolchain.EncodeGenome(*t.genome)
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// handleHeartbeat extends a remote lease; 410 tells the worker its task
// has been requeued and it must abandon the execution.
func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req leaseRef
	if err := decodeBody(w, r, &req); err != nil || req.LeaseID == "" {
		s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad heartbeat request"})
		return
	}
	if err := s.remote.Heartbeat(req.LeaseID); err != nil {
		s.writeJSON(w, http.StatusGone, errorResponse{Error: err.Error()})
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleComplete settles a remote execution through settle, as the
// local loops settle theirs. Duplicate or late completions (expired
// lease) return 410 and the result is discarded — by determinism the
// task's next owner derives identical bytes, so nothing is lost.
//
// Observations are verified before they merge (DESIGN.md §14): the
// attestation must re-derive from the coordinator's own spec and the
// layout seed must match the leased task. A result that fails either
// check is rejected with 422, counts against the reporting worker's
// health, and its task is released — requeued with no attempt charged,
// because the worker was at fault, not the task. Verified results may
// additionally be spot-audited: re-executed through the coordinator's
// reserved runner slot and compared byte for byte; a mismatch condemns
// the worker outright.
func (s *Server) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req completeRequest
	if err := decodeBody(w, r, &req); err != nil || req.LeaseID == "" {
		s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad complete request"})
		return
	}
	lease, worker, ok := s.remote.Take(req.LeaseID)
	if !ok {
		s.writeJSON(w, http.StatusGone, errorResponse{Error: jobqueue.ErrLeaseLost.Error()})
		return
	}
	var o core.Observation
	var err error
	switch {
	case lease.Payload().camp.ctx.Err() != nil:
		// The campaign closed: settle discards the result unverified.
	case req.Error != "":
		// An honest failure report is health-neutral: injected faults
		// and real build/measure errors must not quarantine a truthful
		// worker. It costs the attempt it claimed to be.
		err = errors.New(req.Error)
	case req.Observation == nil:
		err = errors.New("worker reported neither observation nor error")
	default:
		if !s.trusted(w, lease, worker, req.Observation) {
			return
		}
		o = req.Observation.Observation()
	}
	s.settle(lease, o, err)
	s.writeJSON(w, http.StatusOK, ack{OK: true})
}

// trusted verifies a reported observation and, when it is picked,
// spot-audits it. A rejected result has been answered (422) and its
// lease released; an accepted one counts for its worker. A result whose
// campaign closed while the audit ran is neither: settle discards it
// like any completion for a closed campaign.
func (s *Server) trusted(w http.ResponseWriter, lease *jobqueue.Lease[task], worker string, o *core.ObsWire) bool {
	t := lease.Payload()
	c := t.camp
	if err := verifyResult(c, t, o); err != nil {
		s.rejectResult(w, lease, worker, err)
		return false
	}
	if s.auditPick(c, t, lease.Attempt()) {
		match, aerr := s.audit(c, t, o)
		switch {
		case errors.Is(aerr, core.ErrRunnerReleased), aerr != nil && c.ctx.Err() != nil:
			return true // closed: settle discards it, the worker uncredited
		case aerr != nil:
			// The audit infrastructure failed, not the worker; the
			// verified result is accepted unaudited.
			s.auditErrs.Inc()
		case !match:
			s.auditFails.Inc()
			s.remote.FailAudit(worker)
			s.condemnWorker(worker)
			// ErrLeaseLost here means a racing reap already
			// requeued the task — exactly once either way.
			lease.Release()
			s.writeJSON(w, http.StatusUnprocessableEntity,
				errorResponse{Error: "audit mismatch: re-execution disowned the reported observation"})
			return false
		}
	}
	s.remote.Accept(worker)
	return true
}

// verifyResult runs the cheap structural checks on a reported
// observation: the attestation must re-derive against the campaign's
// own toolchain identity, and the layout seed must be the leased
// unit's — a layout's derived seed, a search individual's genome
// fingerprint. Both are pure recomputation from the coordinator's spec
// — no re-execution.
func verifyResult(c *campaign, t task, o *core.ObsWire) error {
	if err := o.VerifyAttestation(c.runner.AttestationKey()); err != nil {
		return err
	}
	if want := c.runner.Seed(t.unit()); o.LayoutSeed != want {
		return fmt.Errorf("worker observation has layout seed %#x, %v derives %#x", o.LayoutSeed, t.unit(), want)
	}
	return nil
}

// rejectResult refuses a result that failed verification: the worker is
// blamed (condemned if it just crossed the quarantine threshold), the
// task is released uncharged, and the worker sees 422 — a terminal
// verdict it must not retry.
func (s *Server) rejectResult(w http.ResponseWriter, lease *jobqueue.Lease[task], worker string, err error) {
	s.attRejects.Inc()
	if s.remote.Reject(worker) {
		s.condemnWorker(worker)
	}
	// ErrLeaseLost here means a racing reap or condemnation sweep
	// already requeued the task — exactly once either way.
	lease.Release()
	s.writeJSON(w, http.StatusUnprocessableEntity, errorResponse{Error: err.Error()})
}

// condemnWorker quarantines a worker and returns its live leases to the
// queue with no attempt charged. Exactly one caller observes first and
// records the condemnation; racing completions may both call this, but
// the registry hands each lease out once.
func (s *Server) condemnWorker(worker string) {
	leases, first := s.remote.Condemn(worker)
	if first {
		s.condemned.Inc()
		s.quarGauge.Set(float64(s.remote.QuarantinedCount()))
	}
	for _, l := range leases {
		l.Release()
	}
}

// auditPick decides deterministically whether this completion is
// spot-audited: the sampler is seeded by (campaign seed, task key,
// attempt), so the audit schedule is a property of the campaign, not of
// scheduling or worker count.
func (s *Server) auditPick(c *campaign, t task, attempt int) bool {
	rate := s.cfg.AuditRate
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	key := c.runner.Seed(t.unit())
	return xrand.New(xrand.Mix(0xa0d17ed, c.spec.effectiveSeed(), key, uint64(attempt))).Float64() < rate
}

// audit re-executes the leased task through the campaign's reserved
// runner slot, the way a worker executes it (Measure, one attempt), and
// compares the observation byte for byte with what the worker reported.
// Audits assume the coordinator's own seams are clean (no fault
// injector on the serve path); they run serialized on the one reserved
// slot, so at most one audit's build+measure is in flight.
func (s *Server) audit(c *campaign, t task, got *core.ObsWire) (match bool, err error) {
	s.auditMu.Lock()
	defer s.auditMu.Unlock()
	s.audits.Inc()
	var o core.Observation
	var uerr error
	if err := c.runner.Measure(s.slots.audit(), []core.Unit{t.unit()}, 1, func(_ int, mo core.Observation, merr error) {
		o, uerr = mo, merr
	}); err != nil {
		return false, err
	}
	if uerr != nil {
		return false, uerr
	}
	want := o.Wire()
	want.Fingerprint = want.Attest(c.runner.AttestationKey())
	return auditEqual(*got, want), nil
}

// auditEqual compares two wire observations field by field, fingerprint
// included — the audit's verdict is byte-identity, nothing weaker.
func auditEqual(a, b core.ObsWire) bool {
	return a.LayoutSeed == b.LayoutSeed &&
		a.HeapSeed == b.HeapSeed &&
		a.Cycles == b.Cycles &&
		a.Instructions == b.Instructions &&
		a.Runs == b.Runs &&
		a.Status == b.Status &&
		a.Attempts == b.Attempts &&
		a.Fingerprint == b.Fingerprint &&
		slices.Equal(a.Events, b.Events)
}
