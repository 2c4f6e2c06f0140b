package campaignd

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"interferometry/internal/core"
	"interferometry/internal/jobqueue"
	"interferometry/internal/results"
)

// NewHTTPServer wraps a handler in an http.Server with the service's
// standard hardening: header-read and idle timeouts plus a header size
// bound, so a stuck or malicious client cannot pin connection state
// forever. Body timeouts stay unset on purpose — /worker/lease
// long-polls and CSV streams are legitimately slow; the lease handler
// bounds its own poll server-side.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    1 << 20,
	}
}

// Handler returns the service's HTTP API:
//
//	POST /campaigns                  submit a JobSpec; 202 with its Status,
//	                                 429 + Retry-After when shed (capacity or
//	                                 tenant quota), 503 when draining. The
//	                                 X-Tenant header attributes the campaign
//	                                 (equivalent to the spec's tenant field;
//	                                 setting both to different values is a 400)
//	GET  /campaigns/{id}             campaign Status
//	GET  /campaigns/{id}/result      finished dataset as CSV (with provenance columns);
//	                                 202 + Retry-After while running. ?offset=O&limit=N
//	                                 streams one page of N rows starting at row O
//	                                 (header only at offset 0); X-Next-Offset names
//	                                 the next page while more rows remain, and the
//	                                 concatenated pages are byte-identical to the blob
//	GET  /campaigns/{id}/measurements  measurement-only canonical CSV — byte-identical
//	                                 across faulted and clean runs of the same spec;
//	                                 same offset/limit paging
//	GET  /campaigns/{id}/generations search campaign: settled generations as CSV,
//	                                 streamable while the search runs; ?canonical=1
//	                                 for the measurement-only export, offset/limit
//	                                 page in generation units
//	GET  /campaigns/{id}/report      search campaign: finished summary as canonical
//	                                 JSON; 202 + Retry-After while running
//	GET  /healthz                    liveness (always 200 while the process serves)
//	GET  /readyz                     admission readiness (503 once draining)
//	GET  /queuez                     queue, lease and per-tenant introspection
//	GET  /metrics                    Prometheus metrics export
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /campaigns", s.handleSubmit)
	mux.HandleFunc("GET /campaigns/{id}", s.handleStatus)
	mux.HandleFunc("GET /campaigns/{id}/result", s.handleResult)
	mux.HandleFunc("GET /campaigns/{id}/measurements", s.handleMeasurements)
	mux.HandleFunc("GET /campaigns/{id}/generations", s.handleGenerations)
	mux.HandleFunc("GET /campaigns/{id}/report", s.handleReport)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.Draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("GET /queuez", s.handleQueuez)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /worker/lease", s.handleLease)
	mux.HandleFunc("POST /worker/heartbeat", s.handleHeartbeat)
	mux.HandleFunc("POST /worker/complete", s.handleComplete)
	return mux
}

// writeJSON encodes v as the response body. Encode errors cannot be
// reported to the client (the status line is already on the wire), so
// they are counted instead of discarded — a climbing
// campaignd_http_write_errors_total points at dying connections or an
// unencodable response type.
func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		s.writeErrs.Inc()
	}
}

type errorResponse struct {
	Error string `json:"error"`
}

// maxSpecBytes caps a submitted spec body. Specs are a handful of scalar
// fields; anything beyond 1 MiB is a mistake or an attack, and without
// the cap the decoder would read an arbitrarily large body into memory
// before rejecting it.
const maxSpecBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	// A typo-keyed field ("layout" for "layouts") would otherwise be
	// dropped silently and the campaign would run with the default.
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad spec: " + err.Error()})
		return
	}
	if h := r.Header.Get("X-Tenant"); h != "" {
		if spec.Tenant != "" && spec.Tenant != h {
			s.writeJSON(w, http.StatusBadRequest, errorResponse{
				Error: fmt.Sprintf("campaignd: X-Tenant %q conflicts with spec tenant %q", h, spec.Tenant)})
			return
		}
		spec.Tenant = h
	}
	st, err := s.Submit(spec)
	switch {
	case errors.Is(err, ErrOverloaded), errors.Is(err, ErrTenantOverQuota):
		// Backpressure: the client should retry once leased work has
		// completed or been reaped.
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.RetryAfter())))
		s.writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: err.Error()})
	case errors.Is(err, ErrDraining):
		s.writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
	case err != nil:
		s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
	default:
		s.writeJSON(w, http.StatusAccepted, st)
	}
}

func retryAfterSeconds(d time.Duration) int {
	secs := int(d / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	c, ok := s.lookup(r.PathValue("id"))
	if !ok {
		s.writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown campaign"})
		return
	}
	s.writeJSON(w, http.StatusOK, c.snapshot())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	s.serveCSV(w, r, results.WriteDatasetCSVRange)
}

func (s *Server) handleMeasurements(w http.ResponseWriter, r *http.Request) {
	s.serveCSV(w, r, results.WriteMeasurementsCSVRange)
}

// csvPage parses the offset/limit paging parameters. limit <= 0 (or
// absent) means the whole dataset in one response.
func csvPage(r *http.Request) (offset, limit int, err error) {
	q := r.URL.Query()
	if v := q.Get("offset"); v != "" {
		if offset, err = strconv.Atoi(v); err != nil || offset < 0 {
			return 0, 0, fmt.Errorf("bad offset %q", v)
		}
	}
	if v := q.Get("limit"); v != "" {
		if limit, err = strconv.Atoi(v); err != nil {
			return 0, 0, fmt.Errorf("bad limit %q", v)
		}
	}
	return offset, limit, nil
}

// serveCSV streams a finished dataset, whole or one page at a time.
// Pages are keyed by row (= layout) index: the header is written only
// at offset 0 and X-Next-Offset names the next page while rows remain,
// so a client concatenating pages reproduces the blob byte for byte
// while the server never buffers more than one page.
func (s *Server) serveCSV(w http.ResponseWriter, r *http.Request, write func(io.Writer, *core.Dataset, int, int, bool) error) {
	c, ok := s.lookup(r.PathValue("id"))
	if !ok {
		s.writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown campaign"})
		return
	}
	offset, limit, perr := csvPage(r)
	if perr != nil {
		s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: perr.Error()})
		return
	}
	ds, err := c.dataset()
	switch {
	case errors.Is(err, errNotDone):
		w.Header().Set("Retry-After", "1")
		s.writeJSON(w, http.StatusAccepted, c.snapshot())
		return
	case err != nil:
		s.writeJSON(w, http.StatusConflict, c.snapshot())
		return
	}
	rows := len(ds.Obs)
	n := rows - offset
	if limit > 0 && limit < n {
		n = limit
	}
	if n < 0 {
		n = 0
	}
	w.Header().Set("Content-Type", "text/csv")
	w.Header().Set("X-Total-Rows", strconv.Itoa(rows))
	if limit > 0 && offset+n < rows {
		w.Header().Set("X-Next-Offset", strconv.Itoa(offset+n))
	}
	// The header rides only a page that carries row 0. An empty page —
	// offset at or past the final row — must stay byte-empty, or a
	// client polling past the end (tailing an incremental export)
	// would accumulate duplicate header rows.
	if err := write(w, ds, offset, n, offset == 0 && n > 0); err != nil {
		// Headers are gone; all we can do is cut the stream short.
		return
	}
}

// handleGenerations streams a search campaign's settled generations as
// CSV — available while the search still runs, because settled
// generations are immutable. ?canonical=1 drops the provenance columns
// (the measurement-only export is byte-identical across faulted and
// clean runs); ?offset=O&limit=N pages in generation units with the
// header only at offset 0, so concatenated pages reproduce the blob.
// X-Total-Rows counts generations settled so far; a client polls the
// campaign Status to learn when the trajectory is complete.
func (s *Server) handleGenerations(w http.ResponseWriter, r *http.Request) {
	c, ok := s.lookup(r.PathValue("id"))
	if !ok {
		s.writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown campaign"})
		return
	}
	offset, limit, perr := csvPage(r)
	if perr != nil {
		s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: perr.Error()})
		return
	}
	gens, isSearch := c.searchGenerations()
	if !isSearch {
		s.writeJSON(w, http.StatusConflict, errorResponse{
			Error: "campaignd: layout campaign has no generations; fetch its result"})
		return
	}
	provenance := r.URL.Query().Get("canonical") == ""
	total := len(gens)
	n := total - offset
	if limit > 0 && limit < n {
		n = limit
	}
	if n < 0 {
		n = 0
	}
	w.Header().Set("Content-Type", "text/csv")
	w.Header().Set("X-Total-Rows", strconv.Itoa(total))
	if limit > 0 && offset+n < total {
		w.Header().Set("X-Next-Offset", strconv.Itoa(offset+n))
	}
	page := gens[min(offset, total):min(offset+n, total)]
	// Header only on a page carrying generation 0: a poll at or past the
	// settled frontier (the normal tailing pattern while the search
	// runs, including offset 0 before anything settles) must return a
	// byte-empty body so concatenated polls reproduce the blob exactly.
	if err := results.WriteGenerationsCSVRange(w, c.spec.Benchmark, page, offset == 0 && n > 0, provenance); err != nil {
		return // headers are gone; cut the stream short
	}
}

// handleReport serves a finished search campaign's summary (best layout,
// trajectory, hashes) as canonical JSON — the blob chaos runs compare
// byte for byte against the single-process reference. 202 with the
// Status while the search still runs.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	c, ok := s.lookup(r.PathValue("id"))
	if !ok {
		s.writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown campaign"})
		return
	}
	res, err := c.searchResult()
	switch {
	case errors.Is(err, errNotDone):
		w.Header().Set("Retry-After", "1")
		s.writeJSON(w, http.StatusAccepted, c.snapshot())
		return
	case err != nil:
		s.writeJSON(w, http.StatusConflict, c.snapshot())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := results.WriteJSON(w, results.SummarizeSearch(res)); err != nil {
		return
	}
}

// tenantz is one tenant's row in /queuez: queue occupancy from the
// scheduler plus the campaigns the tenant has in flight.
type tenantz struct {
	Queued    int `json:"queued"`
	Leased    int `json:"leased"`
	Quota     int `json:"quota,omitempty"`
	Campaigns int `json:"campaigns"`
}

type queuezResponse struct {
	Depth        int                              `json:"depth"`
	Leased       int                              `json:"leased"`
	RemoteLeases int                              `json:"remote_leases"`
	Capacity     int                              `json:"capacity"`
	Campaigns    int                              `json:"campaigns"`
	Draining     bool                             `json:"draining"`
	WALLive      int                              `json:"wal_live_campaigns,omitempty"`
	Tenants      map[string]tenantz               `json:"tenants,omitempty"`
	Workers      map[string]jobqueue.WorkerHealth `json:"workers,omitempty"`
}

func (s *Server) handleQueuez(w http.ResponseWriter, r *http.Request) {
	tenants := make(map[string]tenantz)
	for tenant, tc := range s.queue.Tenants() {
		tenants[tenant] = tenantz{Queued: tc.Queued, Leased: tc.Leased, Quota: tc.Quota}
	}
	s.mu.Lock()
	n := len(s.campaigns)
	for _, c := range s.campaigns {
		t := tenants[c.spec.Tenant]
		t.Campaigns++
		tenants[c.spec.Tenant] = t
	}
	s.mu.Unlock()
	resp := queuezResponse{
		Depth:        s.queue.Depth(),
		Leased:       s.queue.Leased(),
		RemoteLeases: s.remote.Len(),
		Capacity:     s.queue.Capacity(),
		Campaigns:    n,
		Draining:     s.Draining(),
		Tenants:      tenants,
	}
	if workers := s.remote.Workers(); len(workers) > 0 {
		resp.Workers = workers
	}
	if s.wal != nil {
		resp.WALLive = s.wal.Live()
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Obs == nil || s.cfg.Obs.Metrics == nil {
		http.Error(w, "metrics not enabled", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.cfg.Obs.WriteMetricsPrometheus(w)
}
