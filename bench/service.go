package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"interferometry/internal/campaignd"
	"interferometry/internal/core"
	"interferometry/internal/experiments"
	"interferometry/internal/interp"
	"interferometry/internal/isa"
	"interferometry/internal/machine"
	"interferometry/internal/obs"
	"interferometry/internal/pmc"
	"interferometry/internal/progen"
	"interferometry/internal/results"
	"interferometry/internal/toolchain"
)

// The service workload: an open loop of small campaigns submitted to a
// campaignd coordinator that executes nothing itself, served by two
// in-process HTTP workers over loopback.
const (
	serviceBench   = "429.mcf"
	serviceLayouts = 16
	serviceBudget  = 100_000
	// serviceRate is the send rate, campaigns/s: about a quarter of the
	// coordinator-plus-two-workers capacity on two cores, so that a host
	// slowing down several-fold for a while still sheds nothing.
	serviceRate = 10
	// servicePoll is the completion watcher's status polling interval.
	servicePoll = 5 * time.Millisecond
	// maxLateness bounds the generator's own p99 lateness; beyond it the
	// run measured the generator, not the service.
	maxLateness = 10 * time.Millisecond
)

type serviceState struct {
	dir     string
	srv     *campaignd.Server
	httpSrv *http.Server
	served  chan error
	client  *campaignd.Client
	// clientRT and workerRT time every request the load generator and the
	// workers make.
	clientRT, workerRT *timingTransport
	srvObs, workerObs  *obs.Observer
	stopWorkers        context.CancelFunc
	workersDone        sync.WaitGroup

	// The trace, builder and scalar machine behind the spot checks and
	// the traced decomposition: every service campaign interprets the
	// same program input, so one trace serves them all.
	prog    *isa.Program
	trace   *interp.Trace
	builder *toolchain.Builder
	scalar  *machine.Machine
	harness *pmc.Harness
	canary  *core.Dataset
}

func serviceSpec(base uint64) campaignd.JobSpec {
	// A zero BaseSeed would select the service's default seed.
	return campaignd.JobSpec{Benchmark: serviceBench, Layouts: serviceLayouts, Budget: serviceBudget, BaseSeed: base | 1}
}

// directConfig is the in-process campaign a service spec means.
func (s *serviceState) directConfig(spec campaignd.JobSpec) core.CampaignConfig {
	return core.CampaignConfig{
		Program:   s.prog,
		InputSeed: 1,
		Budget:    spec.Budget,
		Layouts:   spec.Layouts,
		Fidelity:  experiments.Small.Fidelity,
		BaseSeed:  spec.BaseSeed,
		Workers:   workers,
	}
}

// setupService generates the program, starts the coordinator, its HTTP
// listener and two workers, and runs the canary campaign through them.
func setupService(w *workload, dir string) (*serviceState, error) {
	ps, ok := progen.ByName(serviceBench)
	if !ok {
		return nil, fmt.Errorf("unknown benchmark %s", serviceBench)
	}
	prog, err := progen.Generate(ps)
	if err != nil {
		return nil, err
	}
	trace, err := interp.Run(prog, 1, interp.StopRule{Budget: serviceBudget})
	if err != nil {
		return nil, err
	}
	s := &serviceState{
		dir:       dir,
		prog:      prog,
		trace:     trace,
		builder:   toolchain.NewBuilder(prog, toolchain.CompileConfig{}, toolchain.LinkConfig{}),
		scalar:    machine.New(machine.XeonE5440()),
		srvObs:    &obs.Observer{Metrics: obs.NewMetrics()},
		workerObs: &obs.Observer{Metrics: obs.NewMetrics()},
		harness:   &pmc.Harness{Machine: machine.New(machine.XeonE5440()), Fidelity: experiments.Small.Fidelity},
		served:    make(chan error, 1),
	}
	// campaignd itself always keeps a metrics registry, for /metrics.
	s.srv, err = campaignd.New(campaignd.Config{
		Workers:        workers,
		NoLocalWorkers: true,
		WALDir:         filepath.Join(dir, "wal"),
		CheckpointRoot: filepath.Join(dir, "checkpoints"),
		Obs:            s.srvObs,
	})
	if err != nil {
		return nil, err
	}
	s.srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.srv.Kill()
		return nil, err
	}
	s.httpSrv = campaignd.NewHTTPServer(s.srv.Handler())
	go func() { s.served <- s.httpSrv.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	// The load generator holds at most one connection per core.
	s.clientRT = newTimingTransport(&http.Transport{MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers})
	s.client = &campaignd.Client{Base: base, HTTP: &http.Client{Transport: s.clientRT}}
	s.workerRT = newTimingTransport(&http.Transport{})
	ctx, stop := context.WithCancel(context.Background())
	s.stopWorkers = stop
	for k := 0; k < workers; k++ {
		wk := &campaignd.Worker{
			Coordinator: base,
			ID:          fmt.Sprintf("bench-worker-%d", k),
			HTTP:        &http.Client{Transport: s.workerRT},
			Obs:         s.workerObs,
		}
		s.workersDone.Add(1)
		go func() {
			defer s.workersDone.Done()
			wk.Run(ctx)
		}()
	}

	if err := s.canaryCheck(w); err != nil {
		s.close()
		return nil, fmt.Errorf("canary: %w", err)
	}
	return s, nil
}

// canaryCheck runs the fixed-seed campaign through the service; its
// result CSV must equal a direct RunCampaign's and the pinned digest.
func (s *serviceState) canaryCheck(w *workload) error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	spec := serviceSpec(canarySeeds.base)
	st, err := s.client.Submit(ctx, spec)
	if err != nil {
		return err
	}
	if st, err = s.client.Wait(ctx, st.ID, servicePoll); err != nil {
		return err
	}
	if st.State != campaignd.StateDone {
		return fmt.Errorf("campaign %s: %s", st.State, st.Error)
	}
	got, err := s.client.Result(ctx, st.ID)
	if err != nil {
		return err
	}
	ds, err := core.RunCampaign(s.directConfig(spec))
	if err != nil {
		return err
	}
	var want bytes.Buffer
	if err := results.WriteDatasetCSV(&want, ds); err != nil {
		return err
	}
	if !bytes.Equal(got, want.Bytes()) {
		return errors.New("service result CSV differs from a direct RunCampaign of the same spec")
	}
	s.canary = ds
	sum := sha256.Sum256(got)
	return checkDigest(w, hex.EncodeToString(sum[:]))
}

// close drains the coordinator, stops the workers and the listener, and
// waits for all of them.
func (s *serviceState) close() {
	s.srv.Drain()
	s.stopWorkers()
	s.workersDone.Wait()
	s.httpSrv.Close()
	<-s.served
	s.clientRT.base.CloseIdleConnections()
	s.workerRT.base.CloseIdleConnections()
}

// svcOp is one submitted campaign.
type svcOp struct {
	i     int
	seeds opSeeds
	due   time.Time
	id    string
	lat   time.Duration
	csv   []byte
	err   error
	// root is the traced operation's span (-1 when untraced).
	root int
}

// begin opens a span of a traced operation; untraced operations record
// nothing.
func (op *svcOp) begin(rec *recorder, name string, parent int) int {
	if op.root < 0 {
		return -1
	}
	return rec.begin(name, op.i, 0, parent)
}

func runService(w *workload, o options) (*runStats, *recorder, error) {
	rs := newRunStats(o.ref)
	var s *serviceState
	for k := 0; k < o.setups; k++ {
		if s != nil {
			s.close()
		}
		rw, _ := rs.ref.unit()
		t0 := time.Now()
		var err error
		if s, err = setupService(w, filepath.Join(o.runDir, fmt.Sprintf("setup-%d", k))); err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		rs.setup = append(rs.setup, rw*time.Since(t0).Seconds())
	}
	defer s.close()

	n := int(o.duration.Seconds() * serviceRate)
	if o.ops > 0 {
		n = min(n, o.ops)
	}
	n = max(n, 1)
	var rec *recorder
	if o.trace {
		rec = newRecorder()
		for k, v := range simulatedStats(s.canary) {
			rs.fixed[k] = v
		}
	}
	walFrom, ckptFrom := dirBytes(filepath.Join(s.dir, "wal")), dirBytes(filepath.Join(s.dir, "checkpoints"))
	s.clientRT.reset()
	s.workerRT.reset()
	gcFrom := readGoStats()
	k0 := len(rs.ref.cpus)
	cpu0 := cpuTime()

	ops, loop := s.openLoop(n, o.seed, rec, rs.ref)

	cpu := cpuTime() - cpu0
	units := rs.ref.cpus[k0:]
	for _, c := range units { // the reference ran inside the loop
		cpu -= c
	}
	rs.cpu = cpu * refCPU.Seconds() / quantile(units, 0.5)
	rs.attempted = n
	if loop.lateP99 > maxLateness {
		rs.invalid = fmt.Sprintf("generator p99 lateness %v exceeds %v", loop.lateP99, maxLateness)
	}
	if loop.backlogGrew {
		rs.invalid = "backlog grew over the run"
	}
	fmt.Fprintf(os.Stderr, "bench: service: generator p99 lateness %v, peak in-flight %d\n", loop.lateP99, loop.peakInFlight)
	if o.trace {
		rs.fixed["bench.generator_late_p99_ms"] = float64(loop.lateP99) / 1e6
		rs.fixed["jobqueue.queue_depth_max"] = loop.depthMax
		rs.fixed["jobqueue.lease_expiries"] = float64(s.srvObs.Counter("campaignd_lease_expiries_total", "").Value())
		rs.fixed["jobqueue.shed"] = float64(s.srvObs.Counter("campaignd_shed_total", "").Value())
		rs.fixed["wal.bytes_per_op"] = float64(dirBytes(filepath.Join(s.dir, "wal"))-walFrom) / float64(n)
		rs.fixed["checkpoint.bytes_per_op"] = float64(dirBytes(filepath.Join(s.dir, "checkpoints"))-ckptFrom) / float64(n)
		for k, v := range goLayers(readGoStats().sub(gcFrom), n) {
			rs.fixed[k] = v
		}
		for k, v := range s.requestLayers(n) {
			rs.fixed[k] = v
		}
		for k, v := range coreInstruments(s.workerObs.Metrics) {
			rs.fixed[k] = v
		}
	}

	// Outside the timed region: every operation's checks.
	var tracedLat, plainLat []float64
	last := loop.start
	for _, op := range ops {
		err := op.err
		if err == nil {
			err = s.checkResult(op, rec)
		}
		if err == nil && op.root >= 0 && op.i%traceEvery == 1 {
			err = s.decompose(rec, op, cpu/float64(n), rs)
		}
		if err != nil {
			rs.opFailed(w, op.i, err)
			continue
		}
		lat := loop.scale[op.i] * op.lat.Seconds()
		rs.lat = append(rs.lat, lat)
		rs.layouts += serviceLayouts
		if done := op.due.Add(op.lat); done.After(last) {
			last = done
		}
		if op.root >= 0 {
			tracedLat = append(tracedLat, lat)
		} else {
			plainLat = append(plainLat, lat)
		}
	}
	// The open loop's throughput is the rate it was offered, in real time.
	rs.wall = last.Sub(loop.start).Seconds()
	if o.trace && len(tracedLat) > 0 && len(plainLat) > 0 {
		rs.fixed["bench.trace_overhead"] = quantile(tracedLat, 0.5) / quantile(plainLat, 0.5)
	}
	return rs, rec, nil
}

// loopStats describes the open loop itself.
type loopStats struct {
	start        time.Time
	lateP99      time.Duration
	peakInFlight int
	backlogGrew  bool
	depthMax     float64
	// scale is the wall factor of each period's reference unit.
	scale []float64
}

// openLoop sends n campaigns on a fixed schedule from one goroutine and
// detects their completion from one watcher goroutine that polls every
// in-flight campaign's status. A third goroutine runs one unit of the host
// reference three quarters into every period, when the campaign sent at
// its start has normally finished; that unit scales the campaign's
// latency. In a traced run, odd-numbered operations record client-side
// spans.
func (s *serviceState) openLoop(n int, seed uint64, rec *recorder, ref *hostRef) ([]*svcOp, loopStats) {
	period := time.Second / serviceRate
	ls := loopStats{start: time.Now().Add(period), scale: make([]float64, n)}
	ctx, cancel := context.WithDeadline(context.Background(), ls.start.Add(time.Duration(n)*period+60*time.Second))
	defer cancel()
	ops := make([]*svcOp, n)
	sent := make(chan *svcOp, n) // one slot per send: the generator never blocks on the watcher
	late := make([]float64, n)

	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := range n {
			time.Sleep(time.Until(ls.start.Add(time.Duration(i)*period + 3*period/4)))
			ls.scale[i], _ = ref.unit()
		}
	}()
	go func() { // generator
		defer wg.Done()
		defer close(sent)
		for i := range ops {
			op := &svcOp{i: i, seeds: seedsFor(seed, i), due: ls.start.Add(time.Duration(i) * period), root: -1}
			ops[i] = op
			time.Sleep(time.Until(op.due))
			late[i] = float64(time.Since(op.due))
			if rec != nil && i%2 == 1 {
				op.root = rec.begin("op", i, 0, -1)
			}
			sp := op.begin(rec, "campaignd.Submit", op.root)
			st, err := s.client.Submit(ctx, serviceSpec(op.seeds.base))
			rec.end(sp, 0)
			if err != nil {
				op.err = err
				continue
			}
			op.id = st.ID
			sent <- op
		}
	}()
	var inflight [2]struct{ sum, n float64 } // first and second half of the schedule
	go func() {                              // completion watcher
		defer wg.Done()
		var pending []*svcOp
		tick := time.NewTicker(servicePoll)
		defer tick.Stop()
		ch := sent
		for ch != nil || len(pending) > 0 {
			select {
			case op, ok := <-ch:
				if !ok {
					ch = nil
				} else {
					pending = append(pending, op)
				}
				continue
			case <-tick.C:
			case <-ctx.Done():
				for _, op := range pending {
					op.err = fmt.Errorf("campaign %s not done: %w", op.id, ctx.Err())
				}
				return
			}
			keep := pending[:0]
			for _, op := range pending {
				if !s.poll(ctx, op, rec) {
					keep = append(keep, op)
				}
			}
			pending = keep
			ls.peakInFlight = max(ls.peakInFlight, len(pending))
			if elapsed := time.Since(ls.start); elapsed > 0 && ch != nil {
				half := min(int(2*elapsed/(time.Duration(n)*period)), 1)
				inflight[half].sum += float64(len(pending))
				inflight[half].n++
			}
			ls.depthMax = max(ls.depthMax, s.srvObs.Gauge("campaignd_queue_depth", "").Value())
		}
	}()
	wg.Wait()
	ls.lateP99 = time.Duration(quantile(late, 0.99))
	if a, b := inflight[0], inflight[1]; a.n > 0 && b.n > 0 {
		// A stable open loop keeps a steady number of campaigns in
		// flight; an overloaded one accumulates them.
		ls.backlogGrew = b.sum/b.n > 2*a.sum/a.n+2
	}
	return ops, ls
}

// poll checks one in-flight campaign and, once it is done, fetches its
// result CSV. It reports whether the operation has finished.
func (s *serviceState) poll(ctx context.Context, op *svcOp, rec *recorder) bool {
	sp := op.begin(rec, "campaignd.Status", op.root)
	st, err := s.client.Status(ctx, op.id)
	rec.end(sp, 0)
	switch {
	case err != nil:
		op.err = err
		return true
	case st.State == campaignd.StateRunning:
		return false
	case st.State != campaignd.StateDone:
		op.err = fmt.Errorf("campaign %s: %s", st.State, st.Error)
		return true
	}
	sp = op.begin(rec, "campaignd.Result", op.root)
	op.csv, op.err = s.client.Result(ctx, op.id)
	op.lat = time.Since(op.due)
	rec.end(sp, 0)
	rec.end(op.root, 0)
	return true
}

// checkResult verifies one campaign's result CSV: every layout measured
// cleanly on the full trace, and one sampled layout's row reproduced by a
// scalar replay of the same layout.
func (s *serviceState) checkResult(op *svcOp, rec *recorder) error {
	rows, err := results.ReadDatasetCSV(bytes.NewReader(op.csv))
	if err != nil {
		return err
	}
	if len(rows) != serviceLayouts {
		return fmt.Errorf("result has %d rows, want %d", len(rows), serviceLayouts)
	}
	for _, r := range rows {
		if r.Status != core.StatusOK.String() || r.Attempts != 1 || r.Instructions != s.trace.Instrs {
			return fmt.Errorf("layout seed %d: status %s after %d attempts, %d instructions", r.LayoutSeed, r.Status, r.Attempts, r.Instructions)
		}
	}
	j := int(op.seeds.base % serviceLayouts)
	exe, err := s.builder.Build(rows[j].LayoutSeed)
	if err != nil {
		return err
	}
	chk := op.begin(rec, "check", op.root)
	defer rec.end(chk, 0)
	sp := op.begin(rec, "machine.RunDeterministic", chk)
	c, _, err := s.scalar.RunDeterministic(machine.RunSpec{Exe: exe, Trace: s.trace})
	rec.end(sp, float64(s.trace.Instrs))
	if err != nil {
		return err
	}
	m := pmc.Measurement{Cycles: rows[j].Cycles, Instructions: c.Instructions}
	m.Events = [pmc.NumEvents]uint64{c.Instructions, c.BranchMispredicts, c.L1IMisses, c.L2Misses, c.L1DMisses}
	return s.sameRow(op.csv, j, core.Observation{LayoutSeed: rows[j].LayoutSeed, Measurement: m, Attempts: 1})
}

// sameRow compares CSV row j with the row the observation formats to.
// Cycles come from the row itself: the replay has no measurement noise.
func (s *serviceState) sameRow(csv []byte, j int, o core.Observation) error {
	var want bytes.Buffer
	ds := &core.Dataset{Benchmark: serviceBench, Obs: []core.Observation{o}}
	if err := results.WriteDatasetCSVRange(&want, ds, 0, 1, false); err != nil {
		return err
	}
	lines := strings.SplitAfter(string(csv), "\n")
	if j+1 >= len(lines) || lines[j+1] != want.String() {
		return fmt.Errorf("layout %d: replay formats to %q, service returned %q", j, want.String(), lines[min(j+1, len(lines)-1)])
	}
	return nil
}

// decompose replays one service campaign layer by layer as the workers
// execute it, compares every layout with the service's result, and
// measures the direct RunCampaign of the same spec for the service's CPU
// overhead. cpuPerOp is the service's CPU per campaign.
func (s *serviceState) decompose(rec *recorder, op *svcOp, cpuPerOp float64, rs *runStats) error {
	spec := serviceSpec(op.seeds.base)
	cpu0, t0 := cpuTime(), time.Now()
	ds, err := core.RunCampaign(s.directConfig(spec))
	wall, cpu := time.Since(t0), cpuTime()-cpu0
	if err != nil {
		return err
	}

	dec := rec.begin("decomposed", op.i, 0, op.root)
	sp := rec.begin("interp.Run", op.i, 0, dec)
	trace, err := interp.Run(s.prog, 1, interp.StopRule{Budget: serviceBudget})
	rec.end(sp, float64(trace.Instrs))
	if err != nil {
		return err
	}
	sp = rec.begin("toolchain.NewBuilder", op.i, 0, dec)
	builder := toolchain.NewBuilder(s.prog, toolchain.CompileConfig{}, toolchain.LinkConfig{})
	rec.end(sp, 0)
	obsv := make([]core.Observation, serviceLayouts)
	for i, want := range ds.Obs {
		if err := s.measureLayout(rec, op, dec, builder, trace, want, i, obsv); err != nil {
			return err
		}
	}
	sp = rec.begin("results.WriteDatasetCSV", op.i, 0, dec)
	var csv bytes.Buffer
	err = results.WriteDatasetCSV(&csv, &core.Dataset{Benchmark: serviceBench, Config: ds.Config, Trace: trace, Obs: obsv})
	rec.end(sp, 0)
	rec.end(dec, 0)
	if err != nil {
		return err
	}

	layers := layerMetrics(rec.sumByName(op.root))
	layers["interp.trace_mb"] = float64(traceBytes(trace)) / (1 << 20)
	layers["core.residual_ms"] = float64(op.lat-rec.accounted(dec, workers)) / 1e6
	layers["core.campaign_ms"] = float64(wall) / 1e6
	layers["campaignd.overhead_cpu_ms"] = (cpuPerOp - cpu) * 1e3
	rs.addLayers(layers)
	return nil
}

// measureLayout is one worker task: build, check and measure one layout
// without a batched walk, as the workers do, then compare with the
// service's row.
func (s *serviceState) measureLayout(rec *recorder, op *svcOp, parent int, builder *toolchain.Builder, trace *interp.Trace, want core.Observation, i int, out []core.Observation) error {
	sp := rec.begin("toolchain.Build", op.i, lane(i), parent)
	exe, err := builder.Build(want.LayoutSeed)
	if err == nil {
		err = toolchain.CheckExecutable(exe, i)
	}
	rec.end(sp, 0)
	if err != nil {
		return err
	}
	sp = rec.begin("pmc.Harness.Measure", op.i, lane(i), parent)
	m, err := s.harness.Measure(machine.RunSpec{Exe: exe, Trace: trace, NoiseSeed: want.LayoutSeed})
	rec.end(sp, 0)
	if err != nil {
		return err
	}
	m.Cycles = want.Cycles
	out[i] = core.Observation{LayoutSeed: want.LayoutSeed, Measurement: m, Attempts: 1}
	return s.sameRow(op.csv, i, out[i])
}

// requestLayers summarizes the requests the generator and the workers
// made during the timed loop.
func (s *serviceState) requestLayers(ops int) map[string]float64 {
	c, w := s.clientRT.snapshot(), s.workerRT.snapshot()
	ms := func(ds []float64) float64 { return quantile(ds, 0.5) * 1e3 }
	lease := 0.0
	for _, d := range w["lease"] {
		lease += d
	}
	total := 0
	for _, ds := range c {
		total += len(ds)
	}
	for _, ds := range w {
		total += len(ds)
	}
	return map[string]float64{
		"campaignd.submit_ms":       ms(c["submit"]),
		"campaignd.status_ms":       ms(c["status"]),
		"campaignd.result_ms":       ms(c["result"]),
		"campaignd.complete_ms":     ms(w["complete"]),
		"campaignd.lease_wait_ms":   lease * 1e3 / float64(ops),
		"campaignd.requests_per_op": float64(total) / float64(ops),
	}
}

// timingTransport records the duration of every request by endpoint.
type timingTransport struct {
	base *http.Transport

	mu   sync.Mutex
	durs map[string][]float64
}

func newTimingTransport(base *http.Transport) *timingTransport {
	return &timingTransport{base: base, durs: map[string][]float64{}}
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t0 := time.Now()
	resp, err := t.base.RoundTrip(req)
	d := time.Since(t0).Seconds()
	t.mu.Lock()
	t.durs[endpoint(req)] = append(t.durs[endpoint(req)], d)
	t.mu.Unlock()
	return resp, err
}

func (t *timingTransport) reset() {
	t.mu.Lock()
	t.durs = map[string][]float64{}
	t.mu.Unlock()
}

func (t *timingTransport) snapshot() map[string][]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string][]float64, len(t.durs))
	for k, v := range t.durs {
		out[k] = append([]float64(nil), v...)
	}
	return out
}

// endpoint names the campaignd API call a request makes.
func endpoint(req *http.Request) string {
	p := req.URL.Path
	switch {
	case strings.HasPrefix(p, "/worker/"):
		return strings.TrimPrefix(p, "/worker/")
	case p == "/campaigns" && req.Method == http.MethodPost:
		return "submit"
	case strings.HasSuffix(p, "/result"):
		return "result"
	case strings.HasPrefix(p, "/campaigns/"):
		return "status"
	}
	return p
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, ierr := d.Info(); ierr == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
