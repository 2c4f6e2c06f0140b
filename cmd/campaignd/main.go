// Command campaignd serves the resilient campaign job service: campaigns
// submitted as JSON are decomposed into per-layout tasks on a bounded
// priority queue and measured in lease groups, one shared trace walk per
// campaign's part of a group, under leases and seeded-backoff retries.
// Determinism makes the resilience free of caveats — whatever faults or
// restarts disturb the schedule, a finished campaign's dataset is
// byte-identical to a clean run.
//
// Serve mode:
//
//	campaignd -addr localhost:8347 -workers 4 -checkpoint-root /var/lib/campaignd
//
// Endpoints: POST /campaigns, GET /campaigns/{id}[/result|/measurements],
// /healthz, /readyz, /queuez, /metrics. SIGTERM drains gracefully: stop
// admission, finish the lease groups the task loops hold, flush
// checkpoints, exit.
//
// Scale-out: a server started with -workers 0 is a pure coordinator;
// any number of worker processes on other machines pull its leased
// layout tasks over HTTP and stream observations back. The merged
// dataset is byte-identical whatever the worker count or ordering:
//
//	campaignd -addr :8347 -workers 0 -checkpoint-root /var/lib/campaignd
//	campaignd -worker -coordinator http://coordinator:8347 -workers 4
//
// The byte-identity claim under injected faults, lying workers and
// coordinator kills is held by the chaos soak, a test table in
// internal/campaignd (go test -run '^TestChaosSoak$' -v
// ./internal/campaignd).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"interferometry/internal/campaignd"
	"interferometry/internal/experiments"
	"interferometry/internal/jobqueue/backoff"
	"interferometry/internal/obs"
	"interferometry/internal/obsflag"
)

func main() {
	var (
		addr           = flag.String("addr", "localhost:8347", "listen address")
		scaleName      = flag.String("scale", "small", "default campaign scale: small, medium or paper")
		workers        = flag.Int("workers", 2, "task loops (serve: 0 = coordinator only; worker: concurrent lease groups)")
		workerMode     = flag.Bool("worker", false, "run as a remote worker pulling tasks from -coordinator")
		coordinator    = flag.String("coordinator", "", "coordinator base URL for -worker mode, e.g. http://host:8347")
		queueCap       = flag.Int("queue-capacity", 256, "max tasks in the system (queued + leased)")
		lease          = flag.Duration("lease", 30*time.Second, "task lease duration without a heartbeat")
		maxAttempts    = flag.Int("max-attempts", 3, "executions per layout before permanent failure")
		checkpointRoot = flag.String("checkpoint-root", "", "directory for per-campaign checkpoints (empty = off; defaults to <wal-dir>/checkpoints when -wal-dir is set)")
		walDir         = flag.String("wal-dir", "", "directory for the write-ahead log; submissions are replayed and resumed after a crash (empty = off)")
		workerID       = flag.String("worker-id", "", "worker mode: identity reported on leases for fleet health tracking (empty = <hostname>-<pid>)")

		auditRate     = flag.Float64("audit-rate", 0, "fraction of accepted remote results the coordinator re-executes and byte-compares (0 = off, 1 = all)")
		quarThreshold = flag.Int("quarantine-threshold", 0, "rejected results within a worker's health window before it is quarantined (0 = default 3)")

		tenantQueued    = flag.Int("tenant-max-queued", 0, "per-tenant cap on tasks in the system, queued + leased (0 = unlimited)")
		tenantCampaigns = flag.Int("tenant-max-campaigns", 0, "per-tenant cap on running campaigns (0 = unlimited)")
		fairQuantum     = flag.Int("fair-quantum", 0, "tasks a tenant pops per fair-scheduling turn (0 = 1)")

		backoffBase   = flag.Duration("backoff-base", 50*time.Millisecond, "first retry delay")
		backoffCap    = flag.Duration("backoff-cap", 2*time.Second, "max retry delay")
		backoffJitter = flag.Float64("backoff-jitter", 0.5, "seeded jitter fraction of each delay [0,1]")
	)
	obsFlags := obsflag.Register(flag.CommandLine)
	flag.Parse()

	scale, ok := experiments.ScaleByName(*scaleName)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown scale %q (want small, medium or paper)\n", *scaleName)
		os.Exit(2)
	}

	observer, err := obsFlags.Observer("campaignd")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if observer == nil {
		// The service always keeps a metrics registry: /metrics should
		// work without any -metrics-out flag.
		observer = &obs.Observer{Metrics: obs.NewMetrics()}
	} else if observer.Metrics == nil {
		observer.Metrics = obs.NewMetrics()
	}

	if *workerMode {
		if *coordinator == "" {
			fmt.Fprintln(os.Stderr, "-worker needs -coordinator URL")
			os.Exit(2)
		}
		w := &campaignd.Worker{
			Coordinator: *coordinator,
			ID:          *workerID,
			Parallel:    *workers,
			Obs:         observer,
		}
		ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
		defer stop()
		fmt.Printf("campaignd worker pulling from %s (%d parallel)\n", *coordinator, *workers)
		if err := w.Run(ctx); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := obsFlags.Close(observer); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println("campaignd worker stopped")
		return
	}

	if *walDir != "" && *checkpointRoot == "" {
		// Durability is only whole if results persist alongside intent:
		// a WAL without checkpoints would replay submissions but re-run
		// every layout from scratch.
		*checkpointRoot = filepath.Join(*walDir, "checkpoints")
	}
	srv, err := campaignd.New(campaignd.Config{
		Scale:                 scale,
		Workers:               *workers,
		NoLocalWorkers:        *workers == 0,
		QueueCapacity:         *queueCap,
		Lease:                 *lease,
		MaxAttempts:           *maxAttempts,
		CheckpointRoot:        *checkpointRoot,
		WALDir:                *walDir,
		MaxQueuedPerTenant:    *tenantQueued,
		MaxCampaignsPerTenant: *tenantCampaigns,
		FairQuantum:           *fairQuantum,
		AuditRate:             *auditRate,
		QuarantineThreshold:   *quarThreshold,
		Backoff:               backoff.Policy{Base: *backoffBase, Cap: *backoffCap, Jitter: *backoffJitter},
		Obs:                   observer,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	srv.Start()
	stopSignals := srv.DrainOnSignal()
	defer stopSignals()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	httpSrv := campaignd.NewHTTPServer(srv.Handler())
	go func() {
		if serr := httpSrv.Serve(ln); serr != nil && !errors.Is(serr, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "campaignd: %v\n", serr)
			os.Exit(1)
		}
	}()
	fmt.Printf("campaignd listening on %s (scale %s, %d workers, queue %d)\n",
		ln.Addr(), scale.Name, *workers, *queueCap)

	// Serve until a signal starts the drain; exit once it finishes.
	<-srv.Done()
	httpSrv.Close()
	if err := obsFlags.Close(observer); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println("campaignd drained cleanly")
}
