// Command interferometry regenerates the paper's tables and figures from
// the Go reproduction. Each experiment prints the same rows or series the
// paper reports.
//
// Usage:
//
//	interferometry -exp fig2 -scale medium
//	interferometry -exp all -scale small
//	interferometry -list
//
// Experiments: fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig8 table1 sig all.
// Scales: small (seconds per experiment), medium (the default), paper
// (the paper's own sample sizes; minutes).
//
// The -campaign mode runs one standalone, fault-tolerant campaign under
// the supervisor, checkpointing every completed observation:
//
//	interferometry -campaign 400.perlbench -layouts 100 -checkpoint run1/
//	interferometry -campaign 400.perlbench -layouts 100 -checkpoint run1/ -resume
//
// A killed campaign leaves run1/observations.jsonl behind; re-running
// with -resume measures only the missing layouts and produces a dataset
// bit-identical to an uninterrupted run.
//
// With -server the campaign runs on a campaignd service instead; the
// result CSV streams to stdout:
//
//	interferometry -campaign 429.mcf -layouts 100 -server http://localhost:8347 > run.csv
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"interferometry/internal/campaignd"
	"interferometry/internal/core"
	"interferometry/internal/experiments"
	"interferometry/internal/obs"
	"interferometry/internal/obsflag"
	"interferometry/internal/pmc"
	"interferometry/internal/progen"
)

type runner struct {
	name string
	desc string
	run  func(ctx *experiments.Context) (fmt.Stringer, error)
}

// render adapts a Render() string method to fmt.Stringer.
type rendered struct{ s string }

func (r rendered) String() string { return r.s }

func wrap[T interface{ Render() string }](f func(*experiments.Context) (T, error)) func(*experiments.Context) (fmt.Stringer, error) {
	return func(ctx *experiments.Context) (fmt.Stringer, error) {
		res, err := f(ctx)
		if err != nil {
			return nil, err
		}
		return rendered{res.Render()}, nil
	}
}

func runners() []runner {
	return []runner{
		{"fig1", "violin plots of % CPI variation across code reorderings", wrap(experiments.Figure1)},
		{"fig2", "CPI vs MPKI regressions for perlbench and omnetpp", wrap(experiments.Figure2)},
		{"fig3", "cache-effect models for calculix under heap randomization", wrap(experiments.Figure3)},
		{"fig4", "regression extrapolation error over 145 predictor configs", wrap(experiments.Figure4)},
		{"fig5", "MPKI vs normalized CPI lines for the linearity extremes", func(ctx *experiments.Context) (fmt.Stringer, error) {
			res, err := experiments.Figure5(ctx, nil)
			if err != nil {
				return nil, err
			}
			return rendered{res.Render()}, nil
		}},
		{"fig6", "r² blame analysis per microarchitectural event", wrap(experiments.Figure6)},
		{"fig7", "MPKI of real and simulated predictors", wrap(experiments.Figure7)},
		{"fig8", "predicted CPI per predictor with prediction intervals", func(ctx *experiments.Context) (fmt.Stringer, error) {
			res, err := experiments.Figure8(ctx, nil)
			if err != nil {
				return nil, err
			}
			return rendered{res.Render()}, nil
		}},
		{"table1", "least-squares models per benchmark", wrap(experiments.Table1)},
		{"sig", "significance screen with sample escalation", wrap(experiments.Significance)},
		{"ablation", "design-choice ablations of the reproduction itself", wrap(experiments.Ablations)},
		{"ext-icache", "future-work extension: instruction-cache interferometry", wrap(experiments.ExtICache)},
		{"ext-dcache", "future-work extension: data-cache interferometry", wrap(experiments.ExtDCache)},
		{"ext-depth", "pipeline-depth sensitivity: the slope measures the flush cost", wrap(experiments.ExtDepth)},
	}
}

func main() {
	exp := flag.String("exp", "all", "experiment to run (fig1..fig8, table1, sig, all)")
	scaleName := flag.String("scale", "medium", "scale: small, medium or paper")
	workers := flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
	list := flag.Bool("list", false, "list experiments and exit")
	campaign := flag.String("campaign", "", "run one supervised campaign for a benchmark (e.g. 400.perlbench) instead of an experiment")
	server := flag.String("server", "", "submit the campaign to a campaignd URL (e.g. http://localhost:8347) instead of running it in-process")
	layouts := flag.Int("layouts", 0, "campaign layouts (0 = the scale's default)")
	checkpointDir := flag.String("checkpoint", "", "campaign directory for JSONL observation checkpoints")
	resume := flag.Bool("resume", false, "reload the checkpoint and measure only missing layouts")
	retries := flag.Int("retries", 2, "max measurement attempts per layout")
	failureBudget := flag.Int("failure-budget", 0, "layouts allowed to fail before the campaign aborts")
	outlierMAD := flag.Float64("outlier-mad", 0, "re-measure observations further than this many MADs from the median CPI (0 = off)")
	obsFlags := obsflag.Register(flag.CommandLine)
	flag.Parse()

	rs := runners()
	if *list {
		for _, r := range rs {
			fmt.Printf("%-8s %s\n", r.name, r.desc)
		}
		return
	}
	scale, ok := experiments.ScaleByName(*scaleName)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown scale %q (want small, medium or paper)\n", *scaleName)
		os.Exit(2)
	}
	if *campaign != "" && *server != "" {
		if err := runRemoteCampaign(*server, *campaign, *layouts); err != nil {
			fmt.Fprintf(os.Stderr, "campaign %s: %v\n", *campaign, err)
			os.Exit(1)
		}
		return
	}
	if *campaign != "" {
		observer, err := obsFlags.Observer(*campaign)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := runSupervisedCampaign(campaignOptions{
			benchmark:     *campaign,
			scale:         scale,
			layouts:       *layouts,
			workers:       *workers,
			checkpointDir: *checkpointDir,
			resume:        *resume,
			retries:       *retries,
			failureBudget: *failureBudget,
			outlierMAD:    *outlierMAD,
			observer:      observer,
		}); err != nil {
			obsFlags.Close(observer)
			fmt.Fprintf(os.Stderr, "campaign %s: %v\n", *campaign, err)
			os.Exit(1)
		}
		if err := obsFlags.Close(observer); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	observer, err := obsFlags.Observer(*exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	ctx := experiments.NewContext(scale)
	ctx.Workers = *workers
	ctx.Obs = observer

	ran := 0
	for _, r := range rs {
		if *exp != "all" && *exp != r.name {
			continue
		}
		ran++
		start := time.Now()
		res, err := r.run(ctx)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", r.name, err)
			os.Exit(1)
		}
		fmt.Printf("==== %s (%s scale, %s) ====\n%s\n", r.name, scale.Name, time.Since(start).Round(time.Millisecond), res)
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *exp)
		os.Exit(2)
	}
	if err := obsFlags.Close(observer); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// runRemoteCampaign is the campaignd client mode: submit the spec,
// honor backpressure, poll to completion and stream the result CSV to
// stdout. The summary goes to stderr so the CSV can be redirected clean.
func runRemoteCampaign(serverURL, benchmark string, layouts int) error {
	ctx := context.Background()
	client := &campaignd.Client{Base: serverURL}
	st, err := client.SubmitWait(ctx, campaignd.JobSpec{Benchmark: benchmark, Layouts: layouts})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "submitted campaign %s (%d layouts, %d restored from checkpoint)\n",
		st.ID, st.Layouts, st.Restored)
	start := time.Now()
	if st, err = client.Wait(ctx, st.ID, 200*time.Millisecond); err != nil {
		return err
	}
	if st.State != campaignd.StateDone {
		return fmt.Errorf("campaign ended %s: %s", st.State, st.Error)
	}
	fmt.Fprintf(os.Stderr, "campaign %s: %d layouts in %s (%d failed)\n",
		st.ID, st.Completed, time.Since(start).Round(time.Millisecond), st.Failed)
	// Stream the CSV page by page so a paper-scale result never sits
	// whole in this process; the bytes written equal the one-shot blob.
	return client.StreamResult(ctx, st.ID, 256, os.Stdout)
}

// campaignOptions collects the -campaign flags.
type campaignOptions struct {
	benchmark     string
	scale         experiments.Scale
	layouts       int
	workers       int
	checkpointDir string
	resume        bool
	retries       int
	failureBudget int
	outlierMAD    float64
	observer      *obs.Observer
}

// runSupervisedCampaign measures one benchmark under the fault-tolerant
// supervisor and prints the dataset summary and its MPKI model.
func runSupervisedCampaign(opts campaignOptions) error {
	spec, ok := progen.ByName(opts.benchmark)
	if !ok {
		names := make([]string, 0, len(progen.Suite()))
		for _, s := range progen.Suite() {
			names = append(names, s.Name)
		}
		return fmt.Errorf("unknown benchmark (progen knows: %v)", names)
	}
	prog, err := progen.Generate(spec)
	if err != nil {
		return err
	}
	layouts := opts.layouts
	if layouts <= 0 {
		layouts = opts.scale.Layouts
	}
	cfg := core.CampaignConfig{
		Program:       prog,
		InputSeed:     1,
		Budget:        opts.scale.Budget,
		Layouts:       layouts,
		Fidelity:      opts.scale.Fidelity,
		BaseSeed:      0x1f2e3d4c,
		Workers:       opts.workers,
		MaxAttempts:   opts.retries,
		FailureBudget: opts.failureBudget,
		OutlierMAD:    opts.outlierMAD,
		Checkpoint:    core.CheckpointConfig{Dir: opts.checkpointDir, Resume: opts.resume},
		Obs:           opts.observer,
	}
	start := time.Now()
	ds, err := core.RunCampaign(cfg)
	if err != nil {
		if opts.checkpointDir != "" {
			fmt.Fprintf(os.Stderr, "completed observations remain in %s; re-run with -resume\n", opts.checkpointDir)
		}
		return err
	}
	retried := 0
	for _, o := range ds.Obs {
		if o.Status == core.StatusRetried {
			retried++
		}
	}
	fmt.Printf("campaign %s: %d layouts in %s (%d effective, %d retried, %d failed)\n",
		ds.Benchmark, len(ds.Obs), time.Since(start).Round(time.Millisecond),
		ds.EffectiveN(), retried, len(ds.Failures))
	for _, f := range ds.Failures {
		fmt.Printf("  layout %d (seed %#x) failed: %s\n", f.Index, f.LayoutSeed, f.Err)
	}
	if opts.checkpointDir != "" {
		fmt.Printf("checkpoint: %s\n", opts.checkpointDir)
	}
	model, err := ds.FitCPI(pmc.EvBranchMispredicts)
	if err != nil {
		return fmt.Errorf("model fit: %w", err)
	}
	fmt.Println(model)
	return nil
}
