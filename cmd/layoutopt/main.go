// Command layoutopt searches the layout space: a seeded evolutionary
// optimization over procedure orders and link orders (campaignd's
// "search" campaigns, core.RunSearch) that reports the best-found CPI
// against the paper's §6.3 random-sampling distribution — the median of
// n layouts drawn under a held-out seed, with a bootstrap confidence
// interval — so "the search beats sampling" is a statistical statement,
// not an anecdote.
//
// Usage:
//
//	layoutopt -bench 400.perlbench -population 12 -generations 6
//	layoutopt -bench 429.mcf -json report.json
//	layoutopt -server http://coordinator:8347 -bench 429.mcf
//
// With -server the search runs on a campaignd coordinator (and its
// workers) as a kind "search" campaign; the sampling baseline is still
// measured locally, under the held-out seed, so the comparison never
// shares a layout with the search's genome streams.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
	"time"

	"interferometry/internal/campaignd"
	"interferometry/internal/core"
	"interferometry/internal/experiments"
	"interferometry/internal/progen"
	"interferometry/internal/results"
	"interferometry/internal/stats"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command behind main: it parses args, searches, prints the
// report to stdout and returns the exit code — 0 when the search beats
// the sampling baseline (or none was measured), 1 when it does not or
// on failure, 2 on bad usage.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("layoutopt", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		bench       = fs.String("bench", "400.perlbench", "benchmark name from the suite")
		scaleName   = fs.String("scale", "small", "experiment scale: small, medium or paper")
		population  = fs.Int("population", 0, "individuals per generation (0 = search default 16)")
		generations = fs.Int("generations", 0, "generations to run (0 = search default 8)")
		elite       = fs.Int("elite", 0, "best individuals surviving unchanged (0 = default 2)")
		tournament  = fs.Int("tournament", 0, "tournament size for parent selection (0 = default 3)")
		budget      = fs.Uint64("budget", 0, "instructions per run (0 = scale default)")
		seed        = fs.Uint64("seed", 0x1f2e3d4c, "base seed of the search's genome streams")
		workers     = fs.Int("workers", 0, "parallel measurement slots (0 = GOMAXPROCS, capped at the population)")
		baselineN   = fs.Int("baseline", 32, "random layouts in the held-out sampling baseline (0 disables)")
		bootstrapB  = fs.Int("bootstrap", 1000, "bootstrap resamples for the baseline median CI")
		jsonOut     = fs.String("json", "", "write the summary JSON to this file (\"-\" = stdout)")
		server      = fs.String("server", "", "run the search on this campaignd coordinator instead of locally")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	scale, ok := experiments.ScaleByName(*scaleName)
	if !ok {
		fmt.Fprintf(stderr, "unknown scale %q (want small, medium or paper)\n", *scaleName)
		return 2
	}
	ps, ok := progen.ByName(*bench)
	if !ok {
		fmt.Fprintf(stderr, "unknown benchmark %q\n", *bench)
		return 2
	}
	prog, err := progen.Generate(ps)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if *budget == 0 {
		*budget = scale.Budget
	}
	campaign := core.CampaignConfig{
		Program:   prog,
		InputSeed: 1,
		Budget:    *budget,
		Layouts:   scale.Layouts,
		Fidelity:  scale.Fidelity,
		BaseSeed:  *seed,
		Workers:   *workers,
	}

	var summary results.SearchSummary
	start := time.Now()
	if *server != "" {
		summary, err = runRemote(stdout, *server, *bench, *budget, *seed, *population, *generations, *elite, *tournament)
	} else {
		var res *core.SearchResult
		res, err = core.RunSearch(core.SearchConfig{
			Campaign:    campaign,
			Population:  *population,
			Generations: *generations,
			Elite:       *elite,
			TournamentK: *tournament,
		})
		if res != nil {
			summary = results.SummarizeSearch(res)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	elapsed := time.Since(start)

	// The baseline samples under a held-out seed: its layout stream
	// shares nothing with the search's genome streams, so the search
	// cannot win by having already measured the baseline's layouts.
	if *baselineN > 0 {
		held := campaign
		held.BaseSeed = core.HeldOutSeed(*seed)
		cpis, berr := core.SampleLayoutCPIs(held, *baselineN)
		if berr != nil {
			fmt.Fprintln(stderr, berr)
			return 1
		}
		ci, berr := stats.BootstrapQuantileCI(cpis, 0.5, *bootstrapB, held.BaseSeed, 0.95)
		if berr != nil {
			fmt.Fprintf(stderr, "baseline CI: %v\n", berr)
			return 1
		}
		median := stats.Median(cpis)
		summary.Baseline = &results.SamplingBaseline{
			Seed:        held.BaseSeed,
			N:           len(cpis),
			MedianCPI:   median,
			CILow:       ci.Low,
			CIHigh:      ci.High,
			Improvement: (median - summary.BestCPI) / median,
			Beats:       summary.BestCPI < median,
		}
	}

	report(stdout, summary, elapsed)
	if *jsonOut != "" {
		if err := writeSummary(*jsonOut, stdout, summary); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	if b := summary.Baseline; b != nil && !b.Beats {
		return 1 // scriptable verdict: the search failed to beat sampling
	}
	return 0
}

// writeSummary writes the summary JSON to path, "-" meaning stdout.
func writeSummary(path string, stdout io.Writer, s results.SearchSummary) error {
	if path == "-" {
		return results.WriteJSON(stdout, s)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := results.WriteJSON(f, s); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runRemote submits the search to a campaignd coordinator, waits for
// the trajectory to finish, and decodes the service's summary report.
func runRemote(stdout io.Writer, base, bench string, budget, seed uint64, population, generations, elite, tournament int) (results.SearchSummary, error) {
	client := &campaignd.Client{Base: base}
	ctx := context.Background()
	spec := campaignd.JobSpec{
		Benchmark: bench,
		Budget:    budget,
		BaseSeed:  seed,
		Kind:      campaignd.KindSearch,
		Search: &campaignd.SearchSpec{
			Population:  population,
			Generations: generations,
			Elite:       elite,
			Tournament:  tournament,
		},
	}
	st, err := client.SubmitWait(ctx, spec)
	if err != nil {
		return results.SearchSummary{}, err
	}
	fmt.Fprintf(stdout, "search %s running on %s (%d×%d)\n", st.ID, base, st.Layouts, st.Generations)
	if st, err = client.Wait(ctx, st.ID, 250*time.Millisecond); err != nil {
		return results.SearchSummary{}, err
	}
	if st.State != campaignd.StateDone {
		return results.SearchSummary{}, fmt.Errorf("search ended %s: %s", st.State, st.Error)
	}
	raw, err := client.SearchReport(ctx, st.ID)
	if err != nil {
		return results.SearchSummary{}, err
	}
	// Surface the fleet's trust state: quarantined workers mean the
	// coordinator rejected lies along the way (the trajectory is still
	// exact — rejected results never merge, requeues charge nothing).
	if health, herr := client.FleetHealth(ctx); herr == nil {
		for id, h := range health {
			if h.Quarantined {
				fmt.Fprintf(stdout, "warning: worker %s quarantined by the coordinator (%d rejected, %d audit-failed)\n",
					id, h.Rejected, h.AuditFailed)
			}
		}
	}
	var summary results.SearchSummary
	if err := json.Unmarshal(raw, &summary); err != nil {
		return results.SearchSummary{}, fmt.Errorf("bad search report: %w", err)
	}
	return summary, nil
}

// report prints the trajectory and the verdict.
func report(w io.Writer, s results.SearchSummary, elapsed time.Duration) {
	fmt.Fprintf(w, "layoutopt %s: %d×%d search in %s (%.2f generations/s)\n",
		s.Benchmark, s.Population, s.Generations, elapsed.Round(time.Millisecond),
		float64(s.Generations)/elapsed.Seconds())
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "gen\tbest CPI\tvalid\tfailed\tbest layout")
	for _, g := range s.Trajectory {
		fmt.Fprintf(tw, "%d\t%.4f\t%d\t%d\t%s\n", g.Gen, g.BestCPI, g.Valid, g.Failed, g.BestFingerprint)
	}
	tw.Flush()
	fmt.Fprintf(w, "best: CPI %.4f at generation %d (layout %s, trajectory %s)\n",
		s.BestCPI, s.BestGen, s.BestFingerprint, s.TrajectoryHash[:12])
	if b := s.Baseline; b != nil {
		verdict := "BEATS"
		if !b.Beats {
			verdict = "does NOT beat"
		}
		fmt.Fprintf(w, "baseline: median CPI %.4f over %d held-out random layouts (95%% CI [%.4f, %.4f], seed %#x)\n",
			b.MedianCPI, b.N, b.CILow, b.CIHigh, b.Seed)
		fmt.Fprintf(w, "verdict: search %s the sampling median (improvement %.2f%%)\n", verdict, 100*b.Improvement)
	}
}
