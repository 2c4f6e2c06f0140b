// Command predsim is the standalone Pin-style predictor comparison: it
// executes a benchmark once, replays the trace against every code layout
// at once (one multi-layout walk per predictor), and reports each
// candidate predictor's misprediction rate — the paper's §5.6/§7.1 tool
// as a CLI.
//
// Usage:
//
//	predsim -bench 429.mcf -layouts 5 -budget 500000
//	predsim -bench 400.perlbench -predictors gshare-4096x12,l-tage,perfect
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
	"text/tabwriter"

	"interferometry/internal/interp"
	"interferometry/internal/pintool"
	"interferometry/internal/progen"
	"interferometry/internal/stats"
	"interferometry/internal/toolchain"
	"interferometry/internal/uarch/branch"
)

// factoryByName resolves a few human-friendly predictor names plus
// anything in the config space.
func factoryByName(name string) (branch.Factory, bool) {
	switch name {
	case "perfect":
		return branch.Factory{Name: name, New: func() branch.Predictor { return branch.Perfect{} }}, true
	case "always-taken":
		return branch.Factory{Name: name, New: func() branch.Predictor { return branch.AlwaysTaken{} }}, true
	case "never-taken":
		return branch.Factory{Name: name, New: func() branch.Predictor { return branch.NeverTaken{} }}, true
	case "l-tage":
		return branch.Factory{Name: name, New: func() branch.Predictor { return branch.NewLTAGEDefault() }}, true
	case "xeon":
		return branch.Factory{Name: name, New: func() branch.Predictor { return branch.NewXeonE5440() }}, true
	case "perceptron":
		return branch.Factory{Name: name, New: func() branch.Predictor { return branch.NewPerceptron(512, 40) }}, true
	case "gskew":
		return branch.Factory{Name: name, New: func() branch.Predictor { return branch.NewGskew(2048, 10) }}, true
	}
	for _, f := range branch.PaperPredictors() {
		if f.Name == name {
			return f, true
		}
	}
	for _, f := range branch.ConfigSpace(0) {
		if f.Name == name {
			return f, true
		}
	}
	return branch.Factory{}, false
}

func main() {
	bench := flag.String("bench", "400.perlbench", "benchmark name from the suite")
	layouts := flag.Int("layouts", 3, "number of code reorderings to average over")
	budget := flag.Uint64("budget", 300000, "instructions per run")
	preds := flag.String("predictors", "xeon,gas-2KB,gas-8KB,gas-16KB,l-tage,perfect",
		"comma-separated predictor names")
	warmup := flag.Bool("warmup", true, "train predictors with one extra pass before counting")
	flag.Parse()
	if *layouts < 1 {
		fmt.Fprintln(os.Stderr, "-layouts must be at least 1")
		os.Exit(2)
	}

	spec, ok := progen.ByName(*bench)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown benchmark %q; available:\n", *bench)
		// SimSuite re-lists Suite entries next to its own, so list each
		// name once.
		var names []string
		for _, s := range append(progen.Suite(), progen.SimSuite()...) {
			names = append(names, s.Name)
		}
		sort.Strings(names)
		names = slices.Compact(names)
		fmt.Fprintln(os.Stderr, strings.Join(names, " "))
		os.Exit(2)
	}
	var factories []branch.Factory
	for _, name := range strings.Split(*preds, ",") {
		f, ok := factoryByName(strings.TrimSpace(name))
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown predictor %q\n", name)
			os.Exit(2)
		}
		factories = append(factories, f)
	}

	prog := progen.MustGenerate(spec)
	tr, err := interp.Run(prog, 1, interp.StopRule{Budget: *budget})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	exes := make([]*toolchain.Executable, *layouts)
	for li := range exes {
		exes[li], err = toolchain.BuildLayout(prog, uint64(li+1), toolchain.CompileConfig{}, toolchain.LinkConfig{})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	// One walk per predictor serves every layout.
	rs, err := pintool.RunLayouts(tr, exes, factories, pintool.Config{Warmup: *warmup})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	mpkis := make([][]float64, len(factories))
	for _, layout := range rs {
		for pi, r := range layout {
			mpkis[pi] = append(mpkis[pi], r.MPKI())
		}
	}

	fmt.Printf("%s: %d instructions, %d conditional branches (%0.1f/KI), %d layouts\n",
		spec.Name, tr.Instrs, tr.CondBranches,
		float64(tr.CondBranches)/float64(tr.Instrs)*1000, *layouts)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "predictor\tmean MPKI\tmin\tmax\tbudget bits")
	for pi, f := range factories {
		p := f.New()
		fmt.Fprintf(w, "%s\t%.3f\t%.3f\t%.3f\t%d\n",
			f.Name, stats.Mean(mpkis[pi]), stats.Min(mpkis[pi]), stats.Max(mpkis[pi]), p.SizeBits())
	}
	w.Flush()
}
