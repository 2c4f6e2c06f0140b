// Command bench is the repository benchmark: four workloads modelled on the
// paper's traffic, driven through the layers' public functions, with every
// output checked for correctness. See README.md for the workloads, the
// metrics and how to run, trace, repeat and compare.
//
// One run of one workload:
//
//	bash bench/run.sh --workload campaign-code --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is the result object; diagnostics go to
// standard error. The exit status is nonzero when any operation failed or a
// correctness check did not hold.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Uint64("seed", 1, "seed every operation's inputs derive from")
		seconds  = flag.Float64("seconds", 30, "how long the timed loop runs")
		traced   = flag.Int("trace", 0, "1 = traced run: report per-layer metrics instead of end-to-end ones")
		traceOut = flag.String("trace-out", "", "traced run: also write the spans as chrome://tracing JSON to this file")
		repeat   = flag.Int("repeat", 0, "run every workload (or -workload) this many times in child processes, alternating their order, and summarize")
		out      = flag.String("out", "", "-repeat: write every run's metrics as JSON to this file")
		compare  = flag.Bool("compare", false, "compare two -repeat outputs given as arguments: parent.json change.json")
	)
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatalf("-compare needs two files: parent.json change.json")
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatalf("%v", err)
		}
		return
	case *repeat > 0:
		names := workloadNames()
		if *workload != "" {
			names = []string{*workload}
		}
		if err := repeatRuns(os.Stdout, names, *repeat, *seed, *seconds, *traced == 1, *out); err != nil {
			fatalf("%v", err)
		}
		return
	}

	w, ok := workloads[*workload]
	if !ok {
		fatalf("unknown workload %q; use one of %s", *workload, strings.Join(workloadNames(), ", "))
	}
	if *traced != 0 && *traced != 1 {
		fatalf("-trace must be 0 or 1")
	}
	os.Exit(runOnce(w, options{
		seed:     *seed,
		duration: time.Duration(*seconds * float64(time.Second)),
		trace:    *traced == 1,
		setups:   defaultSetups,
	}, *traceOut))
}

// runOnce runs one workload in a scratch directory under .bench_build,
// prints its result line and returns the exit status.
func runOnce(w *workload, o options, traceOut string) int {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "bench: run dir: %v\n", err)
		return 1
	}
	var err error
	if o.runDir, err = os.MkdirTemp(".bench_build", "run-"); err != nil {
		fmt.Fprintf(os.Stderr, "bench: run dir: %v\n", err)
		return 1
	}
	defer os.RemoveAll(o.runDir)
	res, rec, err := runWorkload(w, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	if rec != nil && traceOut != "" {
		if err := rec.writeChrome(traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			res.Correct = false
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: encode result: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}
