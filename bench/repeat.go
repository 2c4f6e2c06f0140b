package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// repeatFile is what -repeat writes and -compare reads: every run's
// metrics, by workload.
type repeatFile struct {
	NumCPU  int                    `json:"num_cpu"`
	Seconds float64                `json:"seconds"`
	Trace   bool                   `json:"trace"`
	Runs    map[string][]repeatRun `json:"runs"`
}

type repeatRun struct {
	Seed    uint64             `json:"seed"`
	Metrics map[string]float64 `json:"metrics"`
}

// repeatRuns runs each workload n times, each run in its own child
// process with its own seed (seed, seed+1, ...), alternating the workload
// order between rounds, and prints each metric's median and quartiles.
func repeatRuns(w io.Writer, names []string, n int, seed uint64, seconds float64, traced bool, outPath string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	rf := repeatFile{NumCPU: runtime.NumCPU(), Seconds: seconds, Trace: traced, Runs: map[string][]repeatRun{}}
	failed := 0
	for r := 0; r < n; r++ {
		order := append([]string(nil), names...)
		if r%2 == 1 {
			sort.Sort(sort.Reverse(sort.StringSlice(order)))
		}
		for _, name := range order {
			s := seed + uint64(r)
			trace := "0"
			if traced {
				trace = "1"
			}
			cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatUint(s, 10),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", trace)
			var stdout bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
			runErr := cmd.Run()
			res, perr := lastResult(stdout.Bytes())
			if perr != nil || runErr != nil || !res.Correct {
				// Keep going: the summary and the file show the runs that
				// did succeed; the error below says some did not.
				failed++
				fmt.Fprintf(os.Stderr, "bench: repeat %d/%d %s seed %d failed: %v %v\n", r+1, n, name, s, perr, runErr)
				continue
			}
			run := repeatRun{Seed: s, Metrics: map[string]float64{}}
			for k, m := range res.Metrics {
				run.Metrics[k] = m.Value
			}
			rf.Runs[name] = append(rf.Runs[name], run)
			fmt.Fprintf(os.Stderr, "bench: repeat %d/%d %s done\n", r+1, n, name)
		}
	}
	if outPath != "" {
		data, err := json.MarshalIndent(rf, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	defs := spec.EndToEnd
	if traced {
		defs = spec.PerLayer
	}
	fmt.Fprintf(w, "%-14s %-34s %14s %14s %14s %8s %8s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound")
	for _, name := range names {
		for _, d := range defs {
			vs := rf.values(name, d.Name)
			q1, q3 := quartiles(vs)
			med := quantile(vs, 0.5)
			flag := ""
			if d.Bound > 0 && spread(q1, q3, med) >= d.Bound/3 {
				flag = "  spread >= bound/3"
			}
			fmt.Fprintf(w, "%-14s %-34s %14.6g %14.6g %14.6g %7.2f%% %7.1f%%%s\n", name, d.Name, med, q1, q3, 100*spread(q1, q3, med), 100*d.Bound, flag)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d runs failed", failed, n*len(names))
	}
	return nil
}

func (rf *repeatFile) values(workload, metric string) []float64 {
	var vs []float64
	for _, r := range rf.Runs[workload] {
		if v, ok := r.Metrics[metric]; ok {
			vs = append(vs, v)
		}
	}
	return vs
}

// spread is the interquartile distance as a share of the median.
func spread(q1, q3, med float64) float64 {
	if med == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / med)
}

// lastResult parses the result object on a run's last output line.
func lastResult(stdout []byte) (*result, error) {
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("no result line: %w", err)
	}
	return &res, nil
}

func readRepeatFile(path string) (*repeatFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf repeatFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// compareFiles judges a change against its parent per (workload,
// end-to-end metric), pairing the i-th runs of each side:
//
//   - improved: the change wins at least 9 of 10 pairs (ties count for
//     neither) and the medians differ by more than the parent's
//     interquartile distance;
//   - regressed: the change's median is worse than the parent's by more
//     than the metric's bound;
//   - unresolved: either side's spread exceeds the bound, unless every
//     change run reads better than every parent run;
//   - unchanged: none of the above.
//
// It returns an error when any pairing regressed.
func compareFiles(w io.Writer, parentPath, changePath string) error {
	parent, err := readRepeatFile(parentPath)
	if err != nil {
		return err
	}
	change, err := readRepeatFile(changePath)
	if err != nil {
		return err
	}
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	regressed := 0
	fmt.Fprintf(w, "%-14s %-14s %12s %12s %12s %9s %7s  %s\n", "workload", "metric", "parent", "change", "parent IQR", "change", "wins", "verdict")
	names := make([]string, 0, len(parent.Runs))
	for name := range parent.Runs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, d := range spec.EndToEnd {
			p, c := parent.values(name, d.Name), change.values(name, d.Name)
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			v := judge(d, p, c)
			if v.verdict == "regressed" {
				regressed++
			}
			fmt.Fprintf(w, "%-14s %-14s %12.6g %12.6g %12.6g %+8.2f%% %3d/%-3d  %s\n",
				name, d.Name, v.pMed, v.cMed, v.pIQR, 100*v.change, v.wins, v.pairs, v.verdict)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d (workload, metric) pairings regressed beyond their bounds", regressed)
	}
	return nil
}

type judgement struct {
	pMed, cMed, pIQR float64
	change           float64 // (change − parent) / parent median, signed so positive is better
	wins, pairs      int
	verdict          string
}

func judge(d metricSpec, p, c []float64) judgement {
	better := func(a, b float64) bool { // a better than b
		if d.Better == "higher" {
			return a > b
		}
		return a < b
	}
	j := judgement{pMed: quantile(p, 0.5), cMed: quantile(c, 0.5), pairs: min(len(p), len(c))}
	pq1, pq3 := quartiles(p)
	cq1, cq3 := quartiles(c)
	j.pIQR = pq3 - pq1
	for i := 0; i < j.pairs; i++ {
		if better(c[i], p[i]) {
			j.wins++
		}
	}
	if j.pMed != 0 {
		j.change = (j.cMed - j.pMed) / math.Abs(j.pMed)
		if d.Better != "higher" {
			j.change = -j.change
		}
	}
	separated := true // every change run better than every parent run
	for _, x := range c {
		for _, y := range p {
			separated = separated && better(x, y)
		}
	}
	noisy := spread(pq1, pq3, j.pMed) > d.Bound || spread(cq1, cq3, j.cMed) > d.Bound
	switch {
	case 10*j.wins >= 9*j.pairs && math.Abs(j.cMed-j.pMed) > j.pIQR && better(j.cMed, j.pMed):
		j.verdict = "improved"
	case noisy && !separated:
		j.verdict = "unresolved"
	case -j.change > d.Bound:
		j.verdict = "regressed"
	default:
		j.verdict = "unchanged"
	}
	return j
}
