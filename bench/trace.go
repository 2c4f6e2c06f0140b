package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// recorder keeps a traced run's spans in memory; writeChrome exports them
// at the end. Spans are recorded from the benchmark's own calls into each
// layer: the program itself is not instrumented.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

type span struct {
	name   string // <module>.<call>, or a structural name (op, blackbox, decomposed, check)
	op     int
	lane   int // 0: the operation's own goroutine; 1..workers: a campaign worker lane
	parent int // index of the parent span, -1 for a root
	start  time.Duration
	dur    time.Duration
	// work is the span's unit count for per-unit metrics: instructions
	// (times lanes for a batched walk).
	work     float64
	children int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its handle for end. A nil recorder
// records nothing.
func (r *recorder) begin(name string, op, lane, parent int) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if parent >= 0 {
		r.spans[parent].children++
	}
	r.spans = append(r.spans, span{name: name, op: op, lane: lane, parent: parent, start: time.Since(r.epoch)})
	return len(r.spans) - 1
}

// end closes span i, crediting it with work units. A negative handle (a
// span not recorded) is ignored.
func (r *recorder) end(i int, work float64) {
	if r == nil || i < 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[i].dur = now - r.spans[i].start
	r.spans[i].work = work
}

// layerSum totals one layer call's spans below a root.
type layerSum struct {
	dur  time.Duration
	work float64
	n    int
}

// sumByName totals the spans below root (root excluded) by name.
func (r *recorder) sumByName(root int) map[string]layerSum {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[string]layerSum{}
	for i := root + 1; i < len(r.spans); i++ {
		if !r.below(i, root) {
			continue
		}
		s := r.spans[i]
		t := out[s.name]
		t.dur += s.dur
		t.work += s.work
		t.n++
		out[s.name] = t
	}
	return out
}

// accounted is the wall-clock time the leaf spans below root explain:
// their self time, with spans on campaign worker lanes divided by the
// lane count because the lanes run side by side.
func (r *recorder) accounted(root, lanes int) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	var sum time.Duration
	for i := root + 1; i < len(r.spans); i++ {
		s := r.spans[i]
		if s.children > 0 || !r.below(i, root) {
			continue
		}
		if s.lane > 0 {
			sum += s.dur / time.Duration(lanes)
		} else {
			sum += s.dur
		}
	}
	return sum
}

func (r *recorder) below(i, root int) bool {
	for p := r.spans[i].parent; p >= 0; p = r.spans[p].parent {
		if p == root {
			return true
		}
	}
	return false
}

// writeChrome writes the spans as a chrome://tracing JSON file: one
// complete event per span, one thread row per lane.
func (r *recorder) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	bw := bufio.NewWriter(f)
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	r.mu.Lock()
	events := make([]event, len(r.spans))
	for i, s := range r.spans {
		events[i] = event{
			Name: s.name, Ph: "X", PID: 1, TID: s.lane,
			TS:   float64(s.start) / float64(time.Microsecond),
			Dur:  float64(s.dur) / float64(time.Microsecond),
			Args: map[string]any{"op": s.op, "span": i, "parent": s.parent, "work": s.work},
		}
	}
	r.mu.Unlock()
	err = json.NewEncoder(bw).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

// layerMetrics turns one traced operation's span totals into per-layer
// metric samples. Layers without spans are left out (they read 0).
func layerMetrics(sums map[string]layerSum) map[string]float64 {
	m := map[string]float64{}
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	perWork := func(name string) (float64, bool) {
		s, ok := sums[name]
		if !ok || s.work == 0 {
			return 0, false
		}
		return float64(s.dur) / s.work, true
	}
	perCall := func(name string) (float64, bool) {
		s, ok := sums[name]
		if !ok || s.n == 0 {
			return 0, false
		}
		return float64(s.dur) / float64(s.n), true
	}
	if s, ok := sums["interp.Run"]; ok {
		m["interp.run_ms"] = ms(s.dur)
	}
	if v, ok := perWork("interp.Run"); ok {
		m["interp.ns_per_instr"] = v
	}
	if v, ok := perCall("toolchain.Build"); ok {
		m["toolchain.build_us"] = v / 1e3
	}
	if v, ok := perWork("machine.Batch.Run"); ok {
		m["machine.batch_ns_per_event_lane"] = v
	}
	if v, ok := perWork("machine.RunDeterministic"); ok {
		m["machine.scalar_ns_per_instr"] = v
	}
	if v, ok := perCall("pmc.Harness.Measure"); ok {
		m["pmc.measure_us"] = v / 1e3
	}
	if s, ok := sums["core.MPKIModel"]; ok {
		m["core.fit_ms"] = ms(s.dur)
	}
	if s, ok := sums["results.WriteDatasetCSV"]; ok {
		m["results.csv_ms"] = ms(s.dur)
	}
	if v, ok := perWork("pintool.Run.gas"); ok {
		m["pintool.gas_ns_per_instr"] = v
	}
	if v, ok := perWork("pintool.Run.ltage"); ok {
		m["pintool.ltage_ns_per_instr"] = v
	}
	return m
}
