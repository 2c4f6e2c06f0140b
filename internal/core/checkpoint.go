package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"interferometry/internal/atomicio"
)

// CheckpointConfig configures campaign checkpointing.
type CheckpointConfig struct {
	// Dir is the campaign directory. When non-empty, every completed
	// observation is persisted to Dir/observations.jsonl; each flush
	// writes a temp file and renames it over the previous checkpoint, so
	// a kill at any instant leaves a complete, parseable file.
	Dir string
	// Resume reloads an existing checkpoint and measures only the
	// layouts it is missing. Because every layout is an independent
	// deterministic function of the config, the resumed dataset is
	// bit-identical to an uninterrupted run. Without Resume an existing
	// checkpoint is overwritten.
	Resume bool
}

// CheckpointFile is the name of the observation log inside the campaign
// directory.
const CheckpointFile = "observations.jsonl"

// checkpointVersion guards the on-disk format.
const checkpointVersion = 1

// ckptHeader is the first JSONL line: the campaign identity. A resume
// whose config derives a different header refuses to mix observations.
type ckptHeader struct {
	V            int    `json:"v"`
	Benchmark    string `json:"benchmark"`
	BaseSeed     uint64 `json:"base_seed"`
	InputSeed    uint64 `json:"input_seed"`
	Budget       uint64 `json:"budget"`
	LimiterStop  uint64 `json:"limiter_stop,omitempty"`
	FirstLayout  int    `json:"first_layout"`
	Layouts      int    `json:"layouts"`
	HeapMode     uint8  `json:"heap_mode"`
	Fidelity     uint8  `json:"fidelity"`
	RunsPerGroup int    `json:"runs_per_group"`
}

func campaignHeader(cfg *CampaignConfig) ckptHeader {
	return ckptHeader{
		V:            checkpointVersion,
		Benchmark:    cfg.Program.Name,
		BaseSeed:     cfg.BaseSeed,
		InputSeed:    cfg.InputSeed,
		Budget:       cfg.Budget,
		LimiterStop:  cfg.Limiter.StopCount,
		FirstLayout:  cfg.FirstLayout,
		Layouts:      cfg.Layouts,
		HeapMode:     uint8(cfg.HeapMode),
		Fidelity:     uint8(cfg.Fidelity),
		RunsPerGroup: cfg.RunsPerGroup,
	}
}

// ckptRecord is one observation line.
type ckptRecord struct {
	Index        int      `json:"index"`
	LayoutSeed   uint64   `json:"layout_seed"`
	HeapSeed     uint64   `json:"heap_seed"`
	Cycles       uint64   `json:"cycles"`
	Instructions uint64   `json:"instructions"`
	Events       []uint64 `json:"events"`
	Runs         int      `json:"runs"`
	Status       uint8    `json:"status"`
	Attempts     int      `json:"attempts"`
}

func recordOf(i int, o Observation) ckptRecord {
	return ckptRecord{
		Index:        i,
		LayoutSeed:   o.LayoutSeed,
		HeapSeed:     o.HeapSeed,
		Cycles:       o.Cycles,
		Instructions: o.Instructions,
		Events:       append([]uint64(nil), o.Events[:]...),
		Runs:         o.Runs,
		Status:       uint8(o.Status),
		Attempts:     o.Attempts,
	}
}

func (r ckptRecord) observation() Observation {
	o := Observation{
		LayoutSeed: r.LayoutSeed,
		HeapSeed:   r.HeapSeed,
		Status:     ObsStatus(r.Status),
		Attempts:   r.Attempts,
	}
	o.Cycles = r.Cycles
	o.Instructions = r.Instructions
	o.Runs = r.Runs
	copy(o.Events[:], r.Events)
	return o
}

// CheckpointSink persists campaign progress to the campaign directory:
// RunCampaign's Checkpoint config opens one, and external schedulers
// open their own, with the same directory layout, header validation and
// atomic-rename durability, so a campaign interrupted under campaignd
// resumes under cmd/interferometry and vice versa. Every Put rewrites
// the whole file and atomically renames it into place. Campaigns are
// hundreds of layouts, so the rewrite is a few kilobytes — durability is
// worth far more here than write throughput.
type CheckpointSink struct {
	path     string
	header   ckptHeader
	restored map[int]Observation

	mu   sync.Mutex
	recs map[int]ckptRecord
	err  error // first write failure, surfaced at Close
}

// OpenCheckpointSink prepares cfg.Checkpoint.Dir and, when
// cfg.Checkpoint.Resume is set, loads previously completed observations
// keyed by campaign-local index. Failed records are not restored: a
// resume retries them.
func OpenCheckpointSink(cfg CampaignConfig) (*CheckpointSink, error) {
	dir := cfg.Checkpoint.Dir
	if dir == "" {
		return nil, errors.New("core: checkpoint sink needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: checkpoint dir: %w", err)
	}
	s := &CheckpointSink{
		path:     filepath.Join(dir, CheckpointFile),
		header:   campaignHeader(&cfg),
		restored: make(map[int]Observation),
		recs:     make(map[int]ckptRecord),
	}
	if cfg.Checkpoint.Resume {
		recs, err := readJSONL[ckptHeader, ckptRecord](s.path, "checkpoint", s.header)
		if err != nil {
			return nil, err
		}
		for _, rec := range recs {
			if rec.Index < 0 || rec.Index >= cfg.Layouts {
				return nil, fmt.Errorf("core: checkpoint record index %d outside campaign [0,%d)", rec.Index, cfg.Layouts)
			}
			if rec.LayoutSeed != cfg.layoutSeed(rec.Index) {
				return nil, fmt.Errorf("core: checkpoint record %d has layout seed %#x, campaign derives %#x — checkpoint belongs to a different campaign", rec.Index, rec.LayoutSeed, cfg.layoutSeed(rec.Index))
			}
			s.recs[rec.Index] = rec
			if ObsStatus(rec.Status) != StatusFailed {
				s.restored[rec.Index] = rec.observation()
			}
		}
	}
	// Establish (or truncate) the on-disk checkpoint immediately so a
	// campaign that dies before its first observation still leaves a
	// well-formed file.
	if err := s.flushLocked(); err != nil {
		return nil, err
	}
	return s, nil
}

// Restored returns the observations loaded on resume, keyed by
// campaign-local layout index.
func (s *CheckpointSink) Restored() map[int]Observation {
	return s.restored
}

// Put persists one observation, replacing any earlier record for index
// i. Safe for concurrent use; write failures surface at Close.
func (s *CheckpointSink) Put(i int, o Observation) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recs[i] = recordOf(i, o)
	if err := s.flushLocked(); err != nil && s.err == nil {
		s.err = err
	}
}

// flushLocked writes the header and the records, sorted by index.
// Callers hold s.mu.
func (s *CheckpointSink) flushLocked() error {
	idxs := make([]int, 0, len(s.recs))
	for i := range s.recs {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	recs := make([]ckptRecord, len(idxs))
	for k, i := range idxs {
		recs[k] = s.recs[i]
	}
	return writeJSONL(s.path, "checkpoint", s.header, recs)
}

// Close surfaces the first deferred write error.
func (s *CheckpointSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// readJSONL parses a checkpoint file — a header line, then one record
// per line — and validates its header against want; what names the file
// in errors. A missing or empty file holds no records: resuming a
// campaign that never started is just a fresh start.
func readJSONL[H comparable, R any](path, what string, want H) ([]R, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("core: open %s: %w", what, err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("core: read %s: %w", what, err)
		}
		return nil, nil
	}
	var hdr H
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return nil, fmt.Errorf("core: %s header: %w", what, err)
	}
	if hdr != want {
		return nil, fmt.Errorf("core: %s header %+v does not match %+v", what, hdr, want)
	}
	var recs []R
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec R
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("core: %s record: %w", what, err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("core: read %s: %w", what, err)
	}
	return recs, nil
}

// writeJSONL replaces a checkpoint file with the header and records, one
// JSON line each. atomicio fsyncs the temp file before the rename and
// the directory after it: without those a crash right after the rename
// can lose the checkpoint entry on some filesystems even though the
// rename itself "succeeded".
func writeJSONL[H, R any](path, what string, header H, recs []R) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(header); err != nil {
		return fmt.Errorf("core: %s encode: %w", what, err)
	}
	for i := range recs {
		if err := enc.Encode(recs[i]); err != nil {
			return fmt.Errorf("core: %s encode: %w", what, err)
		}
	}
	if err := atomicio.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("core: %s write: %w", what, err)
	}
	return nil
}
