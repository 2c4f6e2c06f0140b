package core

import (
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
	// observation is appended and fsynced to Dir/observations.jsonl, so
	// a kill at any instant leaves every acknowledged record on disk and
	// at most one torn last line, which a resume drops. Opening and
	// closing the checkpoint compact it to one record per layout.
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

// ckptRecord is one observation line: the campaign-local index and the
// observation's wire form, whose empty fingerprint is omitted.
type ckptRecord struct {
	Index int `json:"index"`
	ObsWire
}

// CheckpointSink persists campaign progress to the campaign directory:
// RunCampaign's Checkpoint config opens one, and external schedulers
// open their own, with the same directory layout, header validation and
// crash rules, so a campaign interrupted under campaignd resumes under
// cmd/interferometry and vice versa. Every Put appends one fsynced
// record; opening and closing compact the file to the header and one
// record per index, sorted, so a closed checkpoint holds the same bytes
// whatever order its layouts completed in.
type CheckpointSink struct {
	header   ckptHeader
	restored map[int]Observation

	mu   sync.Mutex
	log  *atomicio.Log
	recs map[int]ckptRecord
	err  error // first write failure, surfaced at Close
}

// OpenCheckpointSink prepares cfg.Checkpoint.Dir and, when
// cfg.Checkpoint.Resume is set, loads previously completed observations
// keyed by campaign-local index. The last record for an index wins, and
// a failed one is not restored: a resume retries it.
func OpenCheckpointSink(cfg CampaignConfig) (*CheckpointSink, error) {
	dir := cfg.Checkpoint.Dir
	if dir == "" {
		return nil, errors.New("core: checkpoint sink needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: checkpoint dir: %w", err)
	}
	s := &CheckpointSink{
		header:   campaignHeader(&cfg),
		restored: make(map[int]Observation),
		recs:     make(map[int]ckptRecord),
	}
	log, err := openCheckpoint(filepath.Join(dir, CheckpointFile), "checkpoint", s.header, cfg.Checkpoint.Resume, func(line []byte) error {
		var rec ckptRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return err
		}
		if rec.Index < 0 || rec.Index >= cfg.Layouts {
			return fmt.Errorf("record index %d outside campaign [0,%d)", rec.Index, cfg.Layouts)
		}
		if rec.LayoutSeed != cfg.layoutSeed(rec.Index) {
			return fmt.Errorf("record %d has layout seed %#x, campaign derives %#x — checkpoint belongs to a different campaign", rec.Index, rec.LayoutSeed, cfg.layoutSeed(rec.Index))
		}
		s.recs[rec.Index] = rec
		delete(s.restored, rec.Index)
		if ObsStatus(rec.Status) != StatusFailed {
			s.restored[rec.Index] = rec.Observation()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.log = log
	if len(s.recs) > 0 {
		if err := s.flushLocked(); err != nil {
			log.Close()
			return nil, err
		}
	}
	return s, nil
}

// Restored returns the observations loaded on resume, keyed by
// campaign-local layout index.
func (s *CheckpointSink) Restored() map[int]Observation {
	return s.restored
}

// Put durably appends one observation, which replaces any earlier
// record for index i on resume. Safe for concurrent use; write failures
// surface at Close, and a Put after Close writes nothing.
func (s *CheckpointSink) Put(i int, o Observation) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := ckptRecord{Index: i, ObsWire: o.Wire()}
	s.recs[i] = rec
	if err := s.log.Append(rec); err != nil && s.err == nil {
		s.err = err
	}
}

// flushLocked compacts the file to the header and the records, sorted
// by index. Callers hold s.mu.
func (s *CheckpointSink) flushLocked() error {
	idxs := make([]int, 0, len(s.recs))
	for i := range s.recs {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	lines := make([]any, 0, 1+len(idxs))
	lines = append(lines, s.header)
	for _, i := range idxs {
		lines = append(lines, s.recs[i])
	}
	if err := s.log.Rewrite(lines...); err != nil {
		return fmt.Errorf("core: checkpoint write: %w", err)
	}
	return nil
}

// Close compacts and closes the file and surfaces every write error.
func (s *CheckpointSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return errors.Join(s.err, s.flushLocked(), s.log.Close())
}

// openCheckpoint opens a checkpoint file as an append-only log. With
// resume it reads the file back under the log's crash rules: the first
// record must be the header want, and every later one goes to rec.
// Without resume an existing file is emptied unread. A file without a
// header gets want written as its first line. what names the file in
// errors.
func openCheckpoint[H comparable](path, what string, want H, resume bool, rec func(line []byte) error) (*atomicio.Log, error) {
	if !resume {
		if err := os.WriteFile(path, nil, 0o644); err != nil {
			return nil, fmt.Errorf("core: %s write: %w", what, err)
		}
	}
	seen := false
	log, _, err := atomicio.OpenLog(path, func(line []byte) error {
		if seen {
			return rec(line)
		}
		seen = true
		var got H
		if err := json.Unmarshal(line, &got); err != nil {
			return fmt.Errorf("header: %w", err)
		}
		if got != want {
			return fmt.Errorf("header %+v does not match %+v", got, want)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", what, err)
	}
	if !seen {
		if err := log.Rewrite(want); err != nil {
			log.Close()
			return nil, fmt.Errorf("core: %s write: %w", what, err)
		}
	}
	return log, nil
}
