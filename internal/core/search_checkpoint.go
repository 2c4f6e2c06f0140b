package core

import (
	"encoding/base64"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"interferometry/internal/toolchain"
)

// Search checkpointing: each settled generation is one JSONL record in
// Dir/generations.jsonl, next to (never inside) the campaign
// observation log. A generation is the unit of durability — a search
// killed mid-generation resumes from the last settled one, re-derives
// the next population from the restored parents, and the deterministic
// pipeline makes the resumed trajectory byte-identical to an
// uninterrupted run. Restore is paranoid: genomes are decoded through
// the validating codec, the population hash is recomputed from the
// restored individuals, and any mismatch refuses the checkpoint rather
// than resuming a corrupted search.

// SearchCheckpointFile is the name of the generation log inside the
// campaign directory.
const SearchCheckpointFile = "generations.jsonl"

// searchHeader is the first JSONL line: the search identity. It embeds
// the campaign header (population = layouts) plus the search shape, so
// a resume under different search parameters is refused.
type searchHeader struct {
	ckptHeader
	Population  int `json:"population"`
	Generations int `json:"generations"`
	Elite       int `json:"elite"`
	TournamentK int `json:"tournament_k"`
}

func searchHeaderOf(s *Search) searchHeader {
	return searchHeader{
		ckptHeader:  campaignHeader(&s.cfg.Campaign),
		Population:  s.cfg.population(),
		Generations: s.cfg.generations(),
		Elite:       s.cfg.elite(),
		TournamentK: s.cfg.tournamentK(),
	}
}

// genRecord is one settled generation: the genome encodings
// (base64-wrapped binary codec) with their observations in population
// order, plus the ranked best and the population hash for integrity
// checking on restore.
type genRecord struct {
	Gen     int       `json:"gen"`
	Best    int       `json:"best"`
	PopHash string    `json:"pop_hash"`
	Genomes []string  `json:"genomes"`
	Obs     []ObsWire `json:"obs"`
}

func genRecordOf(res GenerationResult) genRecord {
	rec := genRecord{
		Gen:     res.Gen,
		Best:    res.BestIdx,
		PopHash: res.PopHash,
		Genomes: make([]string, 0, len(res.Individuals)),
		Obs:     make([]ObsWire, 0, len(res.Individuals)),
	}
	for i := range res.Individuals {
		rec.Genomes = append(rec.Genomes, base64.StdEncoding.EncodeToString(toolchain.EncodeGenome(res.Individuals[i].Genome)))
		rec.Obs = append(rec.Obs, res.Individuals[i].Obs.Wire())
	}
	return rec
}

// generation rebuilds the settled generation, validating genome
// encodings through the codec and the population hash against the
// restored content.
func (rec genRecord) generation(pop int) (GenerationResult, error) {
	if len(rec.Genomes) != pop || len(rec.Obs) != pop {
		return GenerationResult{}, fmt.Errorf("core: generation %d checkpoint has %d genomes and %d observations for population %d", rec.Gen, len(rec.Genomes), len(rec.Obs), pop)
	}
	if rec.Best < 0 || rec.Best >= pop {
		return GenerationResult{}, fmt.Errorf("core: generation %d checkpoint best index %d outside population %d", rec.Gen, rec.Best, pop)
	}
	res := GenerationResult{
		Gen:         rec.Gen,
		BestIdx:     rec.Best,
		PopHash:     rec.PopHash,
		Individuals: make([]Individual, pop),
	}
	for i := 0; i < pop; i++ {
		raw, err := base64.StdEncoding.DecodeString(rec.Genomes[i])
		if err != nil {
			return GenerationResult{}, fmt.Errorf("core: generation %d genome %d: %w", rec.Gen, i, err)
		}
		g, err := toolchain.DecodeGenome(raw)
		if err != nil {
			return GenerationResult{}, fmt.Errorf("core: generation %d genome %d: %w", rec.Gen, i, err)
		}
		res.Individuals[i] = Individual{Genome: g, Obs: rec.Obs[i].Observation()}
	}
	if got := populationHash(res.Individuals); got != rec.PopHash {
		return GenerationResult{}, fmt.Errorf("core: generation %d checkpoint corrupt: population hash %s, recorded %s", rec.Gen, got, rec.PopHash)
	}
	return res, nil
}

// SearchCheckpointSink persists settled generations. Like the campaign
// checkpoint (and through the same writer, writeJSONL), every Put
// rewrites the whole file and atomically renames it into place; a search
// is tens of generations of a few kilobytes each, so durability wins
// over write throughput.
type SearchCheckpointSink struct {
	path   string
	header searchHeader

	mu       sync.Mutex
	recs     []genRecord
	restored []GenerationResult
}

// OpenSearchCheckpointSink prepares the campaign directory and, when
// the embedded campaign's Checkpoint.Resume is set, loads the settled
// generation prefix. Records must be contiguous from generation zero;
// anything else refuses the checkpoint.
func OpenSearchCheckpointSink(s *Search) (*SearchCheckpointSink, error) {
	dir := s.cfg.Campaign.Checkpoint.Dir
	if dir == "" {
		return nil, fmt.Errorf("core: search checkpoint sink needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: checkpoint dir: %w", err)
	}
	sink := &SearchCheckpointSink{
		path:   filepath.Join(dir, SearchCheckpointFile),
		header: searchHeaderOf(s),
	}
	if s.cfg.Campaign.Checkpoint.Resume {
		recs, err := readJSONL[searchHeader, genRecord](sink.path, "search checkpoint", sink.header)
		if err != nil {
			return nil, err
		}
		pop := s.cfg.population()
		for k, rec := range recs {
			if rec.Gen != k {
				return nil, fmt.Errorf("core: search checkpoint generation %d at position %d — generations must be contiguous from zero", rec.Gen, k)
			}
			res, err := rec.generation(pop)
			if err != nil {
				return nil, err
			}
			sink.recs = append(sink.recs, rec)
			sink.restored = append(sink.restored, res)
		}
	}
	if err := writeJSONL(sink.path, "search checkpoint", sink.header, sink.recs); err != nil {
		return nil, err
	}
	return sink, nil
}

// Restored returns the settled generation prefix loaded on resume, in
// generation order.
func (s *SearchCheckpointSink) Restored() []GenerationResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]GenerationResult(nil), s.restored...)
}

// Put persists one settled generation. Generations must arrive in
// order, each exactly once.
func (s *SearchCheckpointSink) Put(res GenerationResult) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if res.Gen != len(s.recs) {
		return fmt.Errorf("core: search checkpoint expects generation %d, got %d", len(s.recs), res.Gen)
	}
	s.recs = append(s.recs, genRecordOf(res))
	return writeJSONL(s.path, "search checkpoint", s.header, s.recs)
}

// Close is the durability bookend; all writes are already flushed.
func (s *SearchCheckpointSink) Close() error { return nil }
