package core

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// fuzzHeader is the campaign identity used for valid corpus entries.
var fuzzHeader = ckptHeader{
	V: checkpointVersion, Benchmark: "fuzz.bench", BaseSeed: 42,
	InputSeed: 1, Budget: 100_000, FirstLayout: 0, Layouts: 64,
	HeapMode: 1, Fidelity: 1, RunsPerGroup: 5,
}

// fuzzCheckpointBytes renders a checkpoint file for the seed corpus.
func fuzzCheckpointBytes(recs ...ckptRecord) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	_ = enc.Encode(fuzzHeader)
	for _, r := range recs {
		_ = enc.Encode(r)
	}
	return buf.Bytes()
}

// FuzzCheckpointRoundTrip pins the checkpoint file format: parsing
// arbitrary bytes through the shared reader (readJSONL) never panics,
// and anything it accepts survives a rewrite through the campaign
// sink's writer (CheckpointSink.flushLocked, over writeJSONL) and a
// re-read with every record intact.
func FuzzCheckpointRoundTrip(f *testing.F) {
	full := fuzzCheckpointBytes(
		ckptRecord{Index: 0, LayoutSeed: 3, HeapSeed: 7, Cycles: 900, Instructions: 800,
			Events: []uint64{1, 2, 3, 4, 5}, Runs: 15, Status: uint8(StatusOK), Attempts: 1},
		ckptRecord{Index: 5, LayoutSeed: 11, HeapSeed: 13, Cycles: 1200, Instructions: 800,
			Events: []uint64{9, 8, 7, 6, 5}, Runs: 15, Status: uint8(StatusRetried), Attempts: 3},
		ckptRecord{Index: 6, LayoutSeed: 17, Status: uint8(StatusFailed), Attempts: 2},
	)
	f.Add(full)
	f.Add(full[:len(full)-9]) // torn final line (kill mid-write)
	f.Add(append(append([]byte{}, full...), []byte("{corrupt\n")...))
	f.Add([]byte(""))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte(`{"v":999}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, CheckpointFile)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		// Parse against the header the file itself claims, so valid
		// mutated headers still exercise the record path.
		want := fuzzHeader
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			var hdr ckptHeader
			if json.Unmarshal(data[:i], &hdr) == nil {
				want = hdr
			}
		}
		recs, err := readJSONL[ckptHeader, ckptRecord](path, "checkpoint", want)
		if err != nil {
			return // rejected input: rejection must be graceful, nothing more
		}

		// Rewrite through the campaign's own writer and read it back.
		w := &CheckpointSink{
			path:   filepath.Join(dir, "rewritten.jsonl"),
			header: want,
			recs:   make(map[int]ckptRecord, len(recs)),
		}
		for _, r := range recs {
			w.recs[r.Index] = r
		}
		w.mu.Lock()
		err = w.flushLocked()
		w.mu.Unlock()
		if err != nil {
			t.Fatalf("rewrite failed: %v", err)
		}
		again, err := readJSONL[ckptHeader, ckptRecord](w.path, "checkpoint", want)
		if err != nil {
			t.Fatalf("rewritten checkpoint rejected: %v", err)
		}

		// Compare as maps keyed by index: the writer keeps the last
		// record per index, exactly like a resume would.
		first := make(map[int]ckptRecord, len(recs))
		for _, r := range recs {
			first[r.Index] = r
		}
		second := make(map[int]ckptRecord, len(again))
		for _, r := range again {
			second[r.Index] = r
		}
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("round trip changed records:\nfirst  %+v\nsecond %+v", first, second)
		}
	})
}
