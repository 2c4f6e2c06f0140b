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

// loadRecords decodes checkpoint records into m, the last record per
// index winning, as a resume does.
func loadRecords(m map[int]ckptRecord) func(line []byte) error {
	return func(line []byte) error {
		var r ckptRecord
		if err := json.Unmarshal(line, &r); err != nil {
			return err
		}
		m[r.Index] = r
		return nil
	}
}

// FuzzCheckpointRoundTrip pins the checkpoint file format: opening
// arbitrary bytes through openCheckpoint never panics, and anything it
// accepts survives the campaign sink's compaction
// (CheckpointSink.flushLocked), one appended record and a reopen with
// every record intact.
func FuzzCheckpointRoundTrip(f *testing.F) {
	full := fuzzCheckpointBytes(
		ckptRecord{Index: 0, ObsWire: ObsWire{LayoutSeed: 3, HeapSeed: 7, Cycles: 900, Instructions: 800,
			Events: []uint64{1, 2, 3, 4, 5}, Runs: 15, Status: uint8(StatusOK), Attempts: 1}},
		ckptRecord{Index: 5, ObsWire: ObsWire{LayoutSeed: 11, HeapSeed: 13, Cycles: 1200, Instructions: 800,
			Events: []uint64{9, 8, 7, 6, 5}, Runs: 15, Status: uint8(StatusRetried), Attempts: 3}},
		ckptRecord{Index: 6, ObsWire: ObsWire{LayoutSeed: 17, Status: uint8(StatusFailed), Attempts: 2}},
	)
	f.Add(full)
	f.Add(full[:len(full)-9]) // torn final line (kill mid-append): resumes without it
	f.Add(append(append([]byte{}, full...), []byte("{corrupt\n")...))
	f.Add([]byte(""))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte(`{"v":999}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), CheckpointFile)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		// Open against the header the file itself claims, so valid
		// mutated headers still exercise the record path.
		want := fuzzHeader
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			var hdr ckptHeader
			if json.Unmarshal(data[:i], &hdr) == nil {
				want = hdr
			}
		}
		recs := make(map[int]ckptRecord)
		log, err := openCheckpoint(path, "checkpoint", want, true, loadRecords(recs))
		if err != nil {
			return // rejected input: rejection must be graceful, nothing more
		}

		// Compact through the campaign sink, append one more record and
		// read the file back.
		s := &CheckpointSink{header: want, log: log, recs: recs}
		s.mu.Lock()
		err = s.flushLocked()
		s.mu.Unlock()
		if err != nil {
			t.Fatalf("compaction failed: %v", err)
		}
		extra := ckptRecord{Index: 7, ObsWire: ObsWire{LayoutSeed: 19, Events: []uint64{4}, Runs: 1, Attempts: 1}}
		if err := log.Append(extra); err != nil {
			t.Fatalf("append after compaction failed: %v", err)
		}
		recs[extra.Index] = extra
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
		again := make(map[int]ckptRecord)
		log, err = openCheckpoint(path, "checkpoint", want, true, loadRecords(again))
		if err != nil {
			t.Fatalf("compacted checkpoint rejected: %v", err)
		}
		log.Close()
		if !reflect.DeepEqual(recs, again) {
			t.Fatalf("round trip changed records:\nfirst  %+v\nsecond %+v", recs, again)
		}
	})
}
