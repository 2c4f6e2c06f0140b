package core_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"interferometry/internal/core"
	"interferometry/internal/faultinject"
	"interferometry/internal/results"
)

// datasetCSV renders a dataset to its canonical CSV bytes, the byte-level
// identity the resume tests compare.
func datasetCSV(t *testing.T, ds *core.Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := results.WriteDatasetCSV(&buf, ds); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func checkpointPath(dir string) string {
	return filepath.Join(dir, core.CheckpointFile)
}

// TestResumeAfterKillIsByteIdentical simulates a kill by truncating the
// checkpoint to a prefix of its records (what an interrupted campaign
// leaves behind when its layouts complete in index order; out-of-order
// completions are TestResumeFromAppendedCheckpoint's), then resumes. Both the resumed dataset and the final on-disk checkpoint must
// be byte-for-byte identical to an uninterrupted run's.
func TestResumeAfterKillIsByteIdentical(t *testing.T) {
	dir := t.TempDir()
	cfg := smallCampaign(20)
	cfg.Checkpoint = core.CheckpointConfig{Dir: dir}
	full, err := core.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fullFile, err := os.ReadFile(checkpointPath(dir))
	if err != nil {
		t.Fatal(err)
	}

	// "Kill" the campaign after 7 observations: keep the header line plus
	// the first 7 records.
	lines := bytes.SplitAfter(fullFile, []byte("\n"))
	if len(lines) < 9 {
		t.Fatalf("checkpoint has %d lines, want header + 20 records", len(lines))
	}
	truncated := bytes.Join(lines[:8], nil)
	if err := os.WriteFile(checkpointPath(dir), truncated, 0o644); err != nil {
		t.Fatal(err)
	}

	cfg.Checkpoint.Resume = true
	resumed, err := core.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(datasetCSV(t, resumed), datasetCSV(t, full)) {
		t.Fatal("resumed dataset differs from the uninterrupted run")
	}
	for i := range resumed.Obs {
		if resumed.Obs[i] != full.Obs[i] {
			t.Fatalf("observation %d differs after resume", i)
		}
	}
	resumedFile, err := os.ReadFile(checkpointPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resumedFile, fullFile) {
		t.Fatal("resumed checkpoint file differs from the uninterrupted run's")
	}
}

// TestResumeAfterAbortedCampaign aborts a checkpointing campaign via
// injected faults (budget zero), then resumes without the injector: the
// result must match a clean uninterrupted campaign exactly.
func TestResumeAfterAbortedCampaign(t *testing.T) {
	clean, err := core.RunCampaign(smallCampaign(20))
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	cfg := smallCampaign(20)
	cfg.Checkpoint = core.CheckpointConfig{Dir: dir}
	cfg.MaxAttempts = 1
	cfg.Workers = 4
	cfg.Faults = faultinject.New(17, faultinject.Config{
		Measure: faultinject.Rates{Error: 0.3, MaxFaults: 10},
	})
	if _, err := core.RunCampaign(cfg); err == nil {
		t.Fatal("faulty campaign with zero budget did not abort")
	}
	if _, err := os.Stat(checkpointPath(dir)); err != nil {
		t.Fatalf("aborted campaign left no checkpoint: %v", err)
	}

	cfg = smallCampaign(20)
	cfg.Checkpoint = core.CheckpointConfig{Dir: dir, Resume: true}
	resumed, err := core.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range resumed.Obs {
		if resumed.Obs[i] != clean.Obs[i] {
			t.Fatalf("observation %d differs between resumed and clean campaigns", i)
		}
	}
}

// TestResumeRetriesFailedRecords: StatusFailed records are checkpointed
// (the degraded dataset is durable) but a resume does not trust them — it
// retries those layouts, so a transient outage heals on the next run.
func TestResumeRetriesFailedRecords(t *testing.T) {
	clean, err := core.RunCampaign(smallCampaign(15))
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	cfg := smallCampaign(15)
	cfg.Checkpoint = core.CheckpointConfig{Dir: dir}
	cfg.MaxAttempts = 1
	cfg.FailureBudget = 15
	cfg.Faults = faultinject.New(11, faultinject.Config{
		Measure: faultinject.Rates{Error: 0.25, MaxFaults: 10},
	})
	degraded, err := core.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(degraded.Failures) == 0 {
		t.Fatal("no failures — the test exercised nothing")
	}

	cfg = smallCampaign(15)
	cfg.Checkpoint = core.CheckpointConfig{Dir: dir, Resume: true}
	healed, err := core.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(healed.Failures) != 0 || healed.EffectiveN() != 15 {
		t.Fatalf("resume did not heal the failed layouts: %d failures, effective %d",
			len(healed.Failures), healed.EffectiveN())
	}
	for i := range healed.Obs {
		if healed.Obs[i].Measurement != clean.Obs[i].Measurement {
			t.Fatalf("healed observation %d differs from clean run", i)
		}
	}
}

// TestResumeSkipsCompletedWork: resuming a complete checkpoint performs
// no builds or measurements at all — proven by attaching an injector that
// would fail every call.
func TestResumeSkipsCompletedWork(t *testing.T) {
	dir := t.TempDir()
	cfg := smallCampaign(10)
	cfg.Checkpoint = core.CheckpointConfig{Dir: dir}
	full, err := core.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}

	cfg.Checkpoint.Resume = true
	inj := faultinject.New(1, faultinject.Config{
		Build:   faultinject.Rates{Error: 1, MaxFaults: 1 << 30},
		Measure: faultinject.Rates{Error: 1, MaxFaults: 1 << 30},
	})
	cfg.Faults = inj
	resumed, err := core.RunCampaign(cfg)
	if err != nil {
		t.Fatalf("resume of a complete checkpoint re-measured something: %v", err)
	}
	if inj.Injected() != 0 {
		t.Errorf("resume made %d seam calls for a complete checkpoint", inj.Injected())
	}
	for i := range resumed.Obs {
		if resumed.Obs[i] != full.Obs[i] {
			t.Fatalf("observation %d differs after no-op resume", i)
		}
	}
}

// TestResumeRejectsDifferentCampaign: a checkpoint only resumes under the
// exact campaign config that wrote it.
func TestResumeRejectsDifferentCampaign(t *testing.T) {
	dir := t.TempDir()
	cfg := smallCampaign(8)
	cfg.Checkpoint = core.CheckpointConfig{Dir: dir}
	if _, err := core.RunCampaign(cfg); err != nil {
		t.Fatal(err)
	}

	other := smallCampaign(8)
	other.Budget += 1000
	other.Checkpoint = core.CheckpointConfig{Dir: dir, Resume: true}
	if _, err := core.RunCampaign(other); err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("mismatched header accepted: %v", err)
	}
}

// TestResumeRejectsTamperedRecord: a record whose layout seed is not what
// the campaign derives for its index is refused — it belongs to some
// other campaign (or was corrupted on disk).
func TestResumeRejectsTamperedRecord(t *testing.T) {
	dir := t.TempDir()
	cfg := smallCampaign(8)
	cfg.Checkpoint = core.CheckpointConfig{Dir: dir}
	if _, err := core.RunCampaign(cfg); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(checkpointPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	var rec map[string]any
	if err := json.Unmarshal(lines[1], &rec); err != nil {
		t.Fatal(err)
	}
	rec["layout_seed"] = 12345
	tampered, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	lines[1] = tampered
	if err := os.WriteFile(checkpointPath(dir), append(bytes.Join(lines, []byte("\n")), '\n'), 0o644); err != nil {
		t.Fatal(err)
	}

	cfg.Checkpoint.Resume = true
	if _, err := core.RunCampaign(cfg); err == nil || !strings.Contains(err.Error(), "different campaign") {
		t.Fatalf("tampered record accepted: %v", err)
	}
}

// TestCheckpointWithoutResumeOverwrites: running without Resume starts
// fresh even when a checkpoint exists.
func TestCheckpointWithoutResumeOverwrites(t *testing.T) {
	dir := t.TempDir()
	cfg := smallCampaign(5)
	cfg.Checkpoint = core.CheckpointConfig{Dir: dir}
	a, err := core.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Obs {
		if a.Obs[i] != b.Obs[i] {
			t.Fatalf("overwrite run differs at observation %d", i)
		}
	}
}

// TestResumeFromAppendedCheckpoint resumes the file a killed campaign
// leaves behind now that every Put appends: records in completion order,
// a layout recorded twice whose last record is StatusFailed (the outlier
// screen can degrade a layout after its first Put), and a torn last
// line. The last record per index wins, so the failed layout and the
// torn one are measured again; the dataset matches the uninterrupted
// run and, once closed, so do the file's bytes.
func TestResumeFromAppendedCheckpoint(t *testing.T) {
	dir := t.TempDir()
	cfg := smallCampaign(12)
	cfg.Checkpoint = core.CheckpointConfig{Dir: dir}
	full, err := core.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fullFile, err := os.ReadFile(checkpointPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(fullFile, []byte("\n"))
	rec := func(i int) []byte { return lines[1+i] } // lines[0] is the header

	var failed map[string]any
	dec := json.NewDecoder(bytes.NewReader(rec(2)))
	dec.UseNumber() // keep the 64-bit seeds exact
	if err := dec.Decode(&failed); err != nil {
		t.Fatal(err)
	}
	failed["status"] = int(core.StatusFailed)
	failedLine, err := json.Marshal(failed)
	if err != nil {
		t.Fatal(err)
	}
	killed := bytes.Join([][]byte{
		lines[0], rec(5), rec(2), rec(9), rec(0), rec(11),
		append(failedLine, '\n'), rec(3),
		rec(7)[:len(rec(7))/2], // torn mid-append
	}, nil)
	if err := os.WriteFile(checkpointPath(dir), killed, 0o644); err != nil {
		t.Fatal(err)
	}

	cfg.Checkpoint.Resume = true
	sink, err := core.OpenCheckpointSink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	restored := sink.Restored()
	if len(restored) != 5 || restored[5] != full.Obs[5] || restored[3] != full.Obs[3] {
		t.Fatalf("restored layouts %v, want 0, 3, 5, 9 and 11", restored)
	}
	if _, ok := restored[2]; ok {
		t.Fatal("a layout whose last record failed was restored")
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	resumed, err := core.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(datasetCSV(t, resumed), datasetCSV(t, full)) {
		t.Fatal("resumed dataset differs from the uninterrupted run")
	}
	resumedFile, err := os.ReadFile(checkpointPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resumedFile, fullFile) {
		t.Fatalf("closed checkpoint differs from the uninterrupted run's:\n%s\nwant\n%s", resumedFile, fullFile)
	}

	// Corruption in the middle of the file still refuses to resume.
	garbled := bytes.Join([][]byte{lines[0], rec(0), []byte("{garbage\n"), rec(1)}, nil)
	if err := os.WriteFile(checkpointPath(dir), garbled, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := core.RunCampaign(cfg); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("mid-file corruption resumed: %v", err)
	}
}
