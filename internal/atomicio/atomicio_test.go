package atomicio

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestWriteFileReplacesAtomically(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.jsonl")
	if err := WriteFile(path, []byte("one\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, []byte("two\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("two\n")) {
		t.Fatalf("content = %q, want %q", got, "two\n")
	}
	// No temp residue: a crash-free write leaves exactly the target.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "state.jsonl" {
		t.Fatalf("directory holds %v, want only state.jsonl", entries)
	}
}

func TestWriteFileMissingDir(t *testing.T) {
	err := WriteFile(filepath.Join(t.TempDir(), "no", "such", "dir", "f"), []byte("x"), 0o644)
	if err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
}

// openLines opens the log at path and returns it with the records
// OpenLog handed back.
func openLines(t *testing.T, path string) (*Log, []string, bool) {
	t.Helper()
	var got []string
	l, torn, err := OpenLog(path, func(line []byte) error {
		got = append(got, string(line))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return l, got, torn
}

func readString(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestLogDropsTornTail: a crash mid-Append leaves a partial last line.
// OpenLog hands back every record before it, reports the tear, cuts the
// file back to the last complete record, and the next Append lands on
// its own line.
func TestLogDropsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	if err := os.WriteFile(path, []byte("{\"a\":1}\n{\"b\":2}\n{\"c\":"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, got, torn := openLines(t, path)
	if !torn || strings.Join(got, ",") != `{"a":1},{"b":2}` {
		t.Fatalf("torn=%v records %q, want the two complete ones", torn, got)
	}
	if s := readString(t, path); s != "{\"a\":1}\n{\"b\":2}\n" {
		t.Fatalf("file after open = %q, want the torn line cut", s)
	}
	if err := l.Append(map[string]int{"d": 4}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if s := readString(t, path); s != "{\"a\":1}\n{\"b\":2}\n{\"d\":4}\n" {
		t.Fatalf("file after append = %q", s)
	}
}

// TestLogRestoresMissingNewline: when only the final newline was lost
// the record is whole, so OpenLog keeps it and restores the newline.
func TestLogRestoresMissingNewline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	if err := os.WriteFile(path, []byte("{\"a\":1}\n{\"b\":2}"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, got, torn := openLines(t, path)
	if torn || len(got) != 2 || got[1] != `{"b":2}` {
		t.Fatalf("torn=%v records %q, want both kept", torn, got)
	}
	if err := l.Append(map[string]int{"c": 3}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if s := readString(t, path); s != "{\"a\":1}\n{\"b\":2}\n{\"c\":3}\n" {
		t.Fatalf("file = %q, want the newline restored before the append", s)
	}
}

// TestLogRefusesCorruption: an invalid line with records after it is not
// a crash artifact, so OpenLog refuses the file and leaves it untouched;
// so does a record the caller refuses, even on the last line.
func TestLogRefusesCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	content := "{\"a\":1}\nnot json\n{\"c\":3}\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenLog(path, func([]byte) error { return nil }); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("mid-file corruption opened: %v", err)
	}
	refuse := func(line []byte) error {
		if string(line) == `{"c":3}` {
			return errors.New("refused")
		}
		return nil
	}
	if err := os.WriteFile(path, []byte("{\"a\":1}\n{\"c\":3}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenLog(path, refuse); err == nil || !strings.Contains(err.Error(), "refused") {
		t.Fatalf("refused last record opened: %v", err)
	}
	if s := readString(t, path); s != "{\"a\":1}\n{\"c\":3}\n" {
		t.Fatalf("refused file was modified: %q", s)
	}
}

// TestLogRewriteThenAppend: a Rewrite replaces the contents and later
// appends follow it on disk; nothing appends after Close.
func TestLogRewriteThenAppend(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "log.jsonl")
	l, got, _ := openLines(t, path)
	if len(got) != 0 {
		t.Fatalf("new log replayed %q", got)
	}
	for _, rec := range []string{"x", "y"} {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Rewrite("a", "b"); err != nil {
		t.Fatal(err)
	}
	if err := l.Append("c"); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if s := readString(t, path); s != "\"a\"\n\"b\"\n\"c\"\n" {
		t.Fatalf("file = %q, want the rewrite then the append", s)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("directory holds %v, want only the log", entries)
	}
	if err := l.Append("late"); err == nil {
		t.Fatal("append after Close succeeded")
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestSyncDir(t *testing.T) {
	if err := SyncDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	if err := SyncDir(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("sync of a missing directory succeeded")
	}
}
