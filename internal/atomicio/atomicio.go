// Package atomicio is the shared crash-durability discipline behind
// every file the pipeline must not lose: campaign and search
// checkpoints and campaignd's write-ahead log. It fixes a subtle gap in
// the plain temp-write-then-rename idiom: rename makes the *content*
// switch atomic, but on many filesystems neither the new file's bytes
// nor the directory entry that names it are on stable storage until
// they are explicitly fsynced — a crash right after the rename can
// resurrect the old file or lose the entry entirely. WriteFile fsyncs
// the temp file before the rename and the parent directory after it,
// so a kill -9 at any instant leaves either the complete old file or
// the complete new one, both durably named.
//
// Log is the one record-file format on top of it, shared by all three
// files: JSON lines that grow a record at a time. Every Append is
// written and fsynced before it returns, so an acknowledged record
// survives a crash, and a crash mid-Append leaves at most one torn last
// line, which OpenLog drops. Rewrite compacts a log through WriteFile.
package atomicio

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// WriteFile atomically and durably replaces path with data: write to a
// temp file in the same directory, fsync it, rename it over path, then
// fsync the directory so the rename itself is on stable storage. On any
// error the temp file is removed and path is untouched.
func WriteFile(path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("atomicio: temp for %s: %w", path, err)
	}
	tmpName := tmp.Name()
	fail := func(stage string, err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("atomicio: %s %s: %w", stage, path, err)
	}
	if _, err := tmp.Write(data); err != nil {
		return fail("write", err)
	}
	if err := tmp.Chmod(perm); err != nil {
		return fail("chmod", err)
	}
	// The data must be stable before the rename publishes the name:
	// otherwise a crash can leave the new name pointing at missing bytes.
	if err := tmp.Sync(); err != nil {
		return fail("sync", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("atomicio: close %s: %w", path, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("atomicio: rename %s: %w", path, err)
	}
	return SyncDir(dir)
}

// SyncDir fsyncs a directory, making previously renamed or created
// entries durable. Filesystems that do not support fsync on directories
// report nothing to sync; that error is deliberately surfaced — callers
// relying on durability should know the platform cannot provide it.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("atomicio: open dir %s: %w", dir, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("atomicio: sync dir %s: %w", dir, err)
	}
	return nil
}

// Log is an append-only file of JSON lines, one record per line. Not
// safe for concurrent use; callers serialize.
type Log struct {
	path string
	f    *os.File
}

// OpenLog reads the log at path back and opens it for appends, creating
// it (and fsyncing its directory) if missing. Every complete record
// goes to apply in file order. The crash rules are syntactic: a last
// line that is not valid JSON is a torn append, so it is dropped, the
// file is cut back to its last complete record and torn reports the
// repair; a valid last line that lost only its newline is kept and the
// newline restored. An invalid line anywhere else is corruption and
// refuses to open, as does any error apply returns, wherever its line
// sits.
func OpenLog(path string, apply func(line []byte) error) (l *Log, torn bool, err error) {
	data, err := os.ReadFile(path)
	created := os.IsNotExist(err)
	if err != nil && !created {
		return nil, false, fmt.Errorf("atomicio: read log %s: %w", path, err)
	}
	end, unterminated := 0, false // end: length of the complete-record prefix
	for end < len(data) {
		line, rest, found := bytes.Cut(data[end:], []byte{'\n'})
		if !json.Valid(line) {
			if len(rest) > 0 {
				return nil, false, fmt.Errorf("atomicio: log %s: corrupt record at offset %d: %.80q", path, end, line)
			}
			torn = true
			break
		}
		if err := apply(line); err != nil {
			return nil, false, fmt.Errorf("atomicio: log %s: record at offset %d: %w", path, end, err)
		}
		end += len(line) + 1
		unterminated = !found
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, false, fmt.Errorf("atomicio: open log %s: %w", path, err)
	}
	// Square the file up so the next append starts on a line boundary.
	switch {
	case torn:
		err = f.Truncate(int64(end))
	case unterminated:
		_, err = f.Write([]byte{'\n'})
	case created:
		err = SyncDir(filepath.Dir(path))
	}
	if err != nil {
		f.Close()
		return nil, false, fmt.Errorf("atomicio: open log %s: %w", path, err)
	}
	return &Log{path: path, f: f}, torn, nil
}

// Append writes rec as one JSON line and fsyncs it. When Append returns
// nil the record is on stable storage; when it errors the file may hold
// a torn last line, which the next OpenLog drops.
func (l *Log) Append(rec any) error {
	if l.f == nil {
		return fmt.Errorf("atomicio: log %s is closed", l.path)
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("atomicio: encode for %s: %w", l.path, err)
	}
	if _, err := l.f.Write(append(data, '\n')); err != nil {
		return fmt.Errorf("atomicio: append %s: %w", l.path, err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("atomicio: sync %s: %w", l.path, err)
	}
	return nil
}

// Rewrite compacts the log: recs, one JSON line each, atomically
// replace its contents through WriteFile, and later appends follow
// them. On error before the replacement the old contents stay.
func (l *Log) Rewrite(recs ...any) error {
	if l.f == nil {
		return fmt.Errorf("atomicio: log %s is closed", l.path)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, rec := range recs {
		if err := enc.Encode(rec); err != nil {
			return fmt.Errorf("atomicio: encode for %s: %w", l.path, err)
		}
	}
	if err := WriteFile(l.path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	// The open descriptor names the replaced file, whose appends were
	// all synced, so only the new file's descriptor matters.
	l.f.Close()
	f, err := os.OpenFile(l.path, os.O_WRONLY|os.O_APPEND, 0)
	l.f = f
	if err != nil {
		l.f = nil
		return fmt.Errorf("atomicio: reopen log %s: %w", l.path, err)
	}
	return nil
}

// Close closes the file. Later appends and rewrites fail; closing a
// closed log does nothing.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}
