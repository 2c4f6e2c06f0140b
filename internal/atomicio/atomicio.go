// Package atomicio is the shared crash-durability discipline behind
// every file the pipeline must not lose: campaign checkpoints and
// campaignd's write-ahead log. It fixes a subtle gap in
// the plain temp-write-then-rename idiom: rename makes the *content*
// switch atomic, but on many filesystems neither the new file's bytes
// nor the directory entry that names it are on stable storage until
// they are explicitly fsynced — a crash right after the rename can
// resurrect the old file or lose the entry entirely. WriteFile fsyncs
// the temp file before the rename and the parent directory after it,
// so a kill -9 at any instant leaves either the complete old file or
// the complete new one, both durably named.
//
// Appender is the complementary primitive for logs that grow a record
// at a time: every Append is written and fsynced before it returns, so
// an acknowledged record survives a crash, and a crash mid-Append
// leaves at most one truncated tail line for the reader to discard.
package atomicio

import (
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

// Appender is an append-only file whose every Append is fsynced before
// returning. Not safe for concurrent use; callers serialize.
type Appender struct {
	f *os.File
}

// OpenAppender opens (creating if missing) path for durable appends.
// The parent directory entry is fsynced when the file is created, so a
// crash immediately after OpenAppender cannot lose the file itself.
func OpenAppender(path string, perm os.FileMode) (*Appender, error) {
	_, statErr := os.Stat(path)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, perm)
	if err != nil {
		return nil, fmt.Errorf("atomicio: open append %s: %w", path, err)
	}
	if os.IsNotExist(statErr) {
		if err := SyncDir(filepath.Dir(path)); err != nil {
			f.Close()
			return nil, err
		}
	}
	return &Appender{f: f}, nil
}

// Append writes data and fsyncs. When Append returns nil the record is
// on stable storage; when it errors the file may hold a partial tail,
// which the reader must treat as absent.
func (a *Appender) Append(data []byte) error {
	if _, err := a.f.Write(data); err != nil {
		return fmt.Errorf("atomicio: append %s: %w", a.f.Name(), err)
	}
	if err := a.f.Sync(); err != nil {
		return fmt.Errorf("atomicio: sync %s: %w", a.f.Name(), err)
	}
	return nil
}

// Close closes the underlying file. Appends after Close fail.
func (a *Appender) Close() error {
	return a.f.Close()
}
