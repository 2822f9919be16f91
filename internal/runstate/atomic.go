// Package runstate makes long experiment runs durable: an append-only
// JSONL run journal with torn-tail-tolerant replay (so completed sweep
// points survive a crash and are never re-paid on resume), atomic
// artifact writes (tmp file + fsync + rename, so a crash never leaves a
// truncated file a later run silently trusts), and cooperative signal
// trapping (so SIGINT/SIGTERM drain in-flight work, commit the journal
// and exit with a distinct "interrupted, resumable" status).
package runstate

import (
	"fmt"
	"os"
	"path/filepath"
)

// WriteFileAtomic writes data to path so that a crash at any instant
// leaves either the previous file content or the complete new content,
// never a truncated mix: the bytes go to a temporary file in the same
// directory, are fsynced, and the temp file is renamed over path. The
// enclosing directory is fsynced best-effort so the rename itself is
// durable.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	af, err := CreateAtomic(path)
	if err != nil {
		return err
	}
	if _, err := af.Write(data); err != nil {
		af.Abort()
		return err
	}
	if err := af.f.Chmod(perm); err != nil {
		af.Abort()
		return err
	}
	return af.Commit()
}

// AtomicFile is a streaming writer with the same crash guarantee as
// WriteFileAtomic: bytes accumulate in a hidden temporary file and only
// an explicit Commit publishes them under the final name. Abort (safe to
// defer; a no-op after Commit) discards the temporary file.
type AtomicFile struct {
	f    *os.File
	path string
	done bool
}

// CreateAtomic opens a temporary file next to path for streaming
// writes. The parent directory must already exist — failing on a
// mistyped path beats silently growing a directory tree (callers that
// own the directory create it with EnsureWritableDir first).
func CreateAtomic(path string) (*AtomicFile, error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return nil, fmt.Errorf("runstate: %w", err)
	}
	return &AtomicFile{f: f, path: path}, nil
}

// Write appends to the pending temporary file.
func (a *AtomicFile) Write(p []byte) (int, error) {
	if a.done {
		return 0, fmt.Errorf("runstate: write to committed/aborted atomic file %s", a.path)
	}
	return a.f.Write(p)
}

// Commit fsyncs and renames the temporary file to the final path.
func (a *AtomicFile) Commit() error {
	if a.done {
		return fmt.Errorf("runstate: double commit of %s", a.path)
	}
	a.done = true
	tmp := a.f.Name()
	if err := a.f.Sync(); err != nil {
		a.f.Close()
		os.Remove(tmp)
		return fmt.Errorf("runstate: sync %s: %w", a.path, err)
	}
	if err := a.f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("runstate: close %s: %w", a.path, err)
	}
	if err := os.Rename(tmp, a.path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("runstate: publish %s: %w", a.path, err)
	}
	syncDir(filepath.Dir(a.path))
	return nil
}

// Abort discards the pending bytes; it is idempotent and a no-op after
// Commit, so it is safe to defer unconditionally.
func (a *AtomicFile) Abort() {
	if a.done {
		return
	}
	a.done = true
	tmp := a.f.Name()
	a.f.Close()
	os.Remove(tmp)
}

// syncDir makes a rename durable by fsyncing its directory; best-effort
// because some filesystems (and all of Windows) reject directory fsync.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

// EnsureWritableDir creates dir if needed and proves it is writable by
// creating and removing a probe file, so producers can fail fast before
// hours of computation rather than at the first artifact write.
func EnsureWritableDir(dir string) error {
	if dir == "" {
		return fmt.Errorf("runstate: empty output directory")
	}
	if fi, err := os.Stat(dir); err == nil && !fi.IsDir() {
		return fmt.Errorf("runstate: output path %s exists and is not a directory", dir)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("runstate: create output directory: %w", err)
	}
	probe, err := os.CreateTemp(dir, ".writable-probe-*")
	if err != nil {
		return fmt.Errorf("runstate: output directory %s is not writable: %w", dir, err)
	}
	name := probe.Name()
	probe.Close()
	os.Remove(name)
	return nil
}
