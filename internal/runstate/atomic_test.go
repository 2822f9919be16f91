package runstate

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.csv")
	if err := WriteFileAtomic(path, []byte("a,b\n1,2\n"), 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	if string(data) != "a,b\n1,2\n" {
		t.Errorf("content = %q", data)
	}
	// Overwrite replaces wholesale.
	if err := WriteFileAtomic(path, []byte("new"), 0o644); err != nil {
		t.Fatalf("overwrite: %v", err)
	}
	data, _ = os.ReadFile(path)
	if string(data) != "new" {
		t.Errorf("after overwrite = %q", data)
	}
	// No stray temp files left behind.
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Errorf("directory has %d entries, want 1 (temp leak?)", len(entries))
	}
}

func TestAtomicFileAbortLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "artifact.svg")
	af, err := CreateAtomic(path)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	af.Write([]byte("half an svg"))
	af.Abort()
	af.Abort() // idempotent
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("aborted artifact published")
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 0 {
		t.Errorf("abort left %d files", len(entries))
	}
	if _, err := af.Write([]byte("late")); err == nil {
		t.Error("write after abort accepted")
	}
}

func TestAtomicFileCommitThenAbortNoop(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.txt")
	af, err := CreateAtomic(path)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	af.Write([]byte("done"))
	if err := af.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	af.Abort() // must not delete the published file
	if err := af.Commit(); err == nil {
		t.Error("double commit accepted")
	}
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "done" {
		t.Errorf("published content = %q, %v", data, err)
	}
}

func TestWriteFileAtomicMissingParentRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nested", "deep", "f.txt")
	if err := WriteFileAtomic(path, []byte("x"), 0o644); err == nil {
		t.Error("write under a missing parent directory accepted")
	}
}

func TestEnsureWritableDir(t *testing.T) {
	dir := t.TempDir()
	if err := EnsureWritableDir(filepath.Join(dir, "new")); err != nil {
		t.Errorf("fresh dir: %v", err)
	}
	if err := EnsureWritableDir(dir); err != nil {
		t.Errorf("existing dir: %v", err)
	}
	if err := EnsureWritableDir(""); err == nil {
		t.Error("empty path accepted")
	}
	file := filepath.Join(dir, "plain")
	os.WriteFile(file, []byte("x"), 0o644)
	if err := EnsureWritableDir(file); err == nil {
		t.Error("plain file accepted as directory")
	}
	if os.Getuid() != 0 { // root ignores permission bits
		ro := filepath.Join(dir, "ro")
		os.Mkdir(ro, 0o555)
		if err := EnsureWritableDir(ro); err == nil {
			t.Error("read-only dir accepted")
		}
	}
}

func TestInterruptedClassifier(t *testing.T) {
	if !Interrupted(ErrInterrupted) || !Interrupted(context.Canceled) {
		t.Error("sentinel/cancellation not classified as interruption")
	}
	if Interrupted(os.ErrNotExist) {
		t.Error("ordinary error classified as interruption")
	}
}

func TestTrapSignalsStopReleases(t *testing.T) {
	ctx, stop, fired := TrapSignals(context.Background())
	if fired() {
		t.Error("fired before any signal")
	}
	stop()
	stop() // idempotent
	select {
	case <-ctx.Done():
	default:
		t.Error("stop did not cancel the context")
	}
	if fired() {
		t.Error("stop counted as a signal")
	}
}

func TestJournalFileNameStable(t *testing.T) {
	if !strings.HasSuffix(JournalFileName, ".jsonl") {
		t.Errorf("journal file name %q", JournalFileName)
	}
}
