package runstate

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestJournalDegradedIsSticky injects a write failure (the file
// descriptor is closed out from under the journal, the same failure
// shape as ENOSPC or a yanked volume) and checks the journal enters the
// terminal storage-degraded state: the failing Record and every later
// one wrap ErrStorageDegraded, while Lookup keeps serving everything
// recorded before the failure.
func TestJournalDegradedIsSticky(t *testing.T) {
	j, err := OpenJournal(filepath.Join(t.TempDir(), JournalFileName))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Record("k1", []byte(`{"ok":1}`)); err != nil {
		t.Fatal(err)
	}
	if degraded(j) != nil {
		t.Fatal("healthy journal reports degraded")
	}

	// Inject the storage failure.
	j.mu.Lock()
	j.f.Close()
	j.mu.Unlock()

	err = j.Record("k2", []byte(`{"ok":2}`))
	if !errors.Is(err, ErrStorageDegraded) {
		t.Fatalf("failing Record returned %v, want ErrStorageDegraded", err)
	}
	// Sticky: the next Record fails fast the same way even though no new
	// I/O was attempted.
	if err := j.Record("k3", []byte(`{"ok":3}`)); !errors.Is(err, ErrStorageDegraded) {
		t.Fatalf("post-failure Record returned %v, want ErrStorageDegraded", err)
	}
	if cause := degraded(j); cause == nil {
		t.Fatal("failed journal does not hold its first failure")
	}
	// Reads still serve the pre-failure state.
	if v, ok := j.Lookup("k1"); !ok || string(v) != `{"ok":1}` {
		t.Fatalf("Lookup after degradation = %q, %v", v, ok)
	}
	// The failed record was not admitted to the in-memory map: a reader
	// must never see bytes that were not made durable.
	if _, ok := j.Lookup("k2"); ok {
		t.Fatal("non-durable record visible via Lookup")
	}
}

// degraded reads the journal's sticky first write or sync failure.
func degraded(j *Journal) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.degraded
}

// TestJournalRecordBatchFailureLeavesEntries fails a batch's write and,
// on a fresh journal, its fsync: either way the whole batch is rejected
// with ErrStorageDegraded and no entry of it becomes visible, while the
// entries recorded before stay as they were.
func TestJournalRecordBatchFailureLeavesEntries(t *testing.T) {
	for mode, stage := range map[string]string{"write": "append:", "sync": "sync:"} {
		t.Run(mode, func(t *testing.T) {
			j, err := OpenJournal(filepath.Join(t.TempDir(), JournalFileName))
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			if err := j.Record("k1", []byte(`1`)); err != nil {
				t.Fatal(err)
			}
			// A closed descriptor fails the write. A pipe takes the
			// write and fails the fsync (EINVAL).
			j.mu.Lock()
			switch mode {
			case "write":
				j.f.Close()
			case "sync":
				r, w, err := os.Pipe()
				if err != nil {
					t.Fatal(err)
				}
				defer r.Close()
				j.f.Close()
				j.f = w
			}
			j.mu.Unlock()
			err = j.RecordBatch([]string{"k1", "k2"}, [][]byte{[]byte(`10`), []byte(`2`)})
			if !errors.Is(err, ErrStorageDegraded) || !strings.Contains(err.Error(), stage) {
				t.Fatalf("failed batch returned %v, want ErrStorageDegraded at %s", err, stage)
			}
			if v, ok := j.Lookup("k1"); !ok || string(v) != `1` {
				t.Errorf("Lookup(k1) = %q, %v; want the pre-batch 1", v, ok)
			}
			if _, ok := j.Lookup("k2"); ok {
				t.Error("entry of a failed batch visible via Lookup")
			}
			if j.Len() != 1 {
				t.Errorf("len = %d, want 1", j.Len())
			}
		})
	}
}
