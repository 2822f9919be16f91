package runstate

import (
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"testing"
)

// scannableHeap collects garbage and returns the bytes of live heap the
// collector has to scan for pointers (/gc/scan/heap:bytes).
func scannableHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/scan/heap:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// TestStoreScannableHeap: a journal holding 100k artifacts adds less
// than one byte per artifact to the heap the collector scans, so a
// store that grows all run costs no GC marking work per stored row.
func TestStoreScannableHeap(t *testing.T) {
	const n, batch = 100_000, 1000
	j, err := OpenJournal(filepath.Join(t.TempDir(), JournalFileName))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	val := []byte(`{"CSV":"` + strings.Repeat("0,", 140) + `"}`)
	before := scannableHeap()
	for i := 0; i < n; i += batch {
		keys := make([]string, batch)
		vals := make([][]byte, batch)
		for r := range keys {
			keys[r] = fmt.Sprintf("%064x", i+r)
			vals[r] = val
		}
		if err := j.RecordBatch(keys, vals); err != nil {
			t.Fatal(err)
		}
	}
	after := scannableHeap()
	if j.Len() != n {
		t.Fatalf("Len = %d, want %d", j.Len(), n)
	}
	perEntry := (float64(after) - float64(before)) / n
	t.Logf("scannable heap %d -> %d bytes: %.1f B/entry", before, after, perEntry)
	if perEntry >= 1 {
		t.Errorf("scannable heap grew %.1f B per stored artifact, want < 1", perEntry)
	}
}
