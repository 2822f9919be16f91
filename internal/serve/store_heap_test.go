package serve

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
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

// TestStoreScannableHeap: a MemCache holding 100k artifacts adds less
// than one byte per artifact to the heap the collector scans.
func TestStoreScannableHeap(t *testing.T) {
	const n = 100_000
	c := NewMemCache()
	val := []byte(`{"CSV":"` + strings.Repeat("0,", 140) + `"}`)
	before := scannableHeap()
	for i := 0; i < n; i++ {
		if err := c.Record(fmt.Sprintf("%064x", i), val); err != nil {
			t.Fatal(err)
		}
	}
	after := scannableHeap()
	if c.Len() != n {
		t.Fatalf("Len = %d, want %d", c.Len(), n)
	}
	perEntry := (float64(after) - float64(before)) / n
	t.Logf("scannable heap %d -> %d bytes: %.1f B/entry", before, after, perEntry)
	if perEntry >= 1 {
		t.Errorf("scannable heap grew %.1f B per stored artifact, want < 1", perEntry)
	}
}

// TestMemCacheConcurrentLookupRecord races readers against writers and
// supersedes on one MemCache (run it under -race): every hit reads one
// of the values recorded for its key.
func TestMemCacheConcurrentLookupRecord(t *testing.T) {
	const writers, perWriter = 4, 500
	c := NewMemCache()
	val := func(k string, v int) []byte { return []byte(fmt.Sprintf(`{"k":%q,"v":%d}`, k, v)) }
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for v := 0; v < 2; v++ { // the second pass supersedes every key
				for i := 0; i < perWriter; i++ {
					k := fmt.Sprintf("w%d-%d", w, i)
					if err := c.Record(k, val(k, v)); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 4*perWriter; i++ {
				k := fmt.Sprintf("w%d-%d", (w+1)%writers, i%perWriter)
				got, ok := c.Lookup(k)
				if ok && !bytes.Equal(got, val(k, 0)) && !bytes.Equal(got, val(k, 1)) {
					t.Errorf("Lookup(%s) = %q", k, got)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Len() != writers*perWriter {
		t.Errorf("Len = %d, want %d", c.Len(), writers*perWriter)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			k := fmt.Sprintf("w%d-%d", w, i)
			if got, _ := c.Lookup(k); !bytes.Equal(got, val(k, 1)) {
				t.Fatalf("Lookup(%s) = %q after supersede", k, got)
			}
		}
	}
}
