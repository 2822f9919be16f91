package runstate

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// collidingHash sends every key to one of three hashes by length, so a
// handful of keys already fills the string-keyed fallback.
func collidingHash(_ maphash.Seed, key string) uint64 { return uint64(len(key) % 3) }

// arenaBytes is the number of bytes written to t's chunks.
func arenaBytes(t *Table) int {
	n := 0
	for _, c := range t.chunks {
		n += len(c)
	}
	return n
}

// FuzzTable drives Put, Lookup, equal-bytes re-Put, supersede and Keys
// against a map[string][]byte model, with the real hash and with one
// that forces collisions. Every slice Lookup returned must still read
// the bytes it read then.
func FuzzTable(f *testing.F) {
	f.Add([]byte{0, 1, 5, 0, 2, 9, 1, 1, 0, 2, 1, 0, 3, 0, 0}, false)
	f.Add([]byte{0, 1, 5, 0, 2, 9, 1, 1, 0, 2, 1, 0, 3, 0, 0}, true)
	f.Add([]byte{0, 0, 0, 0, 0, 255, 0, 0, 1, 1, 0, 0, 2, 0, 0, 3, 0, 0}, true)
	f.Add(bytes.Repeat([]byte{0, 7, 200, 0, 8, 201, 1, 7, 0, 2, 8, 0}, 20), true)
	f.Fuzz(func(t *testing.T, ops []byte, collide bool) {
		var tb Table
		if collide {
			tb.hash = collidingHash
		}
		model := map[string][]byte{}
		type read struct{ got, want []byte }
		var reads []read
		for i := 0; i+2 < len(ops); i += 3 {
			key := strings.Repeat("k", int(ops[i+1]%16)+1) + fmt.Sprint(ops[i+1]%5)
			switch ops[i] % 4 {
			case 0: // put: a new key or a supersede
				val := bytes.Repeat([]byte{byte(i), ops[i+2]}, int(ops[i+2])*3)
				tb.Put(key, val)
				model[key] = val
			case 1: // lookup
				got, ok := tb.Lookup(key)
				want, wantOK := model[key]
				if ok != wantOK || !bytes.Equal(got, want) {
					t.Fatalf("Lookup(%q) = %q, %v; want %q, %v", key, got, ok, want, wantOK)
				}
				if cap(got) != len(got) {
					t.Fatalf("Lookup(%q) capacity %d beyond length %d", key, cap(got), len(got))
				}
				reads = append(reads, read{got, slices.Clone(want)})
			case 2: // re-put the stored bytes: appends nothing
				want, ok := model[key]
				if !ok {
					continue
				}
				before := arenaBytes(&tb)
				tb.Put(key, slices.Clone(want))
				if after := arenaBytes(&tb); after != before {
					t.Fatalf("re-Put of equal bytes grew the arena %d -> %d", before, after)
				}
			case 3: // keys
				keys := tb.Keys()
				want := make([]string, 0, len(model))
				for k := range model {
					want = append(want, k)
				}
				sort.Strings(keys)
				sort.Strings(want)
				if !slices.Equal(keys, want) {
					t.Fatalf("Keys = %q, want %q", keys, want)
				}
			}
			if tb.Len() != len(model) {
				t.Fatalf("Len = %d, want %d", tb.Len(), len(model))
			}
		}
		for _, r := range reads {
			if !bytes.Equal(r.got, r.want) {
				t.Fatalf("an earlier Lookup slice changed: %q, was %q", r.got, r.want)
			}
		}
		for k, want := range model {
			if got, ok := tb.Lookup(k); !ok || !bytes.Equal(got, want) {
				t.Fatalf("final Lookup(%q) = %q, %v; want %q", k, got, ok, want)
			}
		}
	})
}

// TestTableLookupAppendCopies: appending to a Lookup slice cannot write
// into the record stored after it.
func TestTableLookupAppendCopies(t *testing.T) {
	for _, collide := range []bool{false, true} {
		var tb Table
		if collide {
			tb.hash = collidingHash
		}
		tb.Put("a", []byte(`"first"`))
		tb.Put("b", []byte(`"second"`))
		v, _ := tb.Lookup("a")
		_ = append(v, `XXXXXXXXXXXXXXXX`...)
		if got, _ := tb.Lookup("a"); string(got) != `"first"` {
			t.Errorf("collide=%v: a = %q", collide, got)
		}
		if got, ok := tb.Lookup("b"); !ok || string(got) != `"second"` {
			t.Errorf("collide=%v: b = %q, %v after appending to a's slice", collide, got, ok)
		}
	}
}

// TestTableCollisionFallback: keys sharing a hash are all served, and a
// superseded fallback key is repointed, not duplicated.
func TestTableCollisionFallback(t *testing.T) {
	tb := Table{hash: collidingHash}
	for _, k := range []string{"a", "d", "g", "bb"} { // a, d, g share hash 1
		tb.Put(k, []byte(k))
	}
	if len(tb.index) != 2 || len(tb.spill) != 2 || tb.Len() != 4 {
		t.Fatalf("index %d, spill %d, Len %d; want 2, 2, 4", len(tb.index), len(tb.spill), tb.Len())
	}
	tb.Put("g", []byte("G"))
	tb.Put("a", []byte("A"))
	for k, want := range map[string]string{"a": "A", "d": "d", "g": "G", "bb": "bb"} {
		if got, ok := tb.Lookup(k); !ok || string(got) != want {
			t.Errorf("Lookup(%q) = %q, %v; want %q", k, got, ok, want)
		}
	}
	if _, ok := tb.Lookup("j"); ok {
		t.Error("Lookup of an absent colliding key hit")
	}
	if tb.Len() != 4 {
		t.Errorf("Len = %d after supersedes, want 4", tb.Len())
	}
}

// TestTableChunkGrowth: chunks start at firstChunk and double up to
// maxChunk; a record larger than the cap gets a chunk of its own and
// the chunk being filled keeps taking small records.
func TestTableChunkGrowth(t *testing.T) {
	var tb Table
	val := bytes.Repeat([]byte("v"), 1000)
	for i := 0; arenaBytes(&tb) < 4*maxChunk; i++ {
		tb.Put(fmt.Sprint(i), val)
	}
	want := firstChunk
	for i, c := range tb.chunks {
		if cap(c) != want {
			t.Fatalf("chunk %d has capacity %d, want %d", i, cap(c), want)
		}
		want = min(2*want, maxChunk)
	}
	chunks, cur := len(tb.chunks), tb.cur
	big := bytes.Repeat([]byte("B"), maxChunk+1)
	tb.Put("big", big)
	if len(tb.chunks) != chunks+1 || cap(tb.chunks[chunks]) < len(big) || tb.cur != cur {
		t.Fatalf("big record: %d chunks (was %d), cur %d (was %d)", len(tb.chunks), chunks, tb.cur, cur)
	}
	tb.Put("small", val)
	if len(tb.chunks) != chunks+1 {
		t.Errorf("a small record after the big one opened a chunk")
	}
	if got, _ := tb.Lookup("big"); !bytes.Equal(got, big) {
		t.Error("big record does not read back")
	}
}

// TestTableKeysAllocs: Keys makes O(1) allocations however many keys
// the table holds.
func TestTableKeysAllocs(t *testing.T) {
	for _, tb := range []*Table{{}, {hash: collidingHash}} {
		for i := 0; i < 2000; i++ {
			tb.Put(fmt.Sprintf("key-%d", i), []byte(`1`))
		}
		if n := testing.AllocsPerRun(20, func() { tb.Keys() }); n > 2 {
			t.Errorf("Keys made %.0f allocations for %d keys (%d colliding), want <= 2", n, tb.Len(), len(tb.spill))
		}
	}
}

// TestJournalConcurrentLookupRecord races readers, writers and
// compactions on one journal (run it under -race): every hit reads the
// bytes recorded for its key.
func TestJournalConcurrentLookupRecord(t *testing.T) {
	j, err := OpenJournal(filepath.Join(t.TempDir(), JournalFileName))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	const writers, perWriter = 4, 100
	val := func(k string) []byte { return []byte(`"` + k + strings.Repeat("x", len(k)*7) + `"`) }
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if err := j.Compact(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				k := fmt.Sprintf("w%d-%d", w, i)
				if err := j.Record(k, val(k)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 4*perWriter; i++ {
				k := fmt.Sprintf("w%d-%d", (w+1)%writers, i%perWriter)
				if got, ok := j.Lookup(k); ok && !bytes.Equal(got, val(k)) {
					t.Errorf("Lookup(%s) = %q", k, got)
					return
				}
				_ = j.Keys()
			}
		}(w)
	}
	wg.Wait()
	if j.Len() != writers*perWriter {
		t.Errorf("Len = %d, want %d", j.Len(), writers*perWriter)
	}
}

// TestJournalCompactReclaimsTable: superseded values stay in the table
// until Compact rebuilds it from the live keys; the compacted journal
// and its reopen serve the same bytes.
func TestJournalCompactReclaimsTable(t *testing.T) {
	path := filepath.Join(t.TempDir(), JournalFileName)
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	const keys, versions = 20, 10
	for v := 0; v < versions; v++ {
		ks := make([]string, keys)
		vals := make([][]byte, keys)
		for k := range ks {
			ks[k] = fmt.Sprintf("key-%02d", k)
			vals[k] = []byte(fmt.Sprintf(`{"v":%d,"pad":"%s"}`, v, strings.Repeat("p", 300)))
		}
		if err := j.RecordBatch(ks, vals); err != nil {
			t.Fatal(err)
		}
	}
	live := map[string][]byte{}
	for _, k := range j.Keys() {
		v, _ := j.Lookup(k)
		live[k] = slices.Clone(v)
	}
	before := arenaBytes(&j.entries)
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	after := arenaBytes(&j.entries)
	if after*versions > before*11/10 {
		t.Errorf("Compact kept %d of %d arena bytes; want about 1/%d", after, before, versions)
	}
	j.Close()
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	for _, jj := range []*Journal{j, j2} {
		if jj.Len() != keys {
			t.Fatalf("Len = %d, want %d", jj.Len(), keys)
		}
		for k, want := range live {
			if got, ok := jj.Lookup(k); !ok || !bytes.Equal(got, want) {
				t.Fatalf("Lookup(%s) = %q, %v; want %q", k, got, ok, want)
			}
		}
	}
	if got := arenaBytes(&j2.entries); got != after {
		t.Errorf("reopened table holds %d arena bytes, compacted one %d", got, after)
	}
}
