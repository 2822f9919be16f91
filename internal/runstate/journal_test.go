package runstate

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), JournalFileName)
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := j.Record("k1", []byte(`{"v":1}`)); err != nil {
		t.Fatalf("record: %v", err)
	}
	if err := j.Record("k2", []byte(`"row"`)); err != nil {
		t.Fatalf("record: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j2.Close()
	if j2.Len() != 2 || j2.Dropped() != 0 {
		t.Fatalf("len=%d dropped=%d, want 2/0", j2.Len(), j2.Dropped())
	}
	v, ok := j2.Lookup("k2")
	if !ok || string(v) != `"row"` {
		t.Errorf("Lookup(k2) = %q, %v", v, ok)
	}
	if _, ok := j2.Lookup("missing"); ok {
		t.Error("Lookup(missing) hit")
	}
}

func TestJournalTornTailDropped(t *testing.T) {
	path := filepath.Join(t.TempDir(), JournalFileName)
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := j.Record("good", []byte(`42`)); err != nil {
		t.Fatalf("record: %v", err)
	}
	j.Close()

	// Simulate a crash mid-append: a partial record with no newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"key":"torn","val":17,"cr`)
	f.Close()

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("replay with torn tail: %v", err)
	}
	defer j2.Close()
	if j2.Len() != 1 || j2.Dropped() != 1 {
		t.Errorf("len=%d dropped=%d, want 1/1", j2.Len(), j2.Dropped())
	}
	if _, ok := j2.Lookup("torn"); ok {
		t.Error("torn record resurrected")
	}
	// The journal stays appendable after a torn tail: OpenJournal
	// terminates the partial line, so a fresh record replays cleanly.
	if err := j2.Record("after", []byte(`true`)); err != nil {
		t.Fatalf("record after torn tail: %v", err)
	}
	j2.Close()
	j3, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("third replay: %v", err)
	}
	defer j3.Close()
	if _, ok := j3.Lookup("after"); !ok {
		t.Error("record appended after torn tail lost on replay")
	}
	if _, ok := j3.Lookup("good"); !ok {
		t.Error("pre-crash record lost on replay")
	}
}

func TestJournalChecksumMismatchDropped(t *testing.T) {
	path := filepath.Join(t.TempDir(), JournalFileName)
	line, _ := json.Marshal(record{Key: "k", Val: []byte(`1`), CRC: 12345})
	if err := os.WriteFile(path, append(line, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer j.Close()
	if j.Len() != 0 || j.Dropped() != 1 {
		t.Errorf("len=%d dropped=%d, want 0/1", j.Len(), j.Dropped())
	}
}

func TestJournalDuplicateKeyLastWins(t *testing.T) {
	path := filepath.Join(t.TempDir(), JournalFileName)
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	j.Record("k", []byte(`1`))
	j.Record("k", []byte(`2`))
	j.Close()
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j2.Close()
	if v, _ := j2.Lookup("k"); string(v) != `2` {
		t.Errorf("duplicate key value = %q, want 2 (last wins)", v)
	}
	if j2.Len() != 1 {
		t.Errorf("len = %d, want 1", j2.Len())
	}
}

func TestJournalRejectsBadRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), JournalFileName)
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer j.Close()
	if err := j.Record("", []byte(`1`)); err == nil {
		t.Error("empty key accepted")
	}
	if err := j.Record("k", []byte(`{broken`)); err == nil {
		t.Error("non-JSON value accepted")
	}
}

func TestJournalRecordAfterClose(t *testing.T) {
	j, err := OpenJournal(filepath.Join(t.TempDir(), JournalFileName))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	j.Record("k", []byte(`1`))
	j.Close()
	if err := j.Record("k2", []byte(`2`)); err == nil {
		t.Error("record after close accepted")
	}
	if _, ok := j.Lookup("k"); !ok {
		t.Error("lookup broken after close")
	}
}

func TestJournalConcurrentRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), JournalFileName)
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key, _ := HashJSON(i)
			if err := j.Record(key, []byte(`"v"`)); err != nil {
				t.Errorf("record %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	j.Close()
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j2.Close()
	if j2.Len() != 16 || j2.Dropped() != 0 {
		t.Errorf("len=%d dropped=%d, want 16/0", j2.Len(), j2.Dropped())
	}
}

// TestJournalManyConcurrentWriters hammers one journal with sustained
// concurrent appends — distinct keys, contended shared keys, and
// readers racing the writers — then proves the file replays without a
// single dropped record and byte-for-byte equal to the in-memory state.
// This is the durability contract the serving layer leans on when
// several HTTP workers Record through one journal.
func TestJournalManyConcurrentWriters(t *testing.T) {
	path := filepath.Join(t.TempDir(), JournalFileName)
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}

	const writers = 8
	const perWriter = 40
	const sharedKeys = 10
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				key, _ := HashJSON(struct{ W, I int }{w, i})
				val := []byte(fmt.Sprintf(`{"w":%d,"i":%d}`, w, i))
				if err := j.Record(key, val); err != nil {
					t.Errorf("writer %d record %d: %v", w, i, err)
					return
				}
				// Contended key: every writer also rewrites a shared slot,
				// so replay order and last-wins semantics are exercised.
				skey, _ := HashJSON(struct{ Shared int }{i % sharedKeys})
				if err := j.Record(skey, val); err != nil {
					t.Errorf("writer %d shared %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	// Readers race the writers; every observed value must be valid JSON
	// (never a torn or partially-copied buffer).
	stop := make(chan struct{})
	var rg sync.WaitGroup
	for r := 0; r < 4; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			probe, _ := HashJSON(struct{ Shared int }{0})
			for {
				select {
				case <-stop:
					return
				default:
				}
				if v, ok := j.Lookup(probe); ok && !json.Valid(v) {
					t.Error("reader observed invalid JSON mid-write")
					return
				}
				_ = j.Len()
			}
		}()
	}
	wg.Wait()
	close(stop)
	rg.Wait()

	wantLen := writers*perWriter + sharedKeys
	if j.Len() != wantLen {
		t.Errorf("in-memory len=%d, want %d", j.Len(), wantLen)
	}
	// Snapshot the in-memory state, then prove replay reproduces it
	// exactly: same keys, same bytes, zero dropped lines.
	mem := map[string][]byte{}
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			key, _ := HashJSON(struct{ W, I int }{w, i})
			v, ok := j.Lookup(key)
			if !ok {
				t.Fatalf("writer %d record %d missing before close", w, i)
			}
			mem[key] = v
		}
	}
	for s := 0; s < sharedKeys; s++ {
		key, _ := HashJSON(struct{ Shared int }{s})
		v, ok := j.Lookup(key)
		if !ok {
			t.Fatalf("shared key %d missing before close", s)
		}
		mem[key] = v
	}
	if err := j.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j2.Close()
	if j2.Dropped() != 0 {
		t.Errorf("replay dropped %d records written under contention", j2.Dropped())
	}
	if j2.Len() != wantLen {
		t.Errorf("replayed len=%d, want %d", j2.Len(), wantLen)
	}
	for key, want := range mem {
		got, ok := j2.Lookup(key)
		if !ok {
			t.Errorf("key %s lost across reopen", key)
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("key %s replayed %s, in-memory had %s", key, got, want)
		}
	}
}

func TestHashJSONStableAndSensitive(t *testing.T) {
	type pt struct{ Gi, Gd float64 }
	a1, err := HashJSON(pt{1, 2})
	if err != nil {
		t.Fatalf("hash: %v", err)
	}
	a2, _ := HashJSON(pt{1, 2})
	b, _ := HashJSON(pt{1, 3})
	if a1 != a2 {
		t.Error("identical inputs hash differently")
	}
	if a1 == b {
		t.Error("different inputs collide")
	}
	if len(a1) != 64 || strings.ToLower(a1) != a1 {
		t.Errorf("hash %q is not lowercase hex sha-256", a1)
	}
	if _, err := HashJSON(func() {}); err == nil {
		t.Error("unmarshalable value accepted")
	}
}

// TestJournalNonCompactValueSurvivesReopen records valid values that
// are not in encoding/json's compact, HTML-escaped form. Each must
// replay to exactly what Lookup served before Close: the line, its
// checksum and the stored entry all cover the same bytes.
func TestJournalNonCompactValueSurvivesReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), JournalFileName)
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	vals := map[string]string{
		"spaced":  `{"a": 1}`,
		"html":    `{"a":"<b>"}`,
		"amp":     `"x&y"`,
		"compact": `{"a":1}`,
	}
	before := map[string]string{}
	for k, v := range vals {
		if err := j.Record(k, []byte(v)); err != nil {
			t.Fatalf("record %s: %v", k, err)
		}
		got, ok := j.Lookup(k)
		if !ok {
			t.Fatalf("Lookup(%s) missed right after Record", k)
		}
		before[k] = string(got)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Dropped() != 0 {
		t.Errorf("reopen dropped %d records", j2.Dropped())
	}
	for k, want := range before {
		if got, ok := j2.Lookup(k); !ok || string(got) != want {
			t.Errorf("Lookup(%s) after reopen = %q, %v; before Close it was %q", k, got, ok, want)
		}
	}
	if before["compact"] != vals["compact"] {
		t.Errorf("compact value stored as %q, want it unchanged", before["compact"])
	}
}

// TestJournalRecordBatchOneLinePerRecord checks a batch appends exactly
// the lines its records would append one Record at a time.
func TestJournalRecordBatchOneLinePerRecord(t *testing.T) {
	dir := t.TempDir()
	keys := []string{"a", "b", "c"}
	vals := [][]byte{[]byte(`1`), []byte(`"two"`), []byte(`{"v":3}`)}
	one, err := OpenJournal(filepath.Join(dir, "one", JournalFileName))
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if err := one.Record(keys[i], vals[i]); err != nil {
			t.Fatal(err)
		}
	}
	one.Close()
	batch, err := OpenJournal(filepath.Join(dir, "batch", JournalFileName))
	if err != nil {
		t.Fatal(err)
	}
	if err := batch.RecordBatch(keys, vals); err != nil {
		t.Fatal(err)
	}
	batch.Close()
	a, _ := os.ReadFile(one.Path())
	b, _ := os.ReadFile(batch.Path())
	if !bytes.Equal(a, b) {
		t.Errorf("batch lines differ from per-record lines:\n%s\n%s", b, a)
	}
	if err := batch.RecordBatch([]string{"x"}, nil); err == nil {
		t.Error("batch with mismatched lengths accepted")
	}
}

// TestJournalRecordBatchTornTail cuts a batch's last line short, as a
// crash mid-append leaves it: replay drops only the torn line.
func TestJournalRecordBatchTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), JournalFileName)
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.RecordBatch([]string{"a", "b", "c"}, [][]byte{[]byte(`1`), []byte(`2`), []byte(`3`)}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != 2 || j2.Dropped() != 1 {
		t.Errorf("len=%d dropped=%d, want 2/1", j2.Len(), j2.Dropped())
	}
	for _, k := range []string{"a", "b"} {
		if _, ok := j2.Lookup(k); !ok {
			t.Errorf("whole line %s lost with the torn tail", k)
		}
	}
	if _, ok := j2.Lookup("c"); ok {
		t.Error("torn line resurrected")
	}
}

// TestJournalRecordBatchRejectsWhole checks a batch holding one bad
// record writes nothing: validation runs before the append.
func TestJournalRecordBatchRejectsWhole(t *testing.T) {
	path := filepath.Join(t.TempDir(), JournalFileName)
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.RecordBatch([]string{"a", "b"}, [][]byte{[]byte(`1`), []byte(`{broken`)}); err == nil {
		t.Fatal("batch with an invalid value accepted")
	}
	if err := j.RecordBatch([]string{"a", ""}, [][]byte{[]byte(`1`), []byte(`2`)}); err == nil {
		t.Fatal("batch with an empty key accepted")
	}
	if j.Len() != 0 {
		t.Errorf("rejected batches left %d entries", j.Len())
	}
	if info, _ := os.Stat(path); info.Size() != 0 {
		t.Errorf("rejected batches wrote %d bytes", info.Size())
	}
}

// TestJournalRecordBatchDuplicateKeyLastWins repeats a key inside one
// batch: the later record wins, in memory and after replay.
func TestJournalRecordBatchDuplicateKeyLastWins(t *testing.T) {
	path := filepath.Join(t.TempDir(), JournalFileName)
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.RecordBatch([]string{"k", "other", "k"}, [][]byte{[]byte(`1`), []byte(`0`), []byte(`2`)}); err != nil {
		t.Fatal(err)
	}
	if v, _ := j.Lookup("k"); string(v) != `2` {
		t.Errorf("in-memory value = %q, want 2 (last wins)", v)
	}
	j.Close()
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if v, _ := j2.Lookup("k"); string(v) != `2` || j2.Len() != 2 {
		t.Errorf("replayed value = %q len=%d, want 2 and 2 keys", v, j2.Len())
	}
}
