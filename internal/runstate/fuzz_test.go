package runstate

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"unicode/utf8"
)

// FuzzJournalReplay feeds arbitrary bytes to the journal replay path and
// asserts the durability contract: replay never panics, never fails on
// corrupt content, and never resurrects a record whose checksum does not
// hold — every surviving entry must be valid JSON that round-trips
// through the record checksum.
func FuzzJournalReplay(f *testing.F) {
	valid := func(key string, val string) []byte {
		line, _ := json.Marshal(record{Key: key, Val: []byte(val), CRC: recordCRC(key, []byte(val))})
		return append(line, '\n')
	}
	// Seed corpus: the interesting shapes from the unit tests.
	f.Add([]byte(""))
	f.Add(valid("k1", `{"v":1}`))
	f.Add(append(valid("k1", `1`), valid("k1", `2`)...))                      // duplicate keys
	f.Add(append(valid("ok", `"row"`), []byte(`{"key":"torn","va`)...))       // torn tail
	f.Add([]byte(`{"key":"k","val":1,"crc":999}` + "\n"))                     // checksum mismatch
	f.Add([]byte(`{"key":"","val":1,"crc":0}` + "\n"))                        // empty key
	f.Add([]byte(`{"key":"k","val":{broken,"crc":0}` + "\n"))                 // invalid JSON value
	f.Add([]byte(`not json at all` + "\n\n\n"))                               // garbage and blanks
	f.Add([]byte(`{"key":"k","val":1,"crc":0,"extra":true}` + "\n"))          // unknown field
	f.Add(append(bytes.Repeat([]byte("x"), 1<<10), valid("tail", `true`)...)) // long garbage prefix

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, JournalFileName)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(path)
		if err != nil {
			// Only environmental I/O failures may surface; corrupt
			// content must be skipped, not fatal.
			t.Fatalf("replay failed on corrupt content: %v", err)
		}
		defer j.Close()
		j.mu.Lock()
		for _, key := range j.entries.Keys() {
			val, _ := j.entries.Lookup(key)
			if key == "" {
				t.Error("replay resurrected a record with an empty key")
			}
			if !json.Valid(val) {
				t.Errorf("replay resurrected non-JSON value %q", val)
			}
		}
		j.mu.Unlock()
		// The replayed journal must accept appends and survive a second
		// replay (the torn-tail terminator guarantees line integrity).
		if err := j.Record("fuzz-probe", []byte(`true`)); err != nil {
			t.Fatalf("record after replay: %v", err)
		}
		j.Close()
		j2, err := OpenJournal(path)
		if err != nil {
			t.Fatalf("second replay: %v", err)
		}
		defer j2.Close()
		if _, ok := j2.Lookup("fuzz-probe"); !ok {
			t.Error("appended record lost after corrupt-content replay")
		}
	})
}

// FuzzDecodeRecord fuzzes the single-line decoder directly: it must
// reject corruption with an error, never panic, and agree with the
// checksum on acceptance.
func FuzzDecodeRecord(f *testing.F) {
	f.Add([]byte(`{"key":"k","val":1,"crc":0}`))
	f.Add([]byte(`{"key":"k","val":[1,2,3],"crc":123456}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`"key"`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, line []byte) {
		rec, err := decodeRecord(line)
		if err != nil {
			return
		}
		if rec.Key == "" || !json.Valid(rec.Val) || rec.CRC != recordCRC(rec.Key, rec.Val) {
			t.Errorf("decodeRecord accepted inconsistent record %+v from %q", rec, line)
		}
	})
}

// FuzzAppendRecord holds the journal's line writer to encoding/json: a
// record is accepted exactly when its key is non-empty valid UTF-8 and
// its value is valid JSON, and then the line is json.Marshal of the record whose
// value is the HTML-escaped compact form and whose checksum covers it,
// and the line decodes back to that key and value.
func FuzzAppendRecord(f *testing.F) {
	f.Add("k", []byte(`{"v":1}`))
	f.Add("k", []byte(`{"a": 1}`))
	f.Add("k", []byte(`{"a":"<b>"}`))
	f.Add("k<&> ", []byte(`"x&y "`))
	f.Add("bad\xff", []byte("\"\xe2\x80\xa8\""))
	f.Add("k", []byte(` 1 `))
	f.Add("k", []byte(`1 2`))
	f.Add("k", []byte(``))
	f.Add("", []byte(`1`))
	f.Fuzz(func(t *testing.T, key string, val []byte) {
		line, canon, err := appendRecord([]byte("prefix"), key, val)
		if want := key != "" && utf8.ValidString(key) && json.Valid(val); (err == nil) != want {
			t.Fatalf("appendRecord(%q, %q) err = %v, want accepted=%v", key, val, err, want)
		}
		if err != nil {
			if string(line) != "prefix" {
				t.Fatalf("rejected record appended %q", line)
			}
			return
		}
		wantCanon, err := json.Marshal(json.RawMessage(val))
		if err != nil || !bytes.Equal(canon, wantCanon) {
			t.Fatalf("value %q stored as %q, want %q (%v)", val, canon, wantCanon, err)
		}
		want, err := json.Marshal(record{Key: key, Val: canon, CRC: recordCRC(key, canon)})
		if err != nil {
			t.Fatal(err)
		}
		if got := string(line); got != "prefix"+string(want)+"\n" {
			t.Fatalf("line %q, want %q", got, "prefix"+string(want)+"\n")
		}
		rec, err := decodeRecord(want)
		if err != nil || rec.Key != key || !bytes.Equal(rec.Val, canon) {
			t.Fatalf("line %q decodes to %+v, %v; want value %q", want, rec, err, canon)
		}
	})
}
