package runstate

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
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

// FuzzJournalTail holds a follower that tails a leader's journal to the
// leader. The ops mix new records, supersedes, equal re-records,
// compactions, tails under a tiny byte cap, cursor resets and a garbled
// served byte. After every complete tail round (tails until one reaches
// the leader's end) the follower's keys and values equal the leader's. A tail
// that continues the follower's cursor never moves a key to an older
// value, a garbled line is dropped rather than applied, and every line
// the follower writes is one the leader served.
func FuzzJournalTail(f *testing.F) {
	f.Add([]byte{0, 3})
	f.Add([]byte{0, 7, 14, 3, 0, 1, 3, 2, 3})        // records, supersede, equal re-record, compact
	f.Add([]byte{0, 7, 14, 21, 4, 0, 4, 2, 4, 5, 3}) // partial tails across a compaction, reset
	f.Add([]byte{0, 7, 14, 6, 3, 13, 3, 27, 6, 5, 3})
	f.Add([]byte{0, 0, 0, 10, 17, 24, 4, 11, 2, 18, 25, 3})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 64 { // every Record fsyncs
			ops = ops[:64]
		}
		open := func(name string) *Journal {
			j, err := OpenJournal(filepath.Join(t.TempDir(), name, JournalFileName))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { j.Close() })
			return j
		}
		leader, follower := open("leader"), open("follower")
		var (
			at      Cursor
			written int
			version = map[string]int{}  // value → the order it was written in
			served  = map[string]bool{} // every line the leader served
			held    = map[string]int{}  // key → version the follower held last
			reset   bool                // the cursor restarted since the last complete round
		)
		size := func() int64 {
			info, err := os.Stat(leader.Path())
			if err != nil {
				t.Fatal(err)
			}
			return info.Size()
		}
		// tail runs one Tail and applies its lines, garbling the byte at
		// garble first when garble >= 0. It reports whether synced lines
		// remain past the new cursor.
		tail := func(limit, garble int) bool {
			lines, next, more, err := leader.Tail(at, limit)
			if err != nil {
				t.Fatalf("tail from %v: %v", at, err)
			}
			if len(lines) > 0 && lines[len(lines)-1] != '\n' {
				t.Fatalf("tail served a partial line: %q", lines)
			}
			if len(lines) > limit && bytes.Count(lines, []byte("\n")) > 1 {
				t.Fatalf("tail served %d bytes over a %d-byte cap in several lines", len(lines), limit)
			}
			for _, l := range bytes.SplitAfter(lines, []byte("\n")) {
				served[string(l)] = true
			}
			at = next
			if garble >= 0 && len(lines) > 0 {
				lines = bytes.Clone(lines)
				lines[garble%len(lines)] ^= byte(garble) | 1
			}
			if _, _, err := follower.ApplyLines(lines); err != nil {
				t.Fatal(err)
			}
			for _, k := range follower.Keys() {
				v, _ := follower.Lookup(k)
				ver, ok := version[string(v)]
				if !ok || !strings.HasPrefix(string(v), `{"`+k+`":`) {
					t.Fatalf("follower holds %s for %s, a value the leader never wrote for it", v, k)
				}
				if !reset && garble < 0 && ver < held[k] {
					t.Fatalf("a continuing tail moved %s back from version %d to %d", k, held[k], ver)
				}
				held[k] = ver
			}
			return more
		}
		for _, b := range ops {
			op, arg := b%7, int(b/7)
			key := fmt.Sprintf("k%d", arg%4)
			switch op {
			case 0: // a new key or a supersede
				written++
				val := fmt.Sprintf(`{%q:%d}`, key, written)
				version[val] = written
				if err := leader.Record(key, []byte(val)); err != nil {
					t.Fatal(err)
				}
			case 1: // an equal re-record writes nothing
				if v, ok := leader.Lookup(key); ok {
					before := size()
					if err := leader.Record(key, bytes.Clone(v)); err != nil {
						t.Fatal(err)
					}
					if after := size(); after != before {
						t.Fatalf("equal re-record of %s grew the journal from %d to %d bytes", key, before, after)
					}
				}
			case 2:
				if err := leader.Compact(); err != nil {
					t.Fatal(err)
				}
			case 3: // a complete round
				for tail(arg%48, -1) {
				}
				if lines, _, more, err := leader.Tail(at, 1<<20); len(lines) > 0 || more || err != nil {
					t.Fatalf("a tail past the end served %q, more=%v, err=%v", lines, more, err)
				}
				reset = false
				lk, fk := leader.Keys(), follower.Keys()
				sort.Strings(lk)
				sort.Strings(fk)
				if !slices.Equal(lk, fk) {
					t.Fatalf("after a complete round the follower holds keys %q, the leader %q", fk, lk)
				}
				for _, k := range lk {
					lv, _ := leader.Lookup(k)
					if fv, _ := follower.Lookup(k); !bytes.Equal(lv, fv) {
						t.Fatalf("after a complete round the follower holds %s for %s, the leader %s", fv, k, lv)
					}
				}
			case 4:
				tail(arg%48, -1)
			case 5:
				at, reset = Cursor{}, true
			case 6: // a garbled line is lost until the tail restarts from zero
				tail(arg%48, arg)
				at, reset = Cursor{}, true
			}
		}
		raw, err := os.ReadFile(follower.Path())
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range bytes.SplitAfter(raw, []byte("\n")) {
			if len(l) > 0 && !served[string(l)] {
				t.Fatalf("follower line %q is not one the leader served", l)
			}
		}
	})
}
