package runstate

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"unicode/utf8"

	"bcnphase/internal/canonjson"
)

// ErrStorageDegraded marks a journal whose backing file failed a write
// or fsync (ENOSPC, EIO, a yanked volume). The condition is terminal
// for the journal: once an append cannot be made durable, later appends
// cannot be trusted either — a later fsync succeeding says nothing
// about the earlier lost line — so every subsequent Record fails fast
// wrapping this sentinel. Lookup keeps serving the replayed and
// successfully-recorded state. Callers (the serving tier's brownout
// ladder) detect it with errors.Is and fall back to volatile caching.
var ErrStorageDegraded = errors.New("runstate: journal storage degraded")

// JournalFileName is the journal's file name inside a run directory.
const JournalFileName = "journal.jsonl"

// compactSuffix names the temporary file a compaction writes before
// atomically renaming it over the journal. A crash mid-compaction
// leaves the suffixed file behind; OpenJournal removes it, so a torn
// compaction costs nothing but the rewrite — the original journal was
// never touched.
const compactSuffix = ".compact"

// record is one journal line. Val must be valid JSON; CRC is the IEEE
// CRC-32 of key||val so a torn or bit-rotted line is detected on replay
// instead of being resurrected as a (corrupt) cached result.
type record struct {
	Key string          `json:"key"`
	Val json.RawMessage `json:"val"`
	CRC uint32          `json:"crc"`
}

func recordCRC(key string, val []byte) uint32 {
	h := crc32.NewIEEE()
	h.Write([]byte(key))
	h.Write(val)
	return h.Sum32()
}

// decodeRecord parses one journal line, rejecting anything that is not a
// structurally valid, checksum-consistent record. It never panics on
// arbitrary input (fuzzed in fuzz_test.go).
func decodeRecord(line []byte) (record, error) {
	var rec record
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rec); err != nil {
		return record{}, fmt.Errorf("runstate: bad journal record: %w", err)
	}
	if dec.More() {
		return record{}, fmt.Errorf("runstate: trailing data after journal record")
	}
	if rec.Key == "" {
		return record{}, fmt.Errorf("runstate: journal record without key")
	}
	if !json.Valid(rec.Val) {
		return record{}, fmt.Errorf("runstate: journal record value is not valid JSON")
	}
	if rec.CRC != recordCRC(rec.Key, rec.Val) {
		return record{}, fmt.Errorf("runstate: journal record checksum mismatch")
	}
	return rec, nil
}

// Journal is an append-only JSONL write-ahead log of completed sweep
// points: one record per completed point, keyed by a content hash of the
// point's identity (experiment id, params, seed, config fingerprint).
// Opening an existing journal replays it; a torn tail — the partial last
// line a crash mid-append leaves behind — is tolerated and dropped, as
// is any line whose checksum does not match. Later records for the same
// key supersede earlier ones.
type Journal struct {
	mu       sync.Mutex
	f        *os.File
	entries  Table
	dropped  int
	path     string
	degraded error // first write/sync failure; sticky (see ErrStorageDegraded)
}

// OpenJournal opens (creating if absent) the journal at path and replays
// its records. Replay never fails on corrupt content — invalid lines are
// counted in Dropped() and skipped — only on I/O errors.
func OpenJournal(path string) (*Journal, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("runstate: %w", err)
	}
	// A crash between writing a compaction file and renaming it leaves
	// the temporary behind. The journal proper is intact (compaction
	// never modifies it in place), so the right recovery is to discard
	// the torn rewrite and replay the original.
	_ = os.Remove(path + compactSuffix)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("runstate: open journal: %w", err)
	}
	j := &Journal{f: f, path: path}
	err = scanRecords(f, func(rec record, err error) error {
		if err != nil {
			j.dropped++
		} else {
			j.entries.Put(rec.Key, rec.Val)
		}
		return nil
	})
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("runstate: replay journal: %w", err)
	}
	// A crash mid-append can leave the file without a trailing newline;
	// terminate the torn line now so the next Record starts fresh instead
	// of concatenating onto (and losing itself to) the corrupt tail.
	if info, err := f.Stat(); err == nil && info.Size() > 0 {
		var last [1]byte
		if _, err := f.ReadAt(last[:], info.Size()-1); err == nil && last[0] != '\n' {
			if _, err := f.Write([]byte("\n")); err != nil {
				f.Close()
				return nil, fmt.Errorf("runstate: terminate torn journal tail: %w", err)
			}
		}
	}
	return j, nil
}

// OpenDir opens the journal of run directory dir: it preflights dir
// with EnsureWritableDir, failing with a "preflight: " error there, then
// opens (creating if absent) and replays dir/JournalFileName.
func OpenDir(dir string) (*Journal, error) {
	if err := EnsureWritableDir(dir); err != nil {
		return nil, fmt.Errorf("preflight: %w", err)
	}
	return OpenJournal(filepath.Join(dir, JournalFileName))
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Lookup returns the journaled value for key, if any, as a read-only
// slice (see Table.Lookup).
func (j *Journal) Lookup(key string) ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.entries.Lookup(key)
}

// Record appends one completed-point record and fsyncs it, so a point's
// work is durable the moment Record returns: RecordBatch of one.
func (j *Journal) Record(key string, val []byte) error {
	return j.RecordBatch([]string{key}, [][]byte{val})
}

// RecordBatch appends the records (keys[i], vals[i]) with one write and
// one fsync. Keys must be non-empty UTF-8 and values valid JSON; one bad
// record rejects the batch before any byte is written. Entries change
// only after the sync succeeds, and a key repeated in the batch resolves
// as across Records: the last one wins. Values are stored in the
// compact, HTML-escaped form the line holds (the form every value the
// program writes already has), so Lookup serves the same bytes before
// and after a reopen.
func (j *Journal) RecordBatch(keys []string, vals [][]byte) error {
	if len(keys) != len(vals) {
		return fmt.Errorf("runstate: journal batch of %d keys and %d values", len(keys), len(vals))
	}
	n := 0
	for i := range keys {
		n += len(keys[i]) + len(vals[i]) + len(`{"key":"","val":,"crc":4294967295}`+"\n")
	}
	lines := make([]byte, 0, n) // regrows only for escaped keys or values
	canon := make([]json.RawMessage, len(vals))
	for i, key := range keys {
		var err error
		if lines, canon[i], err = appendRecord(lines, key, vals[i]); err != nil {
			return err
		}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("runstate: journal %s is closed", j.path)
	}
	if j.degraded != nil {
		return fmt.Errorf("%w: %s", ErrStorageDegraded, j.degraded)
	}
	if _, err := j.f.Write(lines); err != nil {
		j.degraded = err
		return fmt.Errorf("%w: append: %s", ErrStorageDegraded, err)
	}
	if err := j.f.Sync(); err != nil {
		// The lines may or may not have reached the platter; either way
		// durability can no longer be promised for them or anything after.
		j.degraded = err
		return fmt.Errorf("%w: sync: %s", ErrStorageDegraded, err)
	}
	for i, key := range keys {
		j.entries.Put(key, canon[i])
	}
	return nil
}

// appendRecord validates one record and appends its line to b: the
// bytes json.Marshal writes for it, with the checksum over the value as
// the line holds it (FuzzAppendRecord pins both). It returns that value.
func appendRecord(b []byte, key string, val []byte) ([]byte, json.RawMessage, error) {
	if key == "" {
		return b, nil, fmt.Errorf("runstate: empty journal key")
	}
	if !utf8.ValidString(key) { // the line would hold U+FFFD instead
		return b, nil, fmt.Errorf("runstate: journal key %q is not valid UTF-8", key)
	}
	// Marshal validates as it compacts; nil would marshal as null.
	canon, err := json.Marshal(json.RawMessage(val))
	if len(val) == 0 || err != nil {
		return b, nil, fmt.Errorf("runstate: journal value for %s is not valid JSON", key)
	}
	b = canonjson.AppendString(append(b, `{"key":`...), key)
	b = append(append(b, `,"val":`...), canon...)
	b = strconv.AppendUint(append(b, `,"crc":`...), uint64(recordCRC(key, canon)), 10)
	return append(b, '}', '\n'), canon, nil
}

// Compact rewrites the journal to exactly one line per live key,
// dropping superseded and corrupt lines, and rebuilds the in-memory
// table from the live keys, reclaiming superseded values there too.
// The rewrite goes to a temporary file in the same directory, is
// fsynced, re-read and CRC-verified line by line, and only then
// atomically renamed over the journal — a crash at any point leaves
// either the old file or the new one, never a mix. Appends block for
// the duration and resume against the compacted file. Call it at
// natural quiesce points (a sweep just completed) to keep replay time
// and snapshot transfers bounded by the live state rather than by
// append history.
func (j *Journal) Compact() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("runstate: journal %s is closed", j.path)
	}
	if j.degraded != nil {
		return fmt.Errorf("%w: %s", ErrStorageDegraded, j.degraded)
	}
	keys := j.entries.Keys()
	sort.Strings(keys)
	tmp := j.path + compactSuffix
	fail := func(f *os.File, err error) error {
		if f != nil {
			f.Close()
		}
		os.Remove(tmp)
		return fmt.Errorf("runstate: compact journal: %w", err)
	}
	var (
		lines []byte
		live  Table
	)
	for _, k := range keys {
		v, _ := j.entries.Lookup(k)
		var err error
		if lines, _, err = appendRecord(lines, k, v); err != nil {
			return fail(nil, err)
		}
		live.Put(k, v)
	}
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fail(nil, err)
	}
	if _, err := f.Write(lines); err != nil {
		return fail(f, err)
	}
	if err := f.Sync(); err != nil {
		return fail(f, err)
	}
	if err := f.Close(); err != nil {
		return fail(nil, err)
	}
	// Verify the bytes the filesystem will actually serve before they
	// replace a journal known to be good: every line must decode with a
	// matching checksum and the live-key count must balance.
	if err := verifyCompacted(tmp, &live); err != nil {
		return fail(nil, err)
	}
	if err := os.Rename(tmp, j.path); err != nil {
		return fail(nil, err)
	}
	j.entries = live
	nf, err := os.OpenFile(j.path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		// The compacted file is in place but no append handle reaches it;
		// durability for future records cannot be promised.
		j.degraded = err
		return fmt.Errorf("%w: reopen after compact: %s", ErrStorageDegraded, err)
	}
	j.f.Close()
	j.f = nf
	j.dropped = 0
	syncDir(filepath.Dir(j.path))
	return nil
}

// verifyCompacted replays a freshly written compaction file and
// requires it to reproduce exactly the live entries it was built from.
func verifyCompacted(path string, want *Table) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	n := 0
	err = scanRecords(f, func(rec record, err error) error {
		if err != nil {
			return err
		}
		if have, ok := want.Lookup(rec.Key); !ok || !bytes.Equal(have, rec.Val) {
			return fmt.Errorf("key %s does not match live state", rec.Key)
		}
		n++
		return nil
	})
	if err != nil {
		return fmt.Errorf("verification: %w", err)
	}
	if n != want.Len() {
		return fmt.Errorf("verification: %d lines for %d live keys", n, want.Len())
	}
	return nil
}

// scanRecords decodes r line by line, skipping blank lines, and hands
// each line's record or decode error to each, stopping at the first
// error each returns.
func scanRecords(r io.Reader, each func(record, error) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			if err := each(decodeRecord(line)); err != nil {
				return err
			}
		}
	}
	return sc.Err()
}

// Keys lists the distinct journaled keys in unspecified order, as
// slices of one string (see Table.Keys). Replay tooling (the cluster
// coordinator's orphan-shard and stale-fingerprint scans) uses it to
// audit what a journal holds beyond the keys it was about to ask for.
func (j *Journal) Keys() []string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.entries.Keys()
}

// Len is the number of distinct journaled keys.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.entries.Len()
}

// Dropped is the number of corrupt or torn lines skipped during replay.
func (j *Journal) Dropped() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.dropped
}

// Close flushes and closes the journal file. Lookup keeps working on the
// replayed state; Record fails after Close.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	if err != nil {
		return fmt.Errorf("runstate: close journal: %w", err)
	}
	return nil
}

// HashJSON is the journal's content-hash key function: the hex SHA-256
// of the canonical JSON encoding of v (struct field order and sorted map
// keys make encoding/json canonical enough for identical inputs). Use it
// to key sweep points by (experiment id, point params, seed, config
// fingerprint) so any change to the run's identity invalidates the
// cached results.
func HashJSON(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("runstate: hash: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}
