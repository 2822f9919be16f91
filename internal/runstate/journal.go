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
	"strings"
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
	// gen numbers the file's generations: Compact starts a new one. synced
	// is the file's length up to its last line that was replayed or
	// fsynced, the lines entries reflect; Tail serves no byte past it.
	gen    uint64
	synced int64
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
	j := &Journal{f: f, path: path, gen: 1}
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
		j.synced = info.Size()
		var last [1]byte
		if _, err := f.ReadAt(last[:], info.Size()-1); err == nil && last[0] != '\n' {
			if _, err := f.Write([]byte("\n")); err != nil {
				f.Close()
				return nil, fmt.Errorf("runstate: terminate torn journal tail: %w", err)
			}
			j.synced++
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
// record rejects the batch before any byte is written. A record whose
// value the journal already holds for its key writes no line, so
// concurrent writers of the same bytes append once and a different value
// supersedes. Entries change only after the sync succeeds, and a key
// repeated in the batch resolves as across Records: the last one wins.
// Values are stored in the compact, HTML-escaped form the line holds
// (the form every value the program writes already has), so Lookup
// serves the same bytes before and after a reopen.
func (j *Journal) RecordBatch(keys []string, vals [][]byte) error {
	_, err := j.recordBatch(keys, vals)
	return err
}

// recordBatch is RecordBatch, returning the number of lines written.
func (j *Journal) recordBatch(keys []string, vals [][]byte) (int, error) {
	if len(keys) != len(vals) {
		return 0, fmt.Errorf("runstate: journal batch of %d keys and %d values", len(keys), len(vals))
	}
	n := 0
	for i := range keys {
		n += len(keys[i]) + len(vals[i]) + len(`{"key":"","val":,"crc":4294967295}`+"\n")
	}
	lines := make([]byte, 0, n) // regrows only for escaped keys or values
	canon := make([]json.RawMessage, len(vals))
	ends := make([]int, len(keys))
	for i, key := range keys {
		var err error
		if lines, canon[i], err = appendRecord(lines, key, vals[i]); err != nil {
			return 0, err
		}
		ends[i] = len(lines)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return 0, fmt.Errorf("runstate: journal %s is closed", j.path)
	}
	if j.degraded != nil {
		return 0, fmt.Errorf("%w: %s", ErrStorageDegraded, j.degraded)
	}
	lines = j.dropUnchanged(keys, canon, lines, ends)
	if len(lines) == 0 {
		return 0, nil
	}
	if _, err := j.f.Write(lines); err != nil {
		j.degraded = err
		return 0, fmt.Errorf("%w: append: %s", ErrStorageDegraded, err)
	}
	if err := j.f.Sync(); err != nil {
		// The lines may or may not have reached the platter; either way
		// durability can no longer be promised for them or anything after.
		j.degraded = err
		return 0, fmt.Errorf("%w: sync: %s", ErrStorageDegraded, err)
	}
	j.synced += int64(len(lines))
	written := 0
	for i, key := range keys {
		if canon[i] != nil {
			j.entries.Put(key, canon[i])
			written++
		}
	}
	return written, nil
}

// dropUnchanged removes from lines, in place, each record whose value
// equals the one its key holds when it lands (the table's, or an earlier
// record's in the batch), and nils its canon entry. ends[i] is the end
// of record i's line. It runs under j.mu.
func (j *Journal) dropUnchanged(keys []string, canon []json.RawMessage, lines []byte, ends []int) []byte {
	var pending map[string][]byte // key → the value earlier records leave it
	if len(keys) > 1 {
		pending = make(map[string][]byte, len(keys))
	}
	w, start := 0, 0
	for i, key := range keys {
		line := lines[start:ends[i]]
		start = ends[i]
		cur, ok := pending[key]
		if !ok {
			cur, ok = j.entries.Lookup(key)
		}
		if pending != nil {
			pending[key] = canon[i]
		}
		if ok && bytes.Equal(cur, canon[i]) {
			canon[i] = nil
			continue
		}
		if w != start-len(line) {
			copy(lines[w:], line)
		}
		w += len(line)
	}
	return lines[:w]
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
// and a tail from zero bounded by the live state rather than by append
// history. A compaction starts a new generation of the file, so a Tail
// cursor taken before it restarts from zero.
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
	j.gen++
	j.synced = 0 // until a handle reaches the new file
	nf, err := os.OpenFile(j.path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		// The compacted file is in place but no append handle reaches it;
		// durability for future records cannot be promised.
		j.degraded = err
		return fmt.Errorf("%w: reopen after compact: %s", ErrStorageDegraded, err)
	}
	j.f.Close()
	j.f = nf
	j.synced = int64(len(lines))
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

// ErrCursorRange marks a Tail cursor that points past the synced end of
// its generation or into the middle of a line.
var ErrCursorRange = errors.New("runstate: journal cursor out of range")

// Cursor is a position in a journal file: a generation (Compact starts a
// new one) and a byte offset into it at a line boundary. The zero Cursor
// is the start of whatever generation is current.
type Cursor struct {
	Gen uint64
	Off int64
}

// String is the cursor's wire form, "gen:off"; ParseCursor reads it back.
func (c Cursor) String() string {
	return strconv.FormatUint(c.Gen, 10) + ":" + strconv.FormatInt(c.Off, 10)
}

// ParseCursor parses a cursor's wire form; the empty string is the zero
// Cursor.
func ParseCursor(s string) (Cursor, error) {
	if s == "" {
		return Cursor{}, nil
	}
	g, o, ok := strings.Cut(s, ":")
	gen, gerr := strconv.ParseUint(g, 10, 64)
	off, oerr := strconv.ParseInt(o, 10, 64)
	if !ok || gerr != nil || oerr != nil || off < 0 {
		return Cursor{}, fmt.Errorf("runstate: malformed journal cursor %q", s)
	}
	return Cursor{Gen: gen, Off: off}, nil
}

// Tail returns the journal's synced lines from cursor from on, whole
// lines only and at most limit bytes of them unless the first line alone
// is longer, the cursor past them, and whether synced lines remain past
// that cursor. A cursor of another generation, the zero Cursor among
// them, reads from the start of the current one; an offset past the
// synced end or inside a line fails with ErrCursorRange. The lines are
// byte-identical to the file's, so ApplyLines on a second journal
// reproduces them. Tail does not block appends while it reads.
func (j *Journal) Tail(from Cursor, limit int) (lines []byte, next Cursor, more bool, err error) {
	j.mu.Lock()
	f, gen, end := j.f, j.gen, j.synced
	j.mu.Unlock()
	if f == nil {
		return nil, from, false, fmt.Errorf("runstate: journal %s is closed", j.path)
	}
	if from.Gen != gen {
		from = Cursor{Gen: gen}
	}
	if from.Off < 0 || from.Off > end {
		return nil, from, false, fmt.Errorf("%w: offset %d outside [0, %d]", ErrCursorRange, from.Off, end)
	}
	// The bytes below end never change within a generation, and a
	// concurrent Compact closing f fails the read rather than tearing it.
	// Reading from the byte before the cursor checks it ends a line.
	start := max(from.Off-1, 0)
	size := min(end-start, int64(limit)+1)
	for {
		buf := make([]byte, size)
		if _, err := f.ReadAt(buf, start); err != nil {
			return nil, from, false, fmt.Errorf("runstate: tail journal: %w", err)
		}
		if from.Off > 0 && buf[0] != '\n' {
			return nil, from, false, fmt.Errorf("%w: offset %d is inside a line", ErrCursorRange, from.Off)
		}
		lines = buf[from.Off-start:]
		if i := bytes.LastIndexByte(lines, '\n'); i >= 0 || start+size == end {
			lines = lines[:i+1]
			next = Cursor{Gen: gen, Off: from.Off + int64(len(lines))}
			return lines, next, next.Off < end, nil
		}
		size = min(end-start, 2*size) // one line longer than limit
	}
}

// ApplyLines decodes journal lines another journal's Tail served and
// records them with one RecordBatch, so this journal's lines are
// byte-identical to the source's for every record it writes. Of several
// lines for one key only the last is recorded: the batch would
// supersede the others anyway. A line that fails to decode or its
// checksum is skipped and counted in bad; a record whose value this
// journal already holds writes nothing. applied counts the lines
// written.
func (j *Journal) ApplyLines(lines []byte) (applied, bad int, err error) {
	var recs []record
	last := map[string]int{} // key → index of its last record in recs
	for len(lines) > 0 {
		var line []byte
		line, lines, _ = bytes.Cut(lines, []byte("\n"))
		if line = bytes.TrimSpace(line); len(line) == 0 {
			continue
		}
		rec, err := decodeRecord(line)
		if err != nil {
			bad++
			continue
		}
		last[rec.Key] = len(recs)
		recs = append(recs, rec)
	}
	keys := make([]string, 0, len(last))
	vals := make([][]byte, 0, len(last))
	for i, rec := range recs {
		if last[rec.Key] == i {
			keys, vals = append(keys, rec.Key), append(vals, rec.Val)
		}
	}
	applied, err = j.recordBatch(keys, vals)
	return applied, bad, err
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
