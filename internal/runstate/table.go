package runstate

import (
	"bytes"
	"encoding/binary"
	"hash/maphash"
	"strings"
)

// Chunk sizes of a Table's arena: the first chunk is small so an empty
// or small store costs little, each next one doubles up to the cap, and
// a record larger than the cap gets a chunk of its own.
const (
	firstChunk = 4 << 10
	maxChunk   = 1 << 20
)

// Table is the in-memory artifact index under both stores (Journal and
// serve.MemCache): a map from string keys to byte values whose bulk
// holds no pointers, so the garbage collector never scans its rows
// however large it grows.
//
// Records are appended as uvarint len | key | uvarint len | val to byte
// chunks. The index maps a maphash of the key to the record's (chunk,
// offset) ref, and every hit compares the stored key with the key asked
// for. A key whose hash is already taken by another key goes to a small
// string-keyed fallback map. Recording the bytes already stored appends
// nothing; recording different bytes appends a new record and repoints
// the key, leaving the superseded bytes in the arena (Journal.Compact
// rebuilds its table from the live keys to reclaim them).
//
// Lookup, Len and Keys may run concurrently with each other, Put needs
// the table to itself; each store guards its own with a lock. The zero
// value is an empty table ready to use.
type Table struct {
	chunks   [][]byte
	cur      int // chunk records are appended to; larger records get their own
	index    map[uint64]uint64
	spill    map[string]uint64 // keys whose hash another key holds in index
	seed     maphash.Seed
	hash     func(maphash.Seed, string) uint64 // maphash.String; tests force collisions
	keyBytes int                               // total length of the live keys
}

// ref packs a record's chunk index and offset into one index value.
func ref(chunk, off int) uint64 { return uint64(chunk)<<32 | uint64(off) }

// record decodes the record at r into its key and value, both read-only
// views of the arena with capacity clipped to length.
func (t *Table) record(r uint64) (key, val []byte) {
	b := t.chunks[r>>32][uint32(r):]
	n, w := binary.Uvarint(b)
	b = b[w:]
	key, b = b[:n:n], b[n:]
	n, w = binary.Uvarint(b)
	b = b[w:]
	return key, b[:n:n]
}

// Lookup returns the value stored under key. The slice is a read-only
// view of the table's memory: its capacity is clipped to its length, so
// appending to it copies, but writing through it would corrupt the
// store. It stays valid after later Puts.
func (t *Table) Lookup(key string) ([]byte, bool) {
	if t.index == nil {
		return nil, false
	}
	if r, ok := t.index[t.hash(t.seed, key)]; ok {
		if k, v := t.record(r); string(k) == key {
			return v, true
		}
	}
	if r, ok := t.spill[key]; ok {
		_, v := t.record(r)
		return v, true
	}
	return nil, false
}

// Put stores a copy of val under key, superseding any earlier value. A
// val equal to the stored one appends nothing.
func (t *Table) Put(key string, val []byte) {
	if t.index == nil {
		t.index = make(map[uint64]uint64)
		t.seed = maphash.MakeSeed()
		if t.hash == nil {
			t.hash = maphash.String
		}
	}
	h := t.hash(t.seed, key)
	r, taken := t.index[h]
	if taken {
		if k, v := t.record(r); string(k) == key {
			if !bytes.Equal(v, val) {
				t.index[h] = t.append(key, val)
			}
			return
		}
	}
	if r, ok := t.spill[key]; ok {
		if _, v := t.record(r); !bytes.Equal(v, val) {
			t.spill[key] = t.append(key, val)
		}
		return
	}
	t.keyBytes += len(key)
	if !taken {
		t.index[h] = t.append(key, val)
		return
	}
	if t.spill == nil {
		t.spill = make(map[string]uint64)
	}
	t.spill[key] = t.append(key, val)
}

// append writes one record to the arena and returns its ref.
func (t *Table) append(key string, val []byte) uint64 {
	n := 2*binary.MaxVarintLen64 + len(key) + len(val) // bound on the record's size
	c := t.cur
	if len(t.chunks) == 0 || cap(t.chunks[c])-len(t.chunks[c]) < n {
		size := firstChunk
		if len(t.chunks) > 0 {
			size = min(2*cap(t.chunks[c]), maxChunk)
		}
		for size < n && size < maxChunk {
			size *= 2
		}
		c = len(t.chunks)
		if n > size {
			// Larger than the cap: a chunk of its own, and the current
			// chunk keeps taking the records that fit in it.
			t.chunks = append(t.chunks, make([]byte, 0, n))
		} else {
			t.chunks = append(t.chunks, make([]byte, 0, size))
			t.cur = c
		}
	}
	b := t.chunks[c]
	off := len(b)
	b = binary.AppendUvarint(b, uint64(len(key)))
	b = append(b, key...)
	b = binary.AppendUvarint(b, uint64(len(val)))
	t.chunks[c] = append(b, val...)
	return ref(c, off)
}

// Len is the number of distinct keys.
func (t *Table) Len() int { return len(t.index) + len(t.spill) }

// Keys lists the keys in unspecified order with O(1) allocations: the
// keys are slices of one string holding them all, so keeping any one of
// them keeps that string alive (strings.Clone a key to keep it alone).
func (t *Table) Keys() []string {
	out := make([]string, 0, t.Len())
	var sb strings.Builder
	sb.Grow(t.keyBytes)
	add := func(r uint64) {
		k, _ := t.record(r)
		start := sb.Len()
		sb.Write(k)
		// The builder never reallocates (it was grown to keyBytes) and
		// only appends, so earlier slices of String() stay intact.
		out = append(out, sb.String()[start:])
	}
	for _, r := range t.index {
		add(r)
	}
	for _, r := range t.spill {
		add(r)
	}
	return out
}
