package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one recorded call across a layer boundary. Times are
// nanoseconds since the tracer's epoch; Op ties together the spans of
// one closed-loop operation (a grid, a job, a sweep, a simulation pair).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Key is the journal or cache key a runstate span touched, and the
	// job key a serve handler span answered; it joins spans that cannot
	// carry the operation ID themselves.
	Key string `json:"key,omitempty"`
	// Bytes is the response size a dispatch span read.
	Bytes int64 `json:"bytes,omitempty"`
	// Points is the number of grid points an evaluation span covered.
	Points int64 `json:"points,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op, so the wrappers stay in place
// and the traced and untraced runs execute the same program.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	// op is the current operation of a one-client workload; wrappers
	// that see no request header read it.
	op atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// open is a started span; end records it.
type open struct {
	t *tracer
	s span
}

func (t *tracer) begin(name string, op, parent int64) open {
	if t == nil {
		return open{}
	}
	return open{t: t, s: span{ID: t.ids.Add(1), Parent: parent, Op: op, Name: name, Start: int64(time.Since(t.epoch))}}
}

// id is the span's ID, for children to name as parent (0 when untraced).
func (o *open) id() int64 { return o.s.ID }

func (o *open) end() {
	if o.t == nil {
		return
	}
	o.s.End = int64(time.Since(o.t.epoch))
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

func (t *tracer) currentOp() int64 {
	if t == nil {
		return 0
	}
	return t.op.Load()
}

func (t *tracer) setOp(op int) {
	if t != nil {
		t.op.Store(int64(op))
	}
}

// named returns the recorded spans called name, in start order, leaving
// out those of set-up (negative operation IDs).
func (t *tracer) named(name string) []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name && s.Op >= 0 {
			out = append(out, s)
		}
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// adopt makes each root span (named root) the parent of every other
// parentless span of its operation, so the written trace is one tree per
// operation.
func (t *tracer) adopt(root string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	roots := make(map[int64]int64)
	for _, s := range t.spans {
		if s.Name == root {
			roots[s.Op] = s.ID
		}
	}
	for k := range t.spans {
		s := &t.spans[k]
		if s.Parent == 0 && s.Name != root {
			s.Parent = roots[s.Op]
		}
	}
}

// joinByKey assigns spans called name the operation and parent of the
// span called by with the same key whose interval contains their start.
// It links journal calls to the request that made them when several
// clients run at once and the journal cannot see the request.
func (t *tracer) joinByKey(name, by string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	owners := make(map[string][]span)
	for _, s := range t.spans {
		if s.Name == by {
			owners[s.Key] = append(owners[s.Key], s)
		}
	}
	for k := range t.spans {
		s := &t.spans[k]
		if s.Name != name {
			continue
		}
		for _, o := range owners[s.Key] {
			if o.Start <= s.Start && s.Start <= o.End {
				s.Op, s.Parent = o.Op, o.ID
				break
			}
		}
	}
}

// write stores every span as one JSON line at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTime is a span's duration minus the part of it that children
// cover (overlapping children count once).
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered, curLo, curHi int64
	for k, v := range ivs {
		if k == 0 || v.lo > curHi {
			covered += curHi - curLo
			curLo, curHi = v.lo, v.hi
			continue
		}
		curHi = max(curHi, v.hi)
	}
	covered += curHi - curLo
	return parent.dur() - time.Duration(covered)
}

// within returns the spans of all that start inside parent.
func within(parent span, all []span) []span {
	lo := sort.Search(len(all), func(i int) bool { return all[i].Start >= parent.Start })
	hi := sort.Search(len(all), func(i int) bool { return all[i].Start > parent.End })
	return all[lo:hi]
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
var allocMu sync.Mutex

// heapAllocs is the process's cumulative heap allocation count. It
// reads runtime/metrics, which does not stop the world.
func heapAllocs() uint64 {
	allocMu.Lock()
	defer allocMu.Unlock()
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// quantile is the q-quantile of sorted by linear interpolation between
// order statistics (0 for an empty slice).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	if frac == 0 {
		return sorted[lo]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// spanQuantile is the q-quantile of the spans' durations in unit.
func spanQuantile(spans []span, q float64, unit time.Duration) float64 {
	v := make([]float64, len(spans))
	for i, s := range spans {
		v[i] = float64(s.dur()) / float64(unit)
	}
	return quantile(sortedCopy(v), q)
}

func spanTotal(spans []span) time.Duration {
	var d time.Duration
	for _, s := range spans {
		d += s.dur()
	}
	return d
}

// ratio is num/den, or 0 when den is 0 (a layer the workload never
// reaches reads 0).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
