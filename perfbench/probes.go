package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"bcnphase/internal/analytic"
	"bcnphase/internal/core"
	"bcnphase/internal/invariant"
	"bcnphase/internal/runstate"
	"bcnphase/internal/serve"
)

// Ladder probes: warm, direct calls into one layer on the workload's own
// inputs, so the time a served job or a sweep spends above the solve can
// be charged to the layers in between. Each probe repeats its call set
// probeRounds times after one warm round and reports the median round.

const probeRounds = 5

// probe runs round probeRounds+1 times (the first warms) and returns the
// median round time and the heap allocations per round.
func probe(round func() error) (time.Duration, float64, error) {
	runtime.GC() // leave the timed phase's garbage out of the probe
	if err := round(); err != nil {
		return 0, 0, err
	}
	times := make([]float64, probeRounds)
	a0 := heapAllocs()
	for k := range times {
		began := time.Now()
		if err := round(); err != nil {
			return 0, 0, err
		}
		times[k] = float64(time.Since(began))
	}
	allocs := float64(heapAllocs()-a0) / probeRounds
	return time.Duration(median(times)), allocs, nil
}

// probeBatch times analytic.Batch.Solve over params.
func probeBatch(l *layerSet, params []core.Params) error {
	b := analytic.NewBatch(len(params))
	d, allocs, err := probe(func() error {
		b.Solve(params, analytic.Options{})
		for k, err := range b.Err {
			if err != nil {
				return fmt.Errorf("batch probe point %d: %w", k, err)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	n := float64(len(params))
	l.set("analytic.ns_per_point", float64(d)/n, len(params))
	l.set("analytic.allocs_per_point", allocs/n, len(params))
	return nil
}

// probeSolveOne times analytic.SolveOne per call over params.
func probeSolveOne(l *layerSet, params []core.Params) error {
	d, _, err := probe(func() error {
		for _, p := range params {
			if _, err := analytic.SolveOne(p, analytic.Options{}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.set("analytic.solve_us", float64(d)/1e3/float64(len(params)), len(params))
	return nil
}

// probeCoreSolve times core.Solve under the record policy per call.
func probeCoreSolve(l *layerSet, params []core.Params) error {
	d, _, err := probe(func() error {
		for _, p := range params {
			if _, err := core.Solve(p, core.SolveOptions{Invariants: invariant.NewPolicy(invariant.Record)}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.set("core.solve_us", float64(d)/1e3/float64(len(params)), len(params))
	return nil
}

// probeDecodeKey times serve.DecodeSpec plus Spec.Key per body.
func probeDecodeKey(l *layerSet, bodies [][]byte) error {
	d, _, err := probe(func() error {
		for _, b := range bodies {
			sp, err := serve.DecodeSpec(bytes.NewReader(b), serve.DefaultMaxBodyBytes)
			if err != nil {
				return err
			}
			if _, err := sp.Key(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.set("serve.decode_key_us", float64(d)/1e3/float64(len(bodies)), len(bodies))
	return nil
}

// probeJournal appends the records a workload's in-memory store took to
// a fresh on-disk runstate.Journal under dir, as the program does when
// run with a journal, then looks each key up. It returns each call's
// time in microseconds. The store's values are read back by key.
func probeJournal(dir string, keys []string, st store) (records, lookups []float64, err error) {
	jdir := filepath.Join(dir, "journal-probe")
	defer os.RemoveAll(jdir)
	j, err := runstate.OpenJournal(filepath.Join(jdir, runstate.JournalFileName))
	if err != nil {
		return nil, nil, err
	}
	defer j.Close()
	runtime.GC()
	for _, key := range keys {
		val, ok := st.Lookup(key)
		if !ok {
			return nil, nil, fmt.Errorf("journal probe: key %s missing from the store", key)
		}
		began := time.Now()
		if err := j.Record(key, val); err != nil {
			return nil, nil, err
		}
		records = append(records, float64(time.Since(began))/1e3)
	}
	for _, key := range keys {
		began := time.Now()
		if _, ok := j.Lookup(key); !ok {
			return nil, nil, fmt.Errorf("journal probe: key %s not journaled", key)
		}
		lookups = append(lookups, float64(time.Since(began))/1e3)
	}
	return records, lookups, nil
}

// journalProbeRecords is how many of a pass's store records the journal
// probe appends (one fsync each).
const journalProbeRecords = 1000

// recordKeys returns the keys of up to journalProbeRecords spans.
func recordKeys(spans []span) []string {
	var keys []string
	for _, s := range spans[:min(len(spans), journalProbeRecords)] {
		keys = append(keys, s.Key)
	}
	return keys
}
