// Resumable: crash-safe sweeps with the run journal.
//
// A Theorem 1 boundary sweep is interrupted partway (a cancelled context
// stands in for SIGINT — the bcnsweep binary feeds the sweep the same
// context from its signal handler), then resumed against the same
// journal. Points are evaluated and journaled a span at a time, with one
// fsync per span; the journaled spans replay from disk instead of
// re-solving, and the resumed map is the one an uninterrupted run
// produces. The grid, row evaluator and point keys are bcnsweep's, so
// the journal is one `bcnsweep -resume` could pick up.
//
//	go run ./examples/resumable
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"bcnphase/internal/cluster"
	"bcnphase/internal/runstate"
	"bcnphase/internal/sweep"
)

func main() {
	dir, err := os.MkdirTemp("", "resumable-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// A 6×6 grid across the Theorem 1 boundary at B = 5·q0, in spans of
	// one grid row.
	grid := cluster.GainGrid{BOverQ0: 5, GiLo: 0.05, GiHi: 12.8, GdLo: 1.0 / 1024, GdHi: 0.5, Steps: 6}
	const span = 6
	points := grid.Points()

	// RunJournaled keys each row by the grid's full identity (its
	// fingerprint), so a config change can never replay stale rows.
	journal, err := runstate.OpenJournal(filepath.Join(dir, runstate.JournalFileName))
	if err != nil {
		log.Fatal(err)
	}
	defer journal.Close()

	var evals atomic.Int64
	eval := func(ctx context.Context, pts []cluster.GainPoint, rows []cluster.Row) error {
		evals.Add(int64(len(pts)))
		return grid.EvalBatch(ctx, pts, rows, cluster.EvalMetrics{})
	}

	// Phase 1: "crash" as the third span starts, after two spans are
	// journaled.
	ctx, cancel := context.WithCancel(context.Background())
	evalCut := func(c context.Context, pts []cluster.GainPoint, rows []cluster.Row) error {
		if evals.Load() == 2*span {
			cancel()
			return c.Err()
		}
		return eval(c, pts, rows)
	}
	_, runErr := grid.RunJournaled(ctx, points, span, evalCut, sweep.Options{Workers: 1}, journal)
	fmt.Printf("interrupted run: %d/%d points evaluated, %d journaled (err: %v)\n",
		evals.Load(), len(points), journal.Len(), runErr)

	// Phase 2: resume with the same journal — only the tail re-solves.
	before := evals.Load()
	results, err := grid.RunJournaled(context.Background(), points, span, eval, sweep.Options{}, journal)
	if err != nil {
		log.Fatal(err)
	}
	replayed, stable := 0, 0
	for _, r := range results {
		if r.Cached {
			replayed++
		}
		// Column 8 of a map.csv row is strongly_stable.
		if strings.Split(r.Value.CSV, ",")[7] == "true" {
			stable++
		}
	}
	fmt.Printf("resumed run:     %d fresh evaluations, %d replayed from the journal\n",
		evals.Load()-before, replayed)
	fmt.Printf("boundary map:    %d of %d grid points strongly stable\n", stable, len(points))

	// The journal file itself is an append-only JSONL WAL: torn tails
	// from a real crash are dropped on replay, checksums keep corrupt
	// records from resurrecting.
	info, err := os.Stat(journal.Path())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("journal:         %s (%d bytes, %d records, %d corrupt lines dropped)\n",
		filepath.Base(journal.Path()), info.Size(), journal.Len(), journal.Dropped())
}
