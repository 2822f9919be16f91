package runstate

import (
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"testing"
)

// BenchmarkJournalRecord is the runstate.record rung: 64 rows appended
// to an fsync'd journal in a temp dir, either one Record (and one
// fsync) each or in one RecordBatch. One op is all 64 rows; ns/row
// reports the cost per record.
func BenchmarkJournalRecord(b *testing.B) {
	const rows = 64
	val := []byte(`{"CSV":"0.05,0.0009765625,1,true,true,1.2345678901234567e+06,converged to equilibrium,true,9.87654321e+05,0.5,0,","Violations":0,"FirstPred":""}`)
	run := func(b *testing.B, record func(j *Journal, keys []string, vals [][]byte) error) {
		j, err := OpenJournal(filepath.Join(b.TempDir(), JournalFileName))
		if err != nil {
			b.Fatal(err)
		}
		defer j.Close()
		keys := make([]string, rows)
		vals := make([][]byte, rows)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for r := range keys {
				keys[r] = fmt.Sprintf("%064x", i*rows+r)
				vals[r] = val
			}
			if err := record(j, keys, vals); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
	}
	b.Run("one", func(b *testing.B) {
		run(b, func(j *Journal, keys []string, vals [][]byte) error {
			for r := range keys {
				if err := j.Record(keys[r], vals[r]); err != nil {
					return err
				}
			}
			return nil
		})
	})
	b.Run("batch", func(b *testing.B) {
		run(b, (*Journal).RecordBatch)
	})
}

// BenchmarkTable is the runstate.table rung: the artifact index under
// both stores, holding 1M coordinator-row-sized entries, either taking
// new keys (record) or serving stored ones (lookup). gc-ns/op is the
// runtime's estimate of GC CPU (/cpu/classes/gc/total:cpu-seconds)
// spent during the timed loop, per op.
func BenchmarkTable(b *testing.B) {
	const entries = 1 << 20
	val := []byte(`{"CSV":"0.05,0.0009765625,1,true,true,1.2345678901234567e+06,converged to equilibrium,true,9.87654321e+05,0.5,0,"}`)
	key := func(i int) string { return fmt.Sprintf("%064x", i) }
	gcSeconds := func() float64 {
		s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
		metrics.Read(s)
		return s[0].Value.Float64()
	}
	run := func(b *testing.B, op func(t *Table, i int)) {
		var t Table
		for i := 0; i < entries; i++ {
			t.Put(key(i), val)
		}
		runtime.GC()
		gc0 := gcSeconds()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			op(&t, i)
		}
		b.StopTimer()
		b.ReportMetric((gcSeconds()-gc0)*1e9/float64(b.N), "gc-ns/op")
		runtime.KeepAlive(&t)
	}
	b.Run("record", func(b *testing.B) {
		run(b, func(t *Table, i int) { t.Put(key(entries+i), val) })
	})
	b.Run("lookup", func(b *testing.B) {
		run(b, func(t *Table, i int) {
			if _, ok := t.Lookup(key(i % entries)); !ok {
				b.Fatal("miss")
			}
		})
	})
}
