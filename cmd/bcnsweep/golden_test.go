package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"bcnphase/internal/runstate"
)

// TestResumeJournalGolden pins the bytes a -resume run leaves on disk:
// the SHA-256 of its journal's lines, sorted so that worker scheduling
// cannot move the digest, and of its map.csv. A 12×12 grid on the
// default axes is run and then resumed, once unchecked and once under
// the record policy, whose rows carry Violations and FirstPred. Any
// change to how bcnsweep keys, encodes, journals or replays a row shows
// up here first. Digests are recorded on linux/amd64; other
// architectures may round the solve differently.
func TestResumeJournalGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are recorded on amd64, not %s", runtime.GOARCH)
	}
	for _, tc := range []struct {
		invariants      string
		journal, mapCSV string
	}{
		{"off",
			"556b5300c6d20317889f3e3927663e16de06aa25df72ce39d1c7292dff4b1ee8",
			"a58ccdc9d27e6cd83fc733192bb0765fe6bf5ab27cc7b672d278c115a4dfe422"},
		// 45 of these rows carry a rate-bounds violation.
		{"record",
			"13814933a28150859a01e962c129ee6ef49927853bc6aa993276d161dfaa957e",
			"bf3eeafc4d4ec0c65e7d96ab7704cdedff47f8e2cec6eb06fc31d39c8cabdfd3"},
	} {
		t.Run("invariants="+tc.invariants, func(t *testing.T) {
			// The second run resumes the finished journal: it must add
			// nothing to it and publish the same map.
			dir := t.TempDir()
			args := []string{"-steps", "12", "-workers", "4", "-invariants", tc.invariants, "-resume", dir}
			var first, second strings.Builder
			if err := run(context.Background(), args, &first); err != nil {
				t.Fatalf("run: %v", err)
			}
			if err := run(context.Background(), args, &second); err != nil {
				t.Fatalf("resume: %v", err)
			}
			if first.String() != second.String() {
				t.Error("resumed stdout differs from the first run")
			}
			raw, err := os.ReadFile(filepath.Join(dir, runstate.JournalFileName))
			if err != nil {
				t.Fatal(err)
			}
			lines := bytes.SplitAfter(raw, []byte("\n"))
			sort.Slice(lines, func(i, k int) bool { return bytes.Compare(lines[i], lines[k]) < 0 })
			csv, err := os.ReadFile(filepath.Join(dir, "map.csv"))
			if err != nil {
				t.Fatal(err)
			}
			if got := sha256Hex(bytes.Join(lines, nil)); got != tc.journal {
				t.Errorf("sorted journal digest = %s, want %s", got, tc.journal)
			}
			if got := sha256Hex(csv); got != tc.mapCSV {
				t.Errorf("map.csv digest = %s, want %s", got, tc.mapCSV)
			}
		})
	}
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
