package bcnphase_test

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestFlagCensus holds every flag that bcnd, bcnsweep and bcnphase
// register to exactly one row of that command's flag census table in
// DESIGN.md (§5d), and every row to a registered flag, so a flag cannot
// be added without saying which script, soak or test sets it, or which
// operator needs it.
func TestFlagCensus(t *testing.T) {
	commands := []string{"bcnd", "bcnsweep", "bcnphase"}
	bin := buildCommands(t, commands...)
	for _, name := range commands {
		t.Run(name, func(t *testing.T) {
			help, err := exec.Command(filepath.Join(bin, name), "-h").Output()
			if err != nil {
				t.Fatalf("%s -h: %v", name, err)
			}
			registered := map[string]bool{}
			for _, m := range regexp.MustCompile(`(?m)^  -(\S+)`).FindAllStringSubmatch(string(help), -1) {
				registered[m[1]] = true
			}
			if len(registered) == 0 {
				t.Fatalf("-h listed no flags:\n%s", help)
			}
			rows := designFlagRows(t, "| "+name+" flag |")
			if len(rows) == 0 {
				t.Fatalf("DESIGN.md has no %s flag census table", name)
			}
			for flag := range registered {
				if rows[flag] != 1 {
					t.Errorf("flag -%s has %d rows in the DESIGN.md census, want 1", flag, rows[flag])
				}
			}
			for flag := range rows {
				if !registered[flag] {
					t.Errorf("DESIGN.md census row -%s names no registered flag", flag)
				}
			}
		})
	}
}

// designFlagRows counts the rows per flag of the DESIGN.md table whose
// header line starts with header.
func designFlagRows(t *testing.T, header string) map[string]int {
	t.Helper()
	f, err := os.Open("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows := map[string]int{}
	row := regexp.MustCompile("^\\| `-([^`]+)` \\|")
	inTable := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, header) {
			inTable = true
			continue
		}
		if !inTable {
			continue
		}
		if !strings.HasPrefix(line, "|") {
			break
		}
		if m := row.FindStringSubmatch(line); m != nil {
			rows[m[1]]++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}
