package bcnphase_test

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
)

// TestCLIHelp builds the five commands and runs each with -h, -help and
// an undefined flag. Help exits 0 with the flag list on stdout and
// nothing on stderr; a parse error stays quiet about usage and exits 1
// with the one-line error on stderr.
func TestCLIHelp(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("go tool not on PATH: %v", err)
	}
	bin := t.TempDir()
	tools := []struct{ name, flag string }{
		{"bcnd", "-coordinator"},
		{"bcnphase", "-xcheck"},
		{"bcnreport", "-only"},
		{"bcnsim", "-dur"},
		{"bcnsweep", "-resume"},
	}
	args := []string{"build", "-o", bin + string(filepath.Separator)}
	for _, tool := range tools {
		args = append(args, "./cmd/"+tool.name)
	}
	if out, err := exec.Command(goTool, args...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	invoke := func(t *testing.T, name string, arg string) (stdout, stderr string, code int) {
		t.Helper()
		var o, e bytes.Buffer
		cmd := exec.Command(filepath.Join(bin, name), arg)
		cmd.Stdout, cmd.Stderr = &o, &e
		err := cmd.Run()
		var exit *exec.ExitError
		switch {
		case errors.As(err, &exit):
			code = exit.ExitCode()
		case err != nil:
			t.Fatalf("%s %s: %v", name, arg, err)
		}
		return o.String(), e.String(), code
	}
	for _, tool := range tools {
		t.Run(tool.name, func(t *testing.T) {
			for _, arg := range []string{"-h", "-help"} {
				stdout, stderr, code := invoke(t, tool.name, arg)
				if code != 0 || stderr != "" {
					t.Errorf("%s %s: exit %d, stderr %q; want exit 0 and no stderr", tool.name, arg, code, stderr)
				}
				if !regexp.MustCompile(`(?m)^  ` + tool.flag + `( |$)`).MatchString(stdout) {
					t.Errorf("%s %s: flag list lacks %s:\n%s", tool.name, arg, tool.flag, stdout)
				}
			}
			stdout, stderr, code := invoke(t, tool.name, "-definitely-not-a-flag")
			want := tool.name + ": flag provided but not defined: -definitely-not-a-flag\n"
			if code != 1 || stdout != "" || stderr != want {
				t.Errorf("bad flag: exit %d, stdout %q, stderr %q; want exit 1, no stdout, stderr %q", code, stdout, stderr, want)
			}
		})
	}
}
