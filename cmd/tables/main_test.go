package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// An unknown -table used to print the workload line, no table, and
// exit 0; it is a usage error like any other bad flag value.
func TestUnknownTableIsAUsageError(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := filepath.Join(t.TempDir(), "tables")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building tables: %v\n%s", err, out)
	}
	for _, arg := range []string{"1", "6", "-4"} {
		cmd := exec.Command(bin, "-days", "0.01", "-table", arg)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("-table %s: err = %v, want exit status 2", arg, err)
		}
		msg := strings.TrimSuffix(stderr.String(), "\n")
		if stdout.Len() != 0 || strings.Contains(msg, "\n") ||
			!strings.HasPrefix(msg, "tables: -table must be") || !strings.HasSuffix(msg, "(run 'tables -h' for usage)") {
			t.Errorf("-table %s: stdout %q, stderr %q; want only the one-line flag error", arg, stdout.String(), msg)
		}
	}
	out, err := exec.Command(bin, "-days", "0.01", "-table", "2").Output()
	if err != nil || !bytes.Contains(out, []byte("Table II")) {
		t.Errorf("-table 2: err = %v, output %q", err, out)
	}
}
