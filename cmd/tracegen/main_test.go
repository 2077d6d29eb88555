package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// A fifth of a day of the calibrated generator under seed 1 is 56 jobs:
// the summary on stderr says so and the CSV on stdout holds one row per
// job under its header.
func TestSummaryCountsTheJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := filepath.Join(t.TempDir(), "tracegen")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building tracegen: %v\n%s", err, out)
	}
	cmd := exec.Command(bin, "-days", "0.2", "-seed", "1", "-summary")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("tracegen: %v\n%s", err, stderr.String())
	}
	if !strings.HasPrefix(stderr.String(), "jobs 56 |") {
		t.Errorf("summary = %q, want 56 jobs", stderr.String())
	}
	if rows := strings.Count(stdout.String(), "\n"); rows != 57 {
		t.Errorf("CSV has %d lines, want a header and 56 jobs", rows)
	}
}
