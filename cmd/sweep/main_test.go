package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// A 40 % grid step over λmin < λmax leaves six feasible cells, one CSV
// row each under the header.
func TestCoarseGridFeasibleCells(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := filepath.Join(t.TempDir(), "sweep")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building sweep: %v\n%s", err, out)
	}
	cmd := exec.Command(bin, "-days", "0.2", "-step", "40")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("sweep: %v\n%s", err, stderr.String())
	}
	if !strings.HasPrefix(stderr.String(), "sweep: 6 feasible cells") {
		t.Errorf("stderr = %q, want 6 feasible cells", stderr.String())
	}
	if rows := strings.Count(stdout.String(), "\n"); rows != 7 {
		t.Errorf("CSV has %d lines, want a header and 6 cells", rows)
	}
}
