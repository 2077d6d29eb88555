package main

import (
	"bytes"
	"context"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// buildSweep builds the real binary into a temporary directory.
func buildSweep(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := filepath.Join(t.TempDir(), "sweep")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building sweep: %v\n%s", err, out)
	}
	return bin
}

// A 40 % grid step over λmin < λmax leaves six feasible cells, one CSV
// row each under the header.
func TestCoarseGridFeasibleCells(t *testing.T) {
	bin := buildSweep(t)
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

// A non-positive step would never leave the grid loops: the flag is
// rejected with a usage error (exit status 2) before any simulation.
func TestNonPositiveStepIsUsageError(t *testing.T) {
	bin := buildSweep(t)
	for _, step := range []string{"0", "-5", "NaN"} {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		cmd := exec.CommandContext(ctx, bin, "-days", "0.05", "-step", step)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("-step %s: err = %v, want exit status 2\n%s", step, err, stderr.String())
		}
		if want := "sweep: -step must be a positive percentage"; !strings.HasPrefix(stderr.String(), want) {
			t.Errorf("-step %s: stderr = %q, want prefix %q", step, stderr.String(), want)
		}
	}
}
