package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The timeline of an energysim event log: one lane per node up to the
// highest node ID the log names, the run's completions, and the fleet's
// on-time utilization.
func TestReplayEnergysimLog(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binaries")
	}
	dir := t.TempDir()
	bin, sim := filepath.Join(dir, "replay"), filepath.Join(dir, "energysim")
	for _, b := range [][2]string{{bin, "."}, {sim, "../energysim"}} {
		if out, err := exec.Command("go", "build", "-o", b[0], b[1]).CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", b[1], err, out)
		}
	}
	events := filepath.Join(dir, "run.jsonl")
	if out, err := exec.Command(sim, "-days", "0.1", "-events", events).CombinedOutput(); err != nil {
		t.Fatalf("energysim: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, "-events", events).Output()
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	text := string(out)
	lanes := 0
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "node") {
			lanes++
		}
	}
	if lanes != 27 {
		t.Errorf("%d node lanes, want 27", lanes)
	}
	for _, want := range []string{"jobs completed 37 ", "fleet on-time utilization: 30.7 %\n"} {
		if !strings.Contains(text, want) {
			t.Errorf("output lacks %q:\n%s", want, text)
		}
	}
}
