package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The Figure 1 replay reproduces the paper's validation: the simulated
// total energy is 2.3 % under the real one (the paper reports −2.4 %).
func TestFigure1TotalError(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := filepath.Join(t.TempDir(), "validate")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building validate: %v\n%s", err, out)
	}
	out, err := exec.Command(bin).Output()
	if err != nil {
		t.Fatalf("validate: %v", err)
	}
	for _, line := range strings.Split(string(out), "\n") {
		if f := strings.Fields(line); len(f) > 3 && f[0] == "total" && f[1] == "error" {
			if f[2] != "-2.3" {
				t.Errorf("total error %s %%, want -2.3 %%", f[2])
			}
			return
		}
	}
	t.Fatalf("no total error line in:\n%s", out)
}
