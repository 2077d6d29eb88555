package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"energysched/internal/experiments"
	"energysched/internal/workload"
)

// buildTables builds the real binary into a temporary directory.
func buildTables(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := filepath.Join(t.TempDir(), "tables")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building tables: %v\n%s", err, out)
	}
	return bin
}

// Tables II–V on the one-day trace are deterministic, so the output
// matches testdata/days1.golden byte for byte: a change to any row's
// policy, thresholds or costs shows.
func TestDays1MatchesGolden(t *testing.T) {
	bin := buildTables(t)
	out, err := exec.Command(bin, "-days", "1").Output()
	if err != nil {
		t.Fatalf("tables -days 1: %v", err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "days1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, want) {
		t.Errorf("tables -days 1 differs from testdata/days1.golden:\n%s", out)
	}
}

// -seed seeds the whole run, not only the trace: a single-run row at
// seed 2 reads what the seed-2 replica of the same row reads.
func TestSeedSeedsTheSimulation(t *testing.T) {
	bin := buildTables(t)
	out, err := exec.Command(bin, "-days", "0.5", "-seed", "2", "-table", "2").Output()
	if err != nil {
		t.Fatalf("tables -days 0.5 -seed 2 -table 2: %v", err)
	}
	var rd string
	for _, l := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(l, "RD ") {
			rd = l
		}
	}
	gen := workload.DefaultGeneratorConfig()
	gen.Horizon = 0.5 * 24 * 3600
	rep, err := experiments.Replicate(experiments.TableIIRows()[0], gen, []int64{2})
	if err != nil {
		t.Fatal(err)
	}
	on := fmt.Sprintf("/%5.1f  CPU", rep.AvgOnline.Mean)
	tail := fmt.Sprintf("Pwr %7.1f kWh  S %5.1f%%  delay %5.1f%%  mig %4.0f",
		rep.EnergyKWh.Mean, rep.Satisfaction.Mean, rep.Delay.Mean, rep.Migrations.Mean)
	if !strings.Contains(rd, on) || !strings.HasSuffix(rd, tail) {
		t.Errorf("RD row at -seed 2:\n%s\nwant ON %.1f and %q, as the seed-2 replica reads", rd, rep.AvgOnline.Mean, tail)
	}
}

// An unknown -table used to print the workload line, no table, and
// exit 0; it is a usage error like any other bad flag value.
func TestUnknownTableIsAUsageError(t *testing.T) {
	bin := buildTables(t)
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
