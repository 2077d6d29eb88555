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

	"energysched"
	"energysched/internal/metrics"
)

// The real binary over its three ways of naming a workload — the
// built-in generator, a CSV written by tracegen's writer, a GWF file —
// must print, for each, exactly the row the library computes on the
// same jobs, the workload line derived from that result, and a per-job
// CSV. All three stream; the retired -stream switch is a usage error.
func TestEnergysimStreamsEveryInput(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "energysim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building energysim: %v\n%s", err, out)
	}

	generated := energysched.GenerateTrace(energysched.TraceOptions{Days: 1, Seed: 1})
	csvPath := filepath.Join(dir, "day.csv")
	var csv bytes.Buffer
	if err := energysched.WriteTraceCSV(&csv, generated); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(csvPath, csv.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	fromCSV, err := energysched.ReadTraceCSV(bytes.NewReader(csv.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	gwfPath := filepath.Join(dir, "day.gwf")
	var gwf bytes.Buffer
	gwf.WriteString("# synthetic one-day archive\n")
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&gwf, "%d %d 0 %d %d 0 0 1 0 0 1\n", i, 1000+i*280, 900+(i%7)*600, 1+i%4)
	}
	if err := os.WriteFile(gwfPath, gwf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	fromGWF, err := energysched.ReadTraceGWF(bytes.NewReader(gwf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	rows := map[string]string{}
	for _, tc := range []struct {
		name  string
		args  []string
		trace *energysched.Trace
	}{
		{"generated", []string{"-days", "1", "-seed", "1"}, generated},
		{"csv", []string{"-trace", csvPath}, fromCSV},
		{"gwf", []string{"-gwf", gwfPath}, fromGWF},
	} {
		want, err := energysched.Run(energysched.Options{
			Policy: "SB", Trace: tc.trace, LambdaMin: 30, LambdaMax: 90, Seed: 1,
			Score: &energysched.ScoreParams{Cempty: 20, Cfill: 40},
		})
		if err != nil {
			t.Fatalf("%s: library run: %v", tc.name, err)
		}
		jobsPath := filepath.Join(dir, tc.name+"-jobs.csv")
		out, err := exec.Command(bin, append(tc.args, "-jobs", jobsPath)...).CombinedOutput()
		if err != nil {
			t.Fatalf("%s: %v\n%s", tc.name, err, out)
		}
		wantOut := fmt.Sprintf("workload: %d jobs, %.1f CPU-hours over %.1f days\n%s\n%s\n",
			tc.trace.Len(), want.CPUHours, want.SimEnd/86400, metrics.TableHeader(), want)
		if string(out) != wantOut {
			t.Errorf("%s: output\n%swant\n%s", tc.name, out, wantOut)
		}
		rows[tc.name] = want.String()
		jobs, err := os.ReadFile(jobsPath)
		if err != nil || bytes.Count(jobs, []byte("\n")) != tc.trace.Len()+1 {
			t.Errorf("%s: -jobs CSV has %d lines (err %v), want a header and %d rows",
				tc.name, bytes.Count(jobs, []byte("\n")), err, tc.trace.Len())
		}
	}

	// The CSV holds the generated jobs (rounded to its column widths,
	// far below the table's precision), so those two rows coincide. GWF
	// has no memory or deadline columns and cannot carry the same jobs.
	if rows["generated"] != rows["csv"] {
		t.Errorf("generated and CSV rows differ:\n%s\n%s", rows["generated"], rows["csv"])
	}

	cmd := exec.Command(bin, "-days", "1", "-stream")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err = cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("-stream: err = %v, want exit status 2", err)
	}
	msg := strings.TrimSuffix(stderr.String(), "\n")
	if stdout.Len() != 0 || strings.Contains(msg, "\n") ||
		msg != "energysim: flag provided but not defined: -stream (run 'energysim -h' for usage)" {
		t.Errorf("-stream: stdout %q, stderr %q; want only the one-line flag error", stdout.String(), msg)
	}
}
