package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

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
	bin := buildEnergysim(t, dir)

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

// -h prints the flag reference byte for byte as testdata/flags.golden
// holds it.
func TestEnergysimHelpGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "flags.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cmd := exec.Command(buildEnergysim(t, t.TempDir()), "-h")
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil || !bytes.Equal(stderr.Bytes(), want) {
		t.Errorf("-h: err %v, output\n%s\nwant testdata/flags.golden:\n%s", err, stderr.Bytes(), want)
	}
}

// buildEnergysim builds the real binary into dir.
func buildEnergysim(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "energysim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building energysim: %v\n%s", err, out)
	}
	return bin
}

// TestEnergysimRejectsOutOfRangeFlags: a flag value outside its range —
// NaN among them — is a usage error (exit 2, one line), not a default
// silently substituted, a different experiment run or a run that never
// ends. Each case must fail within the deadline.
func TestEnergysimRejectsOutOfRangeFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := buildEnergysim(t, t.TempDir())
	for _, tc := range []struct {
		args []string
		flag string // the flag the usage line names
	}{
		{[]string{"-days", "0"}, "-days"},
		{[]string{"-days", "-1"}, "-days"},
		{[]string{"-days", "NaN"}, "-days"},
		{[]string{"-days", "+Inf"}, "-days"},
		{[]string{"-nodes", "-5"}, "-nodes"},
		{[]string{"-checkpoint", "-5"}, "-checkpoint"},
		{[]string{"-checkpoint", "NaN"}, "-checkpoint"},
		{[]string{"-adaptive", "150"}, "-adaptive"},
		{[]string{"-adaptive", "-3"}, "-adaptive"},
		{[]string{"-adaptive", "NaN"}, "-adaptive"},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		cmd := exec.CommandContext(ctx, bin, tc.args...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		late := ctx.Err()
		cancel()
		var exit *exec.ExitError
		if late != nil || !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%v: err = %v (deadline: %v), want exit status 2", tc.args, err, late)
			continue
		}
		msg := strings.TrimSuffix(stderr.String(), "\n")
		if stdout.Len() != 0 || strings.Contains(msg, "\n") ||
			!strings.HasPrefix(msg, "energysim: "+tc.flag+" ") && !strings.HasPrefix(msg, "energysim: "+tc.flag+":") ||
			!strings.HasSuffix(msg, "(run 'energysim -h' for usage)") {
			t.Errorf("%v: stdout %q, stderr %q; want only the one-line usage error naming %s", tc.args, stdout.String(), msg, tc.flag)
		}
	}
}
