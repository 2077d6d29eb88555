// Command bench is the repository's benchmark: five named workloads,
// each a timed phase of identical repetitions bracketed by reference
// probes, every repetition's outputs checked against oracles, and a
// separate traced pass that attributes the time to layers from outside
// the program. See README.md; BENCHMARK.json at the repository root
// fixes the metric names, units and regression bounds.
//
//	bash bench/run.sh                                  every workload
//	bash bench/run.sh -workload serve_wal -seed 2      one workload, another seed
//	bash bench/run.sh -workload sim_scale_2k -trace 1  the traced pass
//	bash bench/run.sh -selfcheck                       A/A: the suite twice, against the bounds
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"energysched"
)

// env is what a run hands every workload.
type env struct {
	seed      int64
	smoke     bool   // tiny inputs, for the tests
	scratch   string // a directory under bench/out, on the repository's filesystem
	instances int    // scratch sub-directories handed out so far
}

// outcome is what one repetition produced.
type outcome struct {
	report            energysched.Result // the paper metrics the oracles compare
	jobs              int                // jobs completed: the unit of every per-job metric
	attempted, failed int                // operations: jobs submitted, or HTTP requests
}

// instance is one constructed workload, ready to repeat.
type instance interface {
	// prepare is a repetition's untimed preparation.
	prepare(rec *recorder) error
	// run is the timed repetition. A non-nil rec turns the boundary
	// wrappers on.
	run(rec *recorder) (outcome, error)
	// finish is a repetition's untimed clean-up.
	finish(rec *recorder) error
	// verify checks the warm-up's outcome against the workload's own
	// reference implementation, untimed, once.
	verify(warm outcome) error
	// layers fills in the per-layer metrics after the traced repetitions.
	layers(rec *recorder, out map[string]float64) error
	close() error
}

type workloadDef struct {
	name    string
	durable bool // the reference probe includes write+fsync
	// setUp is the whole set-up: generate the inputs from the seed,
	// construct, run one untimed warm-up repetition.
	setUp func(e *env, rec *recorder) (instance, outcome, error)
}

// workloads lists the five workloads in BENCHMARK.json's order; smoke
// shrinks each to a fraction of a second for the tests.
func workloads(smoke bool) []workloadDef {
	paper := simSpec{days: 7}
	dense := simSpec{classes: func() []energysched.NodeClass { return energysched.ScaleClasses(400) }, days: 0.1, jobsPerDay: 3000}
	scale := simSpec{classes: func() []energysched.NodeClass { return energysched.ScaleClasses(2000) }, days: 7, stream: true, failures: true}
	wal := serveSpec{wal: true, waves: 120, perWave: 8}
	mixed := serveSpec{batch: true, waves: 300, perWave: 8}
	if smoke {
		paper.days, dense.days, scale.days = 0.5, 0.02, 0.25
		scale.classes = func() []energysched.NodeClass { return energysched.ScaleClasses(200) }
		wal.waves, mixed.waves = 6, 6
	}
	return []workloadDef{
		{name: "sim_paper_week", setUp: paper.setUp},
		{name: "sim_dense_400", setUp: dense.setUp},
		{name: "sim_scale_2k", setUp: scale.setUp},
		{name: "serve_wal", durable: true, setUp: wal.setUp},
		{name: "serve_mixed", setUp: mixed.setUp},
	}
}

const (
	setupRuns = 8  // executions of the whole set-up; the median is setup_s
	minReps   = 30 // repetitions behind every median, however slow the host
	traceReps = 5  // traced repetitions, interleaved with as many untraced
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload's run, and the JSON object printed last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	reps  int      // timed repetitions behind the medians
	notes []string // oracle failures, for the human-readable part
}

type options struct {
	seconds float64 // timed-phase budget: repeat until it is spent, and at least minReps times
	reps    int     // > 0: exactly this many repetitions instead
	outDir  string  // bench/out
}

func (r *result) fail(format string, args ...interface{}) {
	r.Failed++
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// checkOutcome applies the per-repetition oracles: every job completed,
// no operation failed, and the report equals the warm-up's field for
// field.
func (r *result) checkOutcome(what string, got outcome, warm *outcome) {
	r.Attempted += got.attempted
	r.Failed += got.failed
	if got.failed > 0 {
		r.notes = append(r.notes, fmt.Sprintf("%s: %d of %d operations failed", what, got.failed, got.attempted))
	}
	if got.report.JobsCompleted != got.report.JobsTotal || got.jobs == 0 {
		r.fail("%s: %d of %d jobs completed", what, got.report.JobsCompleted, got.report.JobsTotal)
	}
	if warm != nil && got.report != warm.report {
		r.fail("%s: report differs from the warm-up's:\n got  %+v\n want %+v", what, got.report, warm.report)
	}
}

// session is one workload made ready to repeat: its reference probe,
// the instance the last set-up built and that set-up's warm-up outcome.
type session struct {
	m      *measurer
	inst   instance
	warm   outcome
	setups []float64 // corrected seconds of each set-up execution
}

// openSession builds the probe, executes the whole set-up runs times
// between probes (keeping the last instance), then applies the
// once-only oracles: the workload's own reference and golden.json.
func openSession(w workloadDef, e *env, rec *recorder, runs int, res *result) (*session, error) {
	dir := ""
	if w.durable {
		dir = e.scratch
	}
	shrink := 1
	if e.smoke {
		shrink = 20 // the tests assert no timing, so a token probe will do
	}
	probe, err := newRefProbe(dir, shrink)
	if err != nil {
		return nil, err
	}
	s := &session{m: &measurer{probe: probe}}
	for i := 0; i < runs; i++ {
		if err := s.setUp(w, e, rec); err != nil {
			s.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	res.checkOutcome("warm-up", s.warm, nil)
	if err := s.inst.verify(s.warm); err != nil {
		res.fail("warm-up: %v", err)
	}
	if !e.smoke {
		if err := checkGolden(w.name, s.warm.report); err != nil {
			res.fail("warm-up: %v", err)
		}
	}
	return s, nil
}

// setUp executes the whole set-up once, timed, replacing the instance
// the previous execution built.
func (s *session) setUp(w workloadDef, e *env, rec *recorder) error {
	if s.inst != nil {
		err := s.inst.close()
		s.inst = nil
		if err != nil {
			return err
		}
	}
	t, err := s.m.timed(func() (err error) {
		s.inst, s.warm, err = w.setUp(e, rec)
		return err
	})
	if err != nil {
		return err
	}
	s.setups = append(s.setups, t.wall.Seconds()*t.factor)
	return nil
}

// close stops the instance (a daemon, its scratch files) and the probe.
func (s *session) close() error {
	var err error
	if s.inst != nil {
		err = s.inst.close()
	}
	if cerr := s.m.probe.close(); err == nil {
		err = cerr
	}
	return err
}

// repetition is one prepare/run/finish cycle, the run timed.
func repetition(inst instance, m *measurer, rec *recorder) (timing, outcome, error) {
	if err := inst.prepare(rec); err != nil {
		return timing{}, outcome{}, err
	}
	var out outcome
	t, err := m.timed(func() (err error) {
		out, err = inst.run(rec)
		return err
	})
	if err != nil {
		return timing{}, outcome{}, err
	}
	return t, out, inst.finish(rec)
}

// runWorkload measures the end-to-end metrics with every wrapper off.
func runWorkload(w workloadDef, e *env, opt options) (res *result, err error) {
	res = &result{Metrics: map[string]metric{}}
	s, err := openSession(w, e, nil, setupRuns, res)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := s.close(); err == nil {
			err = cerr
		}
	}()

	var wall, cpu, allocKB, allocs []float64
	var csv strings.Builder
	csv.WriteString("rep,raw_wall_us_per_job,raw_cpu_us_per_job,ref_probe_ms,ref_factor\n")
	deadline := time.Now().Add(time.Duration(opt.seconds * float64(time.Second)))
	for rep := 0; ; rep++ {
		if opt.reps > 0 {
			if rep >= opt.reps {
				break
			}
		} else if rep >= minReps && !time.Now().Before(deadline) {
			break
		}
		t, out, err := repetition(s.inst, s.m, nil)
		if err != nil {
			return nil, fmt.Errorf("repetition %d: %w", rep+1, err)
		}
		res.checkOutcome(fmt.Sprintf("repetition %d", rep+1), out, &s.warm)
		jobs := float64(out.jobs)
		wall = append(wall, ratio(micros(t.wall)*t.factor, jobs))
		cpu = append(cpu, ratio(micros(t.cpu)*t.factor, jobs))
		allocKB = append(allocKB, ratio(float64(t.allocB)/1024, jobs))
		allocs = append(allocs, ratio(float64(t.mallocs), jobs))
		fmt.Fprintf(&csv, "%d,%.3f,%.3f,%.3f,%.5f\n", rep+1, ratio(micros(t.wall), jobs), ratio(micros(t.cpu), jobs), t.probeMS, t.factor)
	}
	// The uncorrected samples stay inspectable: whoever doubts a median
	// can see what it was taken over.
	if err := os.WriteFile(filepath.Join(opt.outDir, "reps-"+w.name+".csv"), []byte(csv.String()), 0o644); err != nil {
		return nil, err
	}
	res.reps = len(wall)
	res.Metrics["setup_s"] = metric{median(s.setups), "s"}
	res.Metrics["job_wall_us"] = metric{median(wall), "us"}
	res.Metrics["job_cpu_us"] = metric{median(cpu), "us"}
	res.Metrics["job_alloc_kb"] = metric{median(allocKB), "kB"}
	res.Metrics["job_allocs"] = metric{median(allocs), "count"}
	res.Correct = res.Failed == 0
	return res, nil
}

// traceWorkload is the traced pass: one set-up, then traceReps untraced
// and traceReps traced repetitions interleaved, the spans written to
// bench/out/trace-<workload>.json.
func traceWorkload(w workloadDef, e *env, opt options) (res *result, err error) {
	res = &result{Metrics: map[string]metric{}}
	rec := newRecorder()
	s, err := openSession(w, e, rec, 1, res)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := s.close(); err == nil {
			err = cerr
		}
	}()

	var plainWall, tracedWall, rawWall, factors, probes []float64
	var jobs, gcCycles, gcPauseUS, heapPeak float64
	for rep := 1; rep <= traceReps; rep++ {
		t, out, err := repetition(s.inst, s.m, nil)
		if err != nil {
			return nil, fmt.Errorf("untraced repetition %d: %w", rep, err)
		}
		res.checkOutcome(fmt.Sprintf("untraced repetition %d", rep), out, &s.warm)
		plainWall = append(plainWall, ratio(micros(t.wall)*t.factor, float64(out.jobs)))
		rawWall = append(rawWall, ratio(micros(t.wall), float64(out.jobs)))
		factors = append(factors, t.factor)
		probes = append(probes, t.probeMS)
		jobs += float64(out.jobs)
		gcCycles += float64(t.gcCycles)
		gcPauseUS += micros(t.gcPause)
		heapPeak = math.Max(heapPeak, float64(t.heapSysB))

		rec.rep = rep
		t, out, err = repetition(s.inst, s.m, rec)
		if err != nil {
			return nil, fmt.Errorf("traced repetition %d: %w", rep, err)
		}
		rec.factors[rep] = t.factor
		res.checkOutcome(fmt.Sprintf("traced repetition %d", rep), out, &s.warm)
		tracedWall = append(tracedWall, ratio(micros(t.wall)*t.factor, float64(out.jobs)))
	}

	values := map[string]float64{}
	if err := s.inst.layers(rec, values); err != nil {
		return nil, err
	}
	values["runtime.ref_factor"] = median(factors)
	values["runtime.ref_probe_ms"] = median(probes)
	values["runtime.job_wall_us_raw"] = median(rawWall)
	values["runtime.gc_cycles_per_kjob"] = ratio(gcCycles*1000, jobs)
	values["runtime.gc_pause_us_per_job"] = ratio(gcPauseUS, jobs)
	values["runtime.heap_peak_mb"] = heapPeak / (1 << 20)
	values["runtime.trace_overhead_ratio"] = ratio(median(tracedWall), median(plainWall))
	// Every per-layer metric is printed on every workload; a layer that
	// is not on a workload's path reports 0.
	for _, def := range layerMetrics {
		res.Metrics[def.name] = metric{values[def.name], def.unit}
	}
	if err := rec.write(opt.outDir, w.name); err != nil {
		return nil, err
	}
	res.reps = traceReps
	res.Correct = res.Failed == 0
	return res, nil
}

//go:embed golden.json
var goldenJSON []byte

// goldenReport is one workload's entry of golden.json: the paper
// metrics its repetition must reproduce, whatever the run's seed.
type goldenReport struct {
	EnergyKWh     float64 `json:"energy_kwh"`
	Satisfaction  float64 `json:"satisfaction_pct"`
	Delay         float64 `json:"delay_pct"`
	Migrations    int     `json:"migrations"`
	NodesOn       float64 `json:"nodes_on"`
	JobsCompleted int     `json:"jobs_completed"`
	Failures      int     `json:"failures"`
}

func goldenOf(r energysched.Result) goldenReport {
	return goldenReport{r.EnergyKWh, r.Satisfaction, r.Delay, r.Migrations, r.AvgOnline, r.JobsCompleted, r.Failures}
}

func checkGolden(name string, got energysched.Result) error {
	var all map[string]goldenReport
	if err := json.Unmarshal(goldenJSON, &all); err != nil {
		return fmt.Errorf("golden.json: %w", err)
	}
	want, ok := all[name]
	if !ok {
		return fmt.Errorf("golden.json has no entry for %s", name)
	}
	if g := goldenOf(got); g != want {
		// Printed as golden.json spells it: after a deliberate change of
		// the paper metrics, this is the entry to paste there.
		entry, _ := json.Marshal(g) // a struct of numbers cannot fail to encode
		return fmt.Errorf("report differs from golden.json:\n got  %s\n want %+v", entry, want)
	}
	return nil
}

// benchmarkFile is the part of BENCHMARK.json the harness reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// findRoot returns the directory holding BENCHMARK.json: the working
// directory (bash bench/run.sh from the repository root) or its parent
// (go test from bench/).
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("BENCHMARK.json not found in . or ..: run from the repository root or from bench/")
}

func loadBenchmarkFile(root string) (benchmarkFile, error) {
	var bf benchmarkFile
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		return bf, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return bf, nil
}

// printResult writes the human-readable table and then, as the last
// line, the JSON object the driver reads.
func printResult(w io.Writer, name string, res *result, elapsed time.Duration) error {
	fmt.Fprintf(w, "workload %s: %d repetitions, %d operations attempted, %d failed, %.1f s\n",
		name, res.reps, res.Attempted, res.Failed, elapsed.Seconds())
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-40s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Fprintf(w, "  %-40s %14d count\n  %-40s %14d count\n", "ops_attempted", res.Attempted, "ops_failed", res.Failed)
	for _, note := range res.notes {
		fmt.Fprintln(w, "  FAILED "+note)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	var (
		workloadName = flag.String("workload", "", "run one workload (default: all five)")
		seed         = flag.Int64("seed", 1, "input seed")
		seconds      = flag.Float64("seconds", 0, "timed-phase budget per workload: repetitions run until it is spent and at least 30 times (default: BENCHMARK.json's run_seconds; the traced pass runs a fixed 5+5 repetitions)")
		reps         = flag.Int("reps", 0, "run exactly this many repetitions instead of filling -seconds")
		trace        = flag.Int("trace", 0, "1: the traced pass (per-layer metrics, spans under bench/out) instead of the end-to-end metrics")
		selfcheck    = flag.Bool("selfcheck", false, "A/A: run the suite twice and compare the medians against the bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	bf, err := loadBenchmarkFile(root)
	if err != nil {
		return err
	}
	opt := options{seconds: *seconds, reps: *reps, outDir: filepath.Join(root, "bench", "out")}
	if opt.seconds <= 0 {
		opt.seconds = float64(bf.RunSeconds)
	}
	all := workloads(false)
	if *workloadName != "" {
		var one []workloadDef
		for _, w := range all {
			if w.name == *workloadName {
				one = append(one, w)
			}
		}
		if one == nil {
			return fmt.Errorf("unknown workload %q", *workloadName)
		}
		all = one
	}

	// The scratch directory lives under bench/out so the WAL's fsyncs hit
	// the repository's filesystem, not a tmpfs /tmp.
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(opt.outDir, "scratch-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	fmt.Printf("scratch %s (the repository's filesystem, removed on exit)\n", scratch)
	e := &env{seed: *seed, scratch: scratch}

	if *selfcheck {
		return selfCheck(all, e, opt, bf)
	}
	failed := false
	for _, w := range all {
		start := time.Now()
		var res *result
		if *trace != 0 {
			res, err = traceWorkload(w, e, opt)
		} else {
			res, err = runWorkload(w, e, opt)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if err := printResult(os.Stdout, w.name, res, time.Since(start)); err != nil {
			return err
		}
		failed = failed || !res.Correct
	}
	if failed {
		return fmt.Errorf("an oracle failed: see the FAILED lines")
	}
	return nil
}

// selfCheck runs the suite twice in one invocation, the second time in
// reverse workload order, and holds the two sets of medians against
// BENCHMARK.json's bounds: the same code must agree with itself.
func selfCheck(all []workloadDef, e *env, opt options, bf benchmarkFile) error {
	runs := [2]map[string]*result{{}, {}}
	for pass := range runs {
		order := append([]workloadDef(nil), all...)
		if pass == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, w := range order {
			res, err := runWorkload(w, e, opt)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s: an oracle failed: %s", w.name, strings.Join(res.notes, "; "))
			}
			runs[pass][w.name] = res
			fmt.Printf("pass %d %s done (%d repetitions)\n", pass+1, w.name, res.reps)
		}
	}
	fmt.Printf("%-16s %-14s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	exceeded := 0
	for _, w := range all {
		for _, def := range bf.EndToEnd {
			a, b := runs[0][w.name].Metrics[def.Name].Value, runs[1][w.name].Metrics[def.Name].Value
			diff := ratio(math.Abs(b-a), math.Min(a, b))
			mark := ""
			if diff > def.Bound {
				mark = "  EXCEEDS"
				exceeded++
			}
			fmt.Printf("%-16s %-14s %14.4f %14.4f %8.2f%% %6.0f%%%s\n", w.name, def.Name, a, b, diff*100, def.Bound*100, mark)
		}
	}
	if exceeded > 0 {
		return fmt.Errorf("%d metrics differ between two runs of the same code by more than their bound", exceeded)
	}
	return nil
}
