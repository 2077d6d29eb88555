// Command energysim runs one datacenter simulation: a workload trace
// (from a file or the built-in Grid5000-like generator) scheduled by a
// chosen policy on the paper's 100-node fleet, reporting the same
// metrics as the paper's result tables.
//
// Examples:
//
//	energysim -policy SB -days 7
//	energysim -policy BF -trace week.csv -lmin 40 -lmax 90
//	energysim -policy SB -failures -checkpoint 600
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"energysched"
	"energysched/internal/cli"
	"energysched/internal/metrics"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("energysim: ")

	var (
		policyName = flag.String("policy", "SB", "scheduling policy: RD, RR, BF, DBF, SB0, SB1, SB2, SB")
		traceFile  = flag.String("trace", "", "workload trace CSV (empty = generate synthetically)")
		gwfFile    = flag.String("gwf", "", "workload trace in Grid Workloads Format")
		days       = flag.Float64("days", 7, "days of synthetic workload when no trace file is given")
		seed       = flag.Int64("seed", 1, "random seed")
		lmin       = flag.Float64("lmin", 30, "λmin: working ratio below which idle nodes are shut down (%)")
		lmax       = flag.Float64("lmax", 90, "λmax: working ratio above which nodes are booted (%)")
		cempty     = flag.Float64("cempty", 20, "Ce: empty-host penalty of the score-based policy")
		cfill      = flag.Float64("cfill", 40, "Cf: occupied-host reward of the score-based policy")
		failures   = flag.Bool("failures", false, "enable reliability-driven node failures")
		checkpoint = flag.Float64("checkpoint", 0, "checkpoint interval in seconds (0 = off)")
		adaptive   = flag.Float64("adaptive", 0, "dynamic-λ satisfaction target in percent (0 = static thresholds)")
		nodes      = flag.Int("nodes", 0, "heterogeneous scale fleet of this many nodes (0 = the paper's 100-node fleet)")
		eventsOut  = flag.String("events", "", "write the JSONL event log to this file")
		jobsOut    = flag.String("jobs", "", "write per-job outcomes CSV to this file")
		powerOut   = flag.String("power", "", "write the datacenter power trace CSV to this file")
	)
	cli.Parse("energysim")

	src, err := loadSource(*traceFile, *gwfFile, *days, *seed)
	if err != nil {
		log.Fatal(err)
	}

	opts := energysched.Options{
		Policy:            *policyName,
		LambdaMin:         *lmin,
		LambdaMax:         *lmax,
		Seed:              *seed,
		Score:             &energysched.ScoreParams{Cempty: *cempty, Cfill: *cfill},
		Failures:          *failures,
		CheckpointSeconds: *checkpoint,
		AdaptiveTarget:    *adaptive,
	}
	if *nodes > 0 {
		opts.Classes = energysched.ScaleClasses(*nodes)
	}
	var closers []func() error
	if *eventsOut != "" {
		f, err := os.Create(*eventsOut)
		if err != nil {
			log.Fatal(err)
		}
		closers = append(closers, f.Close)
		enc := json.NewEncoder(f)
		opts.EventLog = func(e energysched.Event) {
			if err := enc.Encode(e); err != nil {
				log.Fatal(err)
			}
		}
	}
	if *jobsOut != "" {
		f, err := os.Create(*jobsOut)
		if err != nil {
			log.Fatal(err)
		}
		closers = append(closers, f.Close)
		opts.JobsCSV = f
	}
	if *powerOut != "" {
		f, err := os.Create(*powerOut)
		if err != nil {
			log.Fatal(err)
		}
		w := bufio.NewWriter(f)
		closers = append(closers, w.Flush, f.Close) // flush, then close
		if _, err := fmt.Fprintln(w, "time_s,watts"); err != nil {
			log.Fatal(err)
		}
		opts.PowerTrace = func(t, watts float64) {
			fmt.Fprintf(w, "%.3f,%.1f\n", t, watts)
		}
	}
	res, err := energysched.RunStream(opts, src)
	if err != nil {
		log.Fatal(err)
	}
	for _, c := range closers {
		if err := c(); err != nil {
			log.Fatal(err)
		}
	}
	// The workload is streamed, never held, so its totals are known only
	// once the run has consumed it.
	fmt.Printf("workload: %d jobs, %.1f CPU-hours over %.1f days\n",
		res.JobsTotal, res.CPUHours, res.SimEnd/86400)
	fmt.Println(metrics.TableHeader())
	fmt.Println(res)
	if res.Failures > 0 {
		fmt.Printf("failures injected: %d\n", res.Failures)
	}
}

// loadSource opens the workload as an incremental source, so week-long
// files feed the run in O(1) memory. File sources are read lazily; the
// file closes with the process.
func loadSource(csvPath, gwfPath string, days float64, seed int64) (energysched.JobSource, error) {
	switch {
	case csvPath != "" && gwfPath != "":
		return nil, fmt.Errorf("give either -trace or -gwf, not both")
	case csvPath != "":
		f, err := os.Open(csvPath)
		if err != nil {
			return nil, err
		}
		return energysched.StreamTraceCSV(f)
	case gwfPath != "":
		f, err := os.Open(gwfPath)
		if err != nil {
			return nil, err
		}
		return energysched.StreamTraceGWF(f)
	default:
		return energysched.GenerateTraceSource(energysched.TraceOptions{Days: days, Seed: seed})
	}
}
