// Command tables regenerates the paper's result tables (II–V) on the
// calibrated synthetic Grid week:
//
//	Table II  — static policies without migration (RD, RR, BF, SB0)
//	Table III — score-variant ablation (SB0, SB1, SB2, SB2 @ λ 40-90)
//	Table IV  — migration policies (DBF, SB, SB @ λ 40-90)
//	Table V   — consolidation-cost sweep (Ce/Cf = 0/40, 20/40, 60/100)
//
//	tables            # all four tables
//	tables -table 4   # just Table IV
//	tables -days 1    # quick run on a one-day trace
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"energysched/internal/chaos"
	"energysched/internal/cli"
	"energysched/internal/experiments"
	"energysched/internal/metrics"
	"energysched/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tables: ")

	var (
		table    = flag.Int("table", 0, "table number to run (0 = all of II–V)")
		days     = flag.Float64("days", 7, "days of synthetic workload")
		seed     = flag.Int64("seed", 1, "random seed (single-run mode)")
		replicas = flag.Int("replicas", 1, "replicate each row over this many seeds and report mean ± 95% CI")
		scenario = flag.Bool("scenario", false, "run the chaos scale scenario (streaming trace, injected crashes) instead of the paper tables")
		nodes    = flag.Int("nodes", 10_000, "scenario fleet size (with -scenario)")
	)
	cli.Parse("tables")
	if *table != 0 && (*table < 2 || *table > 5) {
		cli.Usagef("tables", "-table must be 0 (all) or 2, 3, 4 or 5, got %d", *table)
	}

	if *scenario {
		runScenario(*nodes, *days, *seed)
		return
	}

	cfg := workload.DefaultGeneratorConfig()
	cfg.Horizon = *days * 24 * 3600
	cfg.Seed = *seed

	runs := []struct {
		num    int
		title  string
		makers []experiments.SpecMaker
	}{
		{2, "Table II — scheduling results of policies without migration", experiments.TableIIMakers()},
		{3, "Table III — score-based policies without migration", experiments.TableIIIMakers()},
		{4, "Table IV — scheduling results of policies with migration", experiments.TableIVMakers()},
		{5, "Table V — score-based scheduling with different costs", experiments.TableVMakers()},
	}

	if *replicas > 1 {
		fmt.Printf("replicating each row over %d seeded weeks\n", *replicas)
		for _, r := range runs {
			if *table != 0 && *table != r.num {
				continue
			}
			fmt.Printf("\n%s\n", r.title)
			rows, err := experiments.ReplicateTable(r.makers, cfg, experiments.Seeds(*replicas))
			if err != nil {
				log.Fatal(err)
			}
			for _, row := range rows {
				fmt.Println(row)
			}
		}
		return
	}

	trace, err := workload.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload: %d jobs, %.1f CPU-hours\n", trace.Len(), trace.TotalCPUHours())
	for _, r := range runs {
		if *table != 0 && *table != r.num {
			continue
		}
		fmt.Printf("\n%s\n", r.title)
		fmt.Println(metrics.TableHeader())
		for _, m := range r.makers {
			row, err := experiments.RunSpec(m.Make(), trace)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println(row)
		}
	}
}

// runScenario reports the chaos scale scenario the same way the paper
// tables report theirs: one row, its wall time and the injected fault
// count.
func runScenario(nodes int, days float64, seed int64) {
	s := chaos.Scenario10k()
	s.Name = fmt.Sprintf("%dn-%.0fd", nodes, days)
	s.Nodes = nodes
	s.Days = days
	s.Seed = seed

	fmt.Printf("scale scenario %s — %d heterogeneous nodes, %.1f-day streaming trace, %d crashes + %d flapping\n",
		s.Name, s.Nodes, s.Days, s.Crashes, s.Flaps)
	fmt.Println(metrics.TableHeader())
	t0 := time.Now()
	rep, err := s.Run(false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s  (%.2fs)\n", rep, time.Since(t0).Seconds())
	fmt.Printf("failures injected: %d\n", rep.Failures)
}
