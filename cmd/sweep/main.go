// Command sweep regenerates Figures 2 and 3: total power consumption
// and client satisfaction of the score-based policy over the
// λmin × λmax threshold grid. Output is CSV (one row per feasible
// cell), ready for any surface-plotting tool.
//
//	sweep                         # the paper's full grid on a week
//	sweep -days 1 -step 20        # coarse quick look
//	sweep -policy BF -o grid.csv
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"

	"energysched"
	"energysched/internal/cli"
	"energysched/internal/experiments"
	"energysched/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sweep: ")

	var (
		days   = flag.Float64("days", 7, "days of synthetic workload")
		seed   = flag.Int64("seed", 1, "random seed")
		step   = flag.Float64("step", 10, "λ grid step in percent")
		policy = flag.String("policy", "SB", "policy to sweep, by its energysched.NewPolicy name: SB, SB0, SB1, SB2, BF, DBF, RR or RD")
		nodes  = flag.Int("nodes", 0, "heterogeneous scale fleet of this many nodes (0 = the paper's 100-node fleet)")
		out    = flag.String("o", "", "output CSV file (empty = stdout)")
	)
	cli.Parse("sweep")
	if !(*step > 0) {
		cli.Usagef("sweep", "-step must be a positive percentage, got %v", *step)
	}

	gen := workload.DefaultGeneratorConfig()
	gen.Horizon = *days * 24 * 3600
	gen.Seed = *seed

	cfg := experiments.SweepConfig{Base: energysched.Options{Policy: *policy, Seed: *seed}}
	if *nodes > 0 {
		cfg.Base.Classes = energysched.ScaleClasses(*nodes)
	}
	trace, err := workload.Generate(gen)
	if err != nil {
		log.Fatal(err)
	}
	for v := 10.0; v <= 90; v += *step {
		cfg.LambdaMins = append(cfg.LambdaMins, v)
	}
	for v := 20.0; v <= 100; v += *step {
		cfg.LambdaMaxs = append(cfg.LambdaMaxs, v)
	}

	points, err := experiments.LambdaSweep(cfg, trace)
	if err != nil {
		log.Fatal(err)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}()
		w = f
	}
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"lambda_min", "lambda_max", "power_kwh", "satisfaction_pct", "avg_working", "avg_online"}); err != nil {
		log.Fatal(err)
	}
	for _, p := range points {
		rec := []string{
			strconv.FormatFloat(p.LambdaMin, 'f', 0, 64),
			strconv.FormatFloat(p.LambdaMax, 'f', 0, 64),
			strconv.FormatFloat(p.PowerKWh, 'f', 1, 64),
			strconv.FormatFloat(p.Satisfaction, 'f', 2, 64),
			strconv.FormatFloat(p.AvgWorking, 'f', 2, 64),
			strconv.FormatFloat(p.AvgOnline, 'f', 2, 64),
		}
		if err := cw.Write(rec); err != nil {
			log.Fatal(err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "sweep: %d feasible cells (Fig. 2 = power column, Fig. 3 = satisfaction column)\n", len(points))
}
