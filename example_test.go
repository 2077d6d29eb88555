package energysched_test

import (
	"fmt"

	"energysched"
)

// Generate a one-day synthetic Grid workload, run it through the
// Backfilling baseline and the paper's score-based policy at the
// balanced thresholds, and compare energy and QoS.
func ExampleRun() {
	trace := energysched.GenerateTrace(energysched.TraceOptions{Days: 1, Seed: 7})
	fmt.Printf("workload: %d jobs, %.1f CPU-hours\n", trace.Len(), trace.TotalCPUHours())

	for _, pol := range []string{"BF", "SB"} {
		res, err := energysched.Run(energysched.Options{
			Policy: pol,
			Trace:  trace,
			// Start booting nodes when 90 % of the online machines are
			// working, start shutting down below 30 %.
			LambdaMin: 30,
			LambdaMax: 90,
		})
		if err != nil {
			fmt.Println(pol, err)
			continue
		}
		fmt.Println(res)
	}
	// Output:
	// workload: 662 jobs, 1370.4 CPU-hours
	// BF     λ=30-90  Work/ON  10.5 / 23.9  CPU   1370.4 h  Pwr   289.5 kWh  S  99.5%  delay   8.1%  mig    0
	// SB     λ=30-90  Work/ON   8.8 / 18.3  CPU   1370.4 h  Pwr   232.7 kWh  S  99.5%  delay   8.5%  mig  133
}
