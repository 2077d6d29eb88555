// Command obstop is a terminal dashboard over a running energyschedd
// daemon's accounting API: it polls the energy/SLA time-series, the
// journey index and the SLO burn-rate alerts, and redraws a compact
// top-style frame — power draw, cumulative energy, SLA fulfillment,
// utilization, node counts, churn, and every objective's verdict with
// a watts sparkline.
//
//	obstop -addr http://localhost:7781
//	obstop -addr http://localhost:7781 -fleet batch -interval 1s
//	obstop -once
//
// -once prints a single frame without clearing the screen and exits —
// for CI smoke tests and piping into logs.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"energysched"
	"energysched/internal/cli"
)

// sparkMax bounds the watts history kept for the sparkline.
const sparkMax = 60

var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// frame is one polled snapshot of the daemon's accounting surface.
type frame struct {
	series      energysched.SeriesSnapshot
	journeys    energysched.JourneysSnapshot
	journeysErr error
	alerts      energysched.AlertsSnapshot
	alertsErr   error
}

// poll gathers one frame. Only the series is fatal: a failed journeys
// or alerts call is carried in the frame and rendered in its panel
// rather than killing the dashboard (a follower mid-promotion answers
// some endpoints before others).
func poll(ctx context.Context, c *energysched.Client, since float64) (frame, error) {
	var f frame
	var err error
	f.series, err = c.Series(ctx, energysched.SeriesQuery{Since: since})
	if err != nil {
		return f, err
	}
	f.journeys, f.journeysErr = c.Journeys(ctx)
	f.alerts, f.alertsErr = c.Alerts(ctx)
	return f, nil
}

// spark renders values as a unicode sparkline, scaled to their own
// range.
func spark(vals []float64) string {
	if len(vals) == 0 {
		return ""
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var b strings.Builder
	for _, v := range vals {
		i := 0
		if hi > lo {
			i = int((v - lo) / (hi - lo) * float64(len(sparkRunes)-1))
		}
		b.WriteRune(sparkRunes[i])
	}
	return b.String()
}

// render writes one dashboard frame. last is the most recent sample
// ever seen (polls return only samples newer than the previous poll).
func render(w *strings.Builder, addr, fleetLabel string, f frame, last energysched.SeriesSample, watts []float64) {
	fmt.Fprintf(w, "energysched obstop — %s fleet %s   vt %.0fs   samples %d\n",
		addr, fleetLabel, last.T, f.series.Count)
	fmt.Fprintf(w, "power   %8.1f W     energy %10.3f kWh   %s\n", last.Watts, last.KWh, spark(watts))
	fmt.Fprintf(w, "sla     %7.2f %%     utilization %6.2f %%\n", last.SLA, last.Utilization)
	fmt.Fprintf(w, "nodes   on %d (working %d)  off %d    queue %d  running %d\n",
		last.On, last.Working, last.Off, last.Queue, last.Running)
	journeys := fmt.Sprint(len(f.journeys.Journeys))
	if f.journeysErr != nil {
		journeys = "unavailable: " + f.journeysErr.Error()
	}
	fmt.Fprintf(w, "churn   migrations %d   completed %d   journeys %s\n",
		last.Migrations, last.Completed, journeys)
	if f.alertsErr != nil {
		fmt.Fprintf(w, "slo     unavailable: %v\n", f.alertsErr)
		return
	}
	if len(f.alerts.Alerts) == 0 {
		fmt.Fprintf(w, "slo     no objectives configured\n")
		return
	}
	fmt.Fprintf(w, "slo     %d firing of %d objectives\n", f.alerts.Firing, len(f.alerts.Alerts))
	for _, a := range f.alerts.Alerts {
		fmt.Fprintf(w, "  [%-7s] %s/%s %s  value %.2f  burn short %.2f long %.2f  fired %d cleared %d\n",
			a.State, a.Fleet, a.Name, a.Metric, a.Value, a.ShortBurn, a.LongBurn,
			a.FiredTotal, a.ClearedTotal)
	}
}

func main() {
	var (
		addr     = flag.String("addr", "http://localhost:7781", "daemon base URL")
		fleetID  = flag.String("fleet", "", "target fleet (empty = the default fleet)")
		interval = flag.Duration("interval", 2*time.Second, "poll and redraw period")
		once     = flag.Bool("once", false, "print one frame and exit (no screen clearing)")
	)
	cli.Parse("obstop")
	if *interval <= 0 {
		cli.Usagef("obstop", "need a positive -interval")
	}

	client := energysched.NewClient(*addr)
	fleetLabel := "default"
	if *fleetID != "" {
		client = client.Fleet(*fleetID)
		fleetLabel = *fleetID
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var watts []float64
	var since float64
	var last energysched.SeriesSample
	draw := func() error {
		f, err := poll(ctx, client, since)
		if err != nil {
			return err
		}
		for _, smp := range f.series.Samples {
			watts = append(watts, smp.Watts)
			last = smp
			since = smp.T + 1e-9 // next poll fetches strictly newer samples
		}
		if len(watts) > sparkMax {
			watts = watts[len(watts)-sparkMax:]
		}
		var b strings.Builder
		if !*once {
			b.WriteString("\x1b[2J\x1b[H") // clear, home
		}
		render(&b, *addr, fleetLabel, f, last, watts)
		_, err = os.Stdout.WriteString(b.String())
		return err
	}

	if err := draw(); err != nil {
		cli.Fatalf("obstop", "daemon unreachable at %s: %v", *addr, err)
	}
	if *once {
		return
	}
	tick := time.NewTicker(*interval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			if err := draw(); err != nil && ctx.Err() == nil {
				fmt.Fprintf(os.Stderr, "obstop: %v\n", err)
			}
		case <-ctx.Done():
			fmt.Println()
			return
		}
	}
}
