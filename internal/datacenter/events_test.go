package datacenter

import (
	"bytes"
	"strings"
	"testing"

	"energysched/internal/cluster"
	"energysched/internal/core"
	"energysched/internal/policy"
)

func TestEventLogLifecycle(t *testing.T) {
	var events []Event
	trace := miniTrace(job(0, 10, 300, 100, 5, 3))
	sim, err := New(Config{
		Classes:  smallClasses(2),
		Trace:    trace,
		Policy:   policy.NewBackfilling(),
		Seed:     1,
		EventLog: func(e Event) { events = append(events, e) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	counts := map[EventKind]int{}
	lastT := -1.0
	for _, e := range events {
		counts[e.Kind]++
		if e.Time < lastT {
			t.Fatalf("events out of order: %v after %v", e.Time, lastT)
		}
		lastT = e.Time
	}
	for _, want := range []EventKind{EvArrival, EvPlace, EvCreated, EvCompleted, EvBoot, EvBooted} {
		if counts[want] == 0 {
			t.Errorf("no %s event recorded (counts: %v)", want, counts)
		}
	}
	if counts[EvArrival] != 1 || counts[EvCompleted] != 1 {
		t.Errorf("arrival/completed counts: %v", counts)
	}
}

func TestEventLogMigration(t *testing.T) {
	var starts, done int
	jobs := []struct{ id int }{}
	_ = jobs
	trace := miniTrace(
		job(0, 0, 900, 300, 15, 5),
		job(1, 1, 14400, 300, 15, 5),
		job(2, 2, 14400, 100, 5, 5),
	)
	cfg := core.SBConfig()
	cfg.MigrationGainMin = 1
	sim, err := New(Config{
		Classes:     smallClasses(2),
		Trace:       trace,
		Policy:      mustScheduler(cfg),
		Seed:        1,
		StartOnline: true,
		EventLog: func(e Event) {
			switch e.Kind {
			case EvMigrateStart:
				starts++
				if e.Aux < 0 || e.Node < 0 {
					t.Errorf("migration event missing endpoints: %+v", e)
				}
			case EvMigrated:
				done++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if starts == 0 || starts != done {
		t.Errorf("migration events: %d starts, %d completions", starts, done)
	}
}

func TestEventLogFailures(t *testing.T) {
	cls := cluster.PaperClasses()[1]
	cls.Count = 3
	cls.Reliability = 0.7
	var failed, requeued, repaired int
	sim, err := New(Config{
		Classes:         []cluster.Class{cls},
		Trace:           miniTrace(job(0, 0, 4000, 100, 5, 20)),
		Policy:          policy.NewBackfilling(),
		Seed:            5,
		FailuresEnabled: true,
		MTTR:            600,
		StartOnline:     true,
		EventLog: func(e Event) {
			switch e.Kind {
			case EvFailed:
				failed++
			case EvRequeued:
				requeued++
			case EvRepaired:
				repaired++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if failed == 0 || repaired == 0 {
		t.Errorf("failure events: %d failed, %d repaired", failed, repaired)
	}
	if requeued == 0 {
		t.Error("no requeue events despite failures on the hosting fleet")
	}
}

func TestWriteJobsCSV(t *testing.T) {
	trace := miniTrace(job(0, 10, 300, 100, 5, 3), job(1, 20, 300, 200, 10, 3))
	sim, err := New(Config{
		Classes:     smallClasses(2),
		Trace:       trace,
		Policy:      policy.NewBackfilling(),
		Seed:        1,
		StartOnline: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteJobsCSV(&buf, sim.VMs()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d, want header + 2 rows", len(lines))
	}
	if !strings.HasPrefix(lines[0], "id,name,") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "100.000") {
		t.Errorf("row 1 = %q", lines[1])
	}
}
