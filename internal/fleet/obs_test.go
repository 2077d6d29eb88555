package fleet

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"energysched"
	"energysched/internal/datacenter"
	"energysched/internal/metrics"
	"energysched/internal/obs"
	"energysched/internal/obs/obstest"
)

// A live fleet at "scores" verbosity records one decodable round trace
// per solver round, serves them through the snapshot and subscribe
// accessors, and — the determinism contract — produces exactly the
// drained report of a tracerless twin.
func TestFleetTraceRing(t *testing.T) {
	cfg := Config{Sched: Sched{Policy: "SB", Seed: 1}, TraceVerbosity: "scores", TraceDepth: 64}
	f, err := Open("traced", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	sub, backlog, _ := f.Trace().Subscribe(0)
	defer f.Trace().Unsubscribe(sub)
	if len(backlog) != 0 {
		t.Fatalf("fresh fleet has %d backlog traces", len(backlog))
	}

	submitN(t, f, 12, 0)
	rep, err := f.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if want := drainedReport(t, 12); rep != want {
		t.Fatalf("traced drain diverged from tracerless twin:\n got %+v\nwant %+v", rep, want)
	}

	evs := f.Trace().Snapshot(0)
	if len(evs) == 0 {
		t.Fatal("no round traces recorded for a drained workload")
	}
	if f.Trace().Seq() != evs[len(evs)-1].Seq {
		t.Fatalf("TraceSeq %d != last snapshot seq %d", f.Trace().Seq(), evs[len(evs)-1].Seq)
	}
	sawAction := false
	for _, ev := range evs {
		var rt obs.RoundTrace
		if err := json.Unmarshal(ev.Data, &rt); err != nil {
			t.Fatalf("trace %d does not decode: %v", ev.Seq, err)
		}
		if rt.Solver == "" || rt.Hosts <= 0 {
			t.Fatalf("trace %d is malformed: %+v", ev.Seq, rt)
		}
		for _, at := range rt.Actions {
			sawAction = true
			if at.Terms == nil {
				t.Fatalf("trace %d: action without score terms at scores verbosity", ev.Seq)
			}
		}
	}
	if !sawAction {
		t.Fatal("12 placed jobs produced no action traces")
	}
	// The tail subscriber saw the same stream.
	tail := 0
	for range sub.Ch {
		tail++
		if tail == len(evs) {
			break
		}
	}
	if tail != len(evs) {
		t.Fatalf("tail subscriber got %d traces, snapshot has %d", tail, len(evs))
	}

	if got := f.Trace().Verbosity(); got != obs.TraceScores {
		t.Fatalf("TraceVerbosity = %v, want scores", got)
	}
	f.Trace().SetVerbosity(obs.TraceOff)
	if got := f.Trace().Verbosity(); got != obs.TraceOff {
		t.Fatalf("SetVerbosity did not take: %v", got)
	}
}

// A bad verbosity spelling is refused at Open, not at first use.
func TestFleetTraceBadVerbosity(t *testing.T) {
	if _, err := Open("bad", Config{TraceVerbosity: "verbose"}); err == nil {
		t.Fatal("Open accepted an unknown trace verbosity")
	}
}

// Crash recovery must not splice replayed rounds into the trace ring:
// after a kill and reopen, the ring starts empty even though the
// recovered fleet re-ran every scheduling round during replay.
func TestFleetTraceSuppressedDuringReplay(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "f")
	cfg := testConfig(dir)
	cfg.TraceVerbosity = "actions"
	f, err := Open("f", cfg)
	if err != nil {
		t.Fatal(err)
	}
	submitN(t, f, 10, 0)
	if f.Trace().Seq() == 0 {
		t.Fatal("live admissions recorded no traces")
	}
	f.Close()

	f2, err := Open("f", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if n := f2.Trace().Seq(); n != 0 {
		t.Fatalf("recovery replay leaked %d traces into the ring", n)
	}
	// New live rounds trace again.
	submitN(t, f2, 2, 10)
	if f2.Trace().Seq() == 0 {
		t.Fatal("post-recovery admissions recorded no traces")
	}
}

// The fleet's /metrics samples include the latency histogram families
// with observations from a real workload, and they render through
// WriteProm as well-formed histogram expositions.
func TestFleetHistogramMetrics(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "f")
	f, err := Open("f", testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	submitN(t, f, 10, 0)

	samples, err := f.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]float64{}
	for _, s := range samples {
		if s.Kind == metrics.PromHistogram && s.Suffix == "_count" {
			counts[s.Name] = s.Value
		}
	}
	for name, wantObs := range map[string]bool{
		"energysched_admit_batch_seconds":  true,
		"energysched_wal_append_seconds":   true,
		"energysched_solver_round_seconds": true,
		"energysched_sse_fanout_seconds":   true,
		"energysched_repl_apply_seconds":   false, // leader fleet: no replicated records
	} {
		got, ok := counts[name]
		if !ok {
			t.Errorf("metrics missing histogram family %s", name)
			continue
		}
		if wantObs && got == 0 {
			t.Errorf("%s_count = 0, want observations after 10 admissions", name)
		}
	}

	var sb strings.Builder
	if err := metrics.WriteProm(&sb, metrics.MergeByName(samples)); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE energysched_admit_batch_seconds histogram",
		`energysched_admit_batch_seconds_bucket{le="+Inf"}`,
		"energysched_admit_batch_seconds_sum",
		"energysched_admit_batch_seconds_count",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// Every kind of simulation event (and the restore marker) reads back
// from the event ring, on every path, as json.Marshal of the event:
// marshal-on-read serves the bytes eager publishing stored.
func TestEventRingLazyEqualsEager(t *testing.T) {
	kinds := []datacenter.EventKind{
		datacenter.EvArrival, datacenter.EvPlace, datacenter.EvCreated, datacenter.EvMigrateStart,
		datacenter.EvMigrated, datacenter.EvCompleted, datacenter.EvBoot, datacenter.EvBooted,
		datacenter.EvOff, datacenter.EvFailed, datacenter.EvRepaired, datacenter.EvRequeued, "restore",
	}
	var vals []energysched.Event
	for i, k := range kinds {
		vals = append(vals, energysched.Event{Time: 30.5 * float64(i), Kind: k, VM: i - 1, Node: 2 * i, Aux: -1})
	}
	obstest.LazyEqualsEager(t, encodeEvent,
		func(e energysched.Event) string { return string(e.Kind) },
		func(_ uint64, e energysched.Event) []byte {
			data, err := json.Marshal(e)
			if err != nil {
				t.Fatal(err)
			}
			return data
		}, vals)
}

// Publishing an event nobody is tailing costs the event loop no
// allocation.
func TestFleetPublishDoesNotAllocate(t *testing.T) {
	f, err := Open("quiet", Config{Sched: Sched{Policy: "SB", Seed: 1}, EventRing: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	e := energysched.Event{Time: 1, Kind: datacenter.EvArrival, VM: 1, Node: -1, Aux: -1}
	for i := 0; i < 8; i++ {
		f.publish(e) // the ring and the histogram are internally locked
	}
	if n := testing.AllocsPerRun(100, func() { f.publish(e) }); n != 0 {
		t.Fatalf("Fleet.publish with no subscriber allocates %.0f objects per event, want 0", n)
	}
}

// A log record is marshaled only when something will read it: never on
// a fleet with neither a WAL nor a follower, once per job with either —
// and a follower that attaches later is still served the whole log.
func TestAdmitEncodesRecordsOnlyForAReader(t *testing.T) {
	encodes := func(f *Fleet) (n int) {
		t.Helper()
		if err := f.do(func() { n = f.recordEncodes }); err != nil {
			t.Fatal(err)
		}
		return n
	}
	mem, err := Open("mem", Config{Sched: Sched{Policy: "SB", Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	submitN(t, mem, 5, 0)
	if n := encodes(mem); n != 0 {
		t.Fatalf("WAL-less, follower-less fleet marshaled %d log records for 5 jobs", n)
	}

	// A follower arriving now gets the five from the admission log ...
	sess, err := mem.ReplSubscribe(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer mem.ReplUnsubscribe(sess)
	if len(sess.Backlog) != 5 || encodes(mem) != 5 {
		t.Fatalf("late follower: backlog %d, %d encodes, want 5 and 5", len(sess.Backlog), encodes(mem))
	}
	// ... and every later admission live, one encode each, in the bytes
	// a backlog would carry.
	submitN(t, mem, 3, 5)
	if n := encodes(mem); n != 8 {
		t.Fatalf("%d encodes after 3 admissions with a follower attached, want 8", n)
	}
	again, err := mem.ReplSubscribe(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer mem.ReplUnsubscribe(again)
	for i, want := range again.Backlog {
		if got := <-sess.Ch; got.Offset != want.Offset || string(got.Data) != string(want.Data) {
			t.Fatalf("live record %d = offset %d %s, backlog twin = offset %d %s", i, got.Offset, got.Data, want.Offset, want.Data)
		}
	}

	durable, err := Open("durable", testConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer durable.Close()
	submitN(t, durable, 5, 0)
	if n := encodes(durable); n != 5 {
		t.Fatalf("fleet with a WAL marshaled %d log records for 5 jobs", n)
	}
}
