package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"energysched"
)

func testConfig(dir string) Config {
	return Config{
		Sched:            Sched{Policy: "SB", Seed: 1},
		Dir:              dir,
		SnapshotInterval: 8,
		WALSync:          SyncOS, // tests survive process kills, not power loss
	}
}

// testSpec is job i of the package's standard workload: one arrival
// every 30 virtual seconds, CPU cycling through 100/200/300 %.
func testSpec(i int) energysched.JobSpec {
	at := float64(i) * 30
	return energysched.JobSpec{CPU: 100 + float64(i%3)*100, Mem: 5, Duration: 600, Submit: &at}
}

func submitN(t *testing.T, f *Fleet, n, from int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		if _, err := f.Submit(testSpec(i)); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
}

// walInfo reads a durable fleet's counters the way the API serves them:
// the WAL block of Info.
func walInfo(t *testing.T, f *Fleet) energysched.WALStats {
	t.Helper()
	info, err := f.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.WAL == nil {
		t.Fatal("fleet reports no WAL block")
	}
	return *info.WAL
}

// drainedReport runs the same jobs through an in-memory fleet and
// drains it: the uninterrupted reference.
func drainedReport(t *testing.T, n int) energysched.ServiceReport {
	t.Helper()
	ref, err := Open("ref", Config{Sched: Sched{Policy: "SB", Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	submitN(t, ref, n, 0)
	rep, err := ref.Drain()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// The durability contract: kill (close without any explicit
// checkpoint), reopen, and the fleet recovers exactly — with restore
// cost bounded by the snapshot interval, proven by the
// replayed-record counter.
func TestFleetRecoveryReplaysOnlyWALTail(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "f")
	f, err := Open("f", testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	submitN(t, f, 20, 0)
	st := walInfo(t, f)
	// 20 admissions at interval 8: compactions after 8 and 16, 4 in
	// the WAL tail.
	if st.Snapshots != 2 || st.Records != 4 || st.Appended != 20 {
		t.Fatalf("pre-kill stats = %+v", st)
	}
	f.Close() // like a kill: nothing beyond the already-acked WAL is written

	f2, err := Open("f", testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	st2 := walInfo(t, f2)
	if st2.Replayed != 4 {
		t.Fatalf("recovery replayed %d records, want only the 4 after the last snapshot (stats %+v)", st2.Replayed, st2)
	}
	if st2.TornTail {
		t.Fatal("clean shutdown reported a torn tail")
	}
	info, err := f2.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.Jobs != 20 || info.Sealed {
		t.Fatalf("recovered info = %+v", info)
	}
	got, err := f2.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if want := drainedReport(t, 20); got != want {
		t.Fatalf("recovered drain diverged:\n got %+v\nwant %+v", got, want)
	}
}

// A torn final record (the crash-mid-append artifact) is dropped with
// a warning: the fleet recovers the acknowledged prefix.
func TestFleetRecoveryToleratesTornTail(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "f")
	cfg := testConfig(dir)
	cfg.SnapshotInterval = 0 // keep everything in the WAL
	f, err := Open("f", cfg)
	if err != nil {
		t.Fatal(err)
	}
	submitN(t, f, 6, 0)
	f.Close()

	// Corrupt the last record's payload byte.
	walPath := filepath.Join(dir, walName)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0x55
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	var warned bool
	cfg.Logf = func(format string, args ...interface{}) { warned = true }
	f2, err := Open("f", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if !warned {
		t.Error("torn tail recovered without a log line")
	}
	st := walInfo(t, f2)
	if !st.TornTail || st.Replayed != 5 {
		t.Fatalf("torn recovery stats = %+v, want TornTail with 5 replayed", st)
	}
	got, err := f2.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if want := drainedReport(t, 5); got != want {
		t.Fatalf("torn-tail recovery diverged from the 5-job reference:\n got %+v\nwant %+v", got, want)
	}
}

// A drain (workload seal) is durable too: a sealed fleet recovers
// sealed, with the identical final report.
func TestFleetSealSurvivesRestart(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "f")
	f, err := Open("f", testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	submitN(t, f, 5, 0)
	want, err := f.Drain()
	if err != nil {
		t.Fatal(err)
	}
	f.Close()

	f2, err := Open("f", testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	got, err := f2.Report()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("sealed recovery diverged:\n got %+v\nwant %+v", got, want)
	}
	if !got.Final {
		t.Fatal("recovered report is not final")
	}
	if _, err := f2.Submit(energysched.JobSpec{CPU: 100, Mem: 5, Duration: 60}); err == nil {
		t.Fatal("sealed fleet accepted a job after recovery")
	}
}

// The manager's manifest recreates every fleet (with its own config)
// on restart, and Delete removes a fleet's durable state for good.
func TestManagerManifestRecovery(t *testing.T) {
	root := t.TempDir()
	mgr, err := NewManager(Options{Dir: root})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Create("alpha", Config{Sched: Sched{Policy: "SB", Seed: 1}, WALSync: SyncOS}); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Create("beta", Config{Sched: Sched{Policy: "BF", Seed: 7}, WALSync: SyncOS}); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Create("alpha", Config{}); err == nil {
		t.Fatal("duplicate fleet id accepted")
	}
	if _, err := mgr.Create("../evil", Config{}); err == nil {
		t.Fatal("path-traversal fleet id accepted")
	}
	a, _ := mgr.Get("alpha")
	submitN(t, a, 3, 0)
	mgr.Close()

	mgr2, err := NewManager(Options{Dir: root})
	if err != nil {
		t.Fatal(err)
	}
	if mgr2.Len() != 2 {
		t.Fatalf("recovered %d fleets, want 2", mgr2.Len())
	}
	b, err := mgr2.Get("beta")
	if err != nil {
		t.Fatal(err)
	}
	info, err := b.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.Policy != "BF" || info.Seed != 7 {
		t.Fatalf("beta recovered with config %+v", info)
	}
	a2, err := mgr2.Get("alpha")
	if err != nil {
		t.Fatal(err)
	}
	ainfo, err := a2.Info()
	if err != nil {
		t.Fatal(err)
	}
	if ainfo.Jobs != 3 {
		t.Fatalf("alpha recovered %d jobs, want 3", ainfo.Jobs)
	}

	if err := mgr2.Delete("beta"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "beta")); !os.IsNotExist(err) {
		t.Fatalf("beta's durable dir survived delete: %v", err)
	}
	mgr2.Close()

	mgr3, err := NewManager(Options{Dir: root})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr3.Close()
	if mgr3.Len() != 1 || !mgr3.Has("alpha") || mgr3.Has("beta") {
		t.Fatalf("after delete+restart: %d fleets", mgr3.Len())
	}
}

// An API restore may change the fleet's scheduling config; a crash
// after that must recover under the restored config (carried by the
// log's header), not the stale one the fleet was created with.
func TestRecoveryAdoptsRestoredConfig(t *testing.T) {
	snapDir := t.TempDir()

	// Author a BF/seed-5 snapshot with one job.
	author, err := Open("a", Config{Sched: Sched{Policy: "BF", Seed: 5}, SnapshotDir: snapDir})
	if err != nil {
		t.Fatal(err)
	}
	submitN(t, author, 1, 0)
	if _, err := author.Snapshot("bf.snapshot.json"); err != nil {
		t.Fatal(err)
	}
	author.Close()

	// A durable SB fleet restores it, then "crashes".
	dir := filepath.Join(t.TempDir(), "f")
	cfg := testConfig(dir)
	cfg.SnapshotDir = snapDir
	f, err := Open("f", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Restore("bf.snapshot.json"); err != nil {
		t.Fatal(err)
	}
	submitN(t, f, 2, 1) // acknowledged under the restored BF config
	f.Close()

	f2, err := Open("f", cfg) // manager would pass the stale SB config
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	info, err := f2.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.Policy != "BF" || info.Seed != 5 || info.Jobs != 3 {
		t.Fatalf("recovery ignored the restored config: %+v", info)
	}
}

// Two records, two owners: the manifest holds the config a fleet was
// opened with and the registry writes it, the log's header holds the
// config the log replays under and the fleet's event loop writes it. So fleet a's restores to another policy, racing fleet b's
// create/delete manifest rewrites, leave the manifest at a's opened
// config, and a restart still recovers the restored policy, report
// byte for byte. Run under -race: the manifest once read the live
// fleet's config while its loop replaced it.
func TestManifestKeepsOpenedConfigUnderRestores(t *testing.T) {
	root, snapDir := t.TempDir(), t.TempDir()
	author, err := Open("author", Config{Sched: Sched{Policy: "BF", Seed: 5}, SnapshotDir: snapDir})
	if err != nil {
		t.Fatal(err)
	}
	submitN(t, author, 3, 0)
	if _, err := author.Snapshot("bf.json"); err != nil {
		t.Fatal(err)
	}
	author.Close()

	mgr, err := NewManager(Options{Dir: root})
	if err != nil {
		t.Fatal(err)
	}
	a, err := mgr.Create("a", Config{Sched: Sched{Policy: "SB", Seed: 1}, SnapshotDir: snapDir, WALSync: SyncOS})
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 10
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if _, err := a.Restore("bf.json"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if _, err := mgr.Create("b", Config{WALSync: SyncOS}); err != nil {
				t.Error(err)
				return
			}
			if err := mgr.Delete("b"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		mgr.Close()
		return
	}

	manifest, err := readManifest(filepath.Join(root, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	if len(manifest.Fleets) != 1 || manifest.Fleets[0].ID != "a" ||
		manifest.Fleets[0].Config.Policy != "SB" || manifest.Fleets[0].Config.Seed != 1 {
		t.Fatalf("manifest lost a's opened config: %+v", manifest.Fleets)
	}
	info, err := a.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.Policy != "BF" || info.Seed != 5 || info.Jobs != 3 {
		t.Fatalf("restored fleet reports %+v, want the snapshot's BF/5 with 3 jobs", info)
	}
	before, err := a.Report()
	if err != nil {
		t.Fatal(err)
	}
	mgr.Close()

	mgr2, err := NewManager(Options{Dir: root})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	a2, err := mgr2.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if info, err := a2.Info(); err != nil || info.Policy != "BF" || info.Seed != 5 || info.Jobs != 3 {
		t.Fatalf("restart recovered %+v, %v; want the restored BF/5 with 3 jobs", info, err)
	}
	after, err := a2.Report()
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(before)
	gotJSON, _ := json.Marshal(after)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("recovered report drifted:\n got %s\nwant %s", gotJSON, wantJSON)
	}
}

// TestManagerMaxFleets pins the registry cap: Create returns 429 once
// the cap is reached, deleting a fleet frees a slot, SetMaxFleets(0)
// lifts the cap, and fleets present before the cap was installed are
// never evicted by it.
func TestManagerMaxFleets(t *testing.T) {
	mgr, err := NewManager(Options{MaxFleets: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()

	if _, err := mgr.Create("a", Config{Sched: Sched{Policy: "BF"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Create("b", Config{Sched: Sched{Policy: "BF"}}); err != nil {
		t.Fatal(err)
	}
	_, err = mgr.Create("c", Config{Sched: Sched{Policy: "BF"}})
	if err == nil {
		t.Fatal("third fleet admitted past a cap of 2")
	}
	var fe *Error
	if !errors.As(err, &fe) || fe.Status != http.StatusTooManyRequests {
		t.Fatalf("cap error = %v, want status 429", err)
	}
	if mgr.Len() != 2 {
		t.Fatalf("registry len = %d after refused create, want 2", mgr.Len())
	}

	// A freed slot is reusable.
	if err := mgr.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Create("c", Config{Sched: Sched{Policy: "BF"}}); err != nil {
		t.Fatalf("create after delete: %v", err)
	}

	// Lowering the cap below the current population refuses new
	// creates but keeps existing fleets.
	mgr.SetMaxFleets(1)
	if _, err := mgr.Create("d", Config{Sched: Sched{Policy: "BF"}}); err == nil {
		t.Fatal("create admitted with registry above the cap")
	}
	if mgr.Len() != 2 {
		t.Fatalf("cap evicted fleets: len = %d, want 2", mgr.Len())
	}

	// 0 = unlimited.
	mgr.SetMaxFleets(0)
	if _, err := mgr.Create("d", Config{Sched: Sched{Policy: "BF"}}); err != nil {
		t.Fatalf("create after lifting the cap: %v", err)
	}
}
