package fleet

import (
	"errors"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"energysched"
)

// The admission router contract: requests that wait together are
// applied in one turn in (submit time, ingest sequence) order, the rate
// limit and the bounded queue shed with honest 429 + Retry-After, and
// no accepted job is ever dropped under concurrency.

func TestTokenBucket(t *testing.T) {
	if tb := newTokenBucket(0, 10); tb != nil {
		t.Fatal("rate 0 should disable the bucket")
	}
	tb := newTokenBucket(10, 5)
	if ra, ok := tb.take(5); !ok || ra != 0 {
		t.Fatalf("full bucket refused a burst-sized batch (ra=%d ok=%v)", ra, ok)
	}
	ra, ok := tb.take(1)
	if ok {
		t.Fatal("empty bucket admitted a job")
	}
	if ra < 1 {
		t.Fatalf("refusal carried Retry-After %d, want >= 1", ra)
	}
	// Refill: at 10 jobs/sec, 300ms buys ~3 tokens.
	time.Sleep(300 * time.Millisecond)
	if _, ok := tb.take(1); !ok {
		t.Fatal("bucket did not refill")
	}
}

func TestTokenBucketOversizedBatchGoesIntoDebt(t *testing.T) {
	tb := newTokenBucket(10, 5)
	// A batch larger than the burst admits against a full bucket (need
	// capped at burst) instead of being rejected forever...
	if _, ok := tb.take(20); !ok {
		t.Fatal("full bucket rejected an oversized batch")
	}
	// ...and the resulting debt throttles what follows.
	if _, ok := tb.take(1); ok {
		t.Fatal("bucket admitted straight after an oversized batch")
	}
}

// TestRateLimitShedsWith429: a rate-limited fleet sheds over-limit
// submits with a 429 fleet.Error carrying a Retry-After hint, and the
// shed counter surfaces on the metrics samples.
func TestRateLimitShedsWith429(t *testing.T) {
	f, err := Open("rl", Config{Sched: Sched{Policy: "SB", Seed: 1}, RateLimit: 5, RateBurst: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	submitN(t, f, 2, 0) // drains the burst
	at := 2.0 * 30
	_, serr := f.Submit(energysched.JobSpec{CPU: 100, Mem: 5, Duration: 600, Submit: &at})
	var fe *Error
	if !errors.As(serr, &fe) || fe.Status != http.StatusTooManyRequests {
		t.Fatalf("over-limit submit error = %v, want a 429 fleet.Error", serr)
	}
	if fe.RetryAfter < 1 {
		t.Fatalf("429 carried Retry-After %d, want >= 1", fe.RetryAfter)
	}
	if f.router.shedRate.Load() == 0 {
		t.Fatal("rate shed not counted")
	}
	// The shed job was never admitted: the fleet still holds exactly
	// the acknowledged two.
	info, err := f.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.Jobs != 2 {
		t.Fatalf("fleet holds %d jobs after a shed, want 2", info.Jobs)
	}
}

// TestAdmitQueueShedsWith429: with the event loop wedged, the bounded
// queue fills and further submits shed with 429 instead of queueing
// without bound.
func TestAdmitQueueShedsWith429(t *testing.T) {
	f, err := Open("bq", Config{Sched: Sched{Policy: "SB", Seed: 1}, AdmitQueue: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// Wedge the event loop so nothing drains the queue: queued requests
	// pile up in it.
	gate := make(chan struct{})
	started := make(chan struct{})
	go f.do(func() { close(started); <-gate })
	<-started

	// Capacity while wedged: the queue's one slot. The rest must shed.
	const inflight = 8
	var wg sync.WaitGroup
	var shed atomic.Int64
	errs := make(chan error, inflight)
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := f.Submit(energysched.JobSpec{CPU: 100, Mem: 5, Duration: 600})
			errs <- err
		}()
	}
	deadline := time.After(10 * time.Second)
	for shed.Load() == 0 {
		select {
		case err := <-errs:
			var fe *Error
			if errors.As(err, &fe) && fe.Status == http.StatusTooManyRequests {
				if fe.RetryAfter != 1 {
					t.Errorf("queue-full 429 carried Retry-After %d, want 1", fe.RetryAfter)
				}
				shed.Add(1)
			}
		case <-deadline:
			t.Fatal("no queue-full 429 within 10s of wedging the event loop")
		}
	}
	close(gate) // unwedge; the remaining submits complete normally
	wg.Wait()
	if f.router.shedQueue.Load() == 0 {
		t.Fatal("queue shed not counted")
	}
}

// TestArbiterTurnSortsBySubmitTime pins the one decision the router
// makes. Requests that wait together are applied in a single event-loop
// turn, and under max pacing applying a later submit time first would
// advance the clock past the earlier ones and 409 them. So: wedge the
// loop with do, queue N requests whose submit times are the reverse of
// their ingest order plus one nil-Submit ("now") request, release, and
// require no rejection, exactly one merged turn of N+1, and a drained
// report equal to submitting the same jobs one at a time in submit
// order.
func TestArbiterTurnSortsBySubmitTime(t *testing.T) {
	const n = 8
	job := func(i int, at *float64) energysched.JobSpec {
		return energysched.JobSpec{CPU: 100 + float64(i%3)*100, Mem: 5, Duration: 600, Submit: at}
	}
	at := func(i int) *float64 { v := float64(i+1) * 30; return &v }

	f, err := Open("arb", Config{Sched: Sched{Policy: "SB", Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	defer release() // before Close, or a failed wait below would hang it
	started := make(chan struct{})
	go f.do(func() { close(started); <-gate })
	<-started

	errs := make(chan error, n+1)
	submit := func(spec energysched.JobSpec) {
		go func() { _, err := f.Submit(spec); errs <- err }()
	}
	waitQueued := func(depth int) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); len(f.router.queue) != depth; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %d queued requests (have %d)", depth, len(f.router.queue))
			}
		}
	}
	// Ingest order: latest submit time first, the nil-Submit request
	// last. One at a time, so ingest sequence == start order.
	for i := n - 1; i >= 0; i-- {
		submit(job(i, at(i)))
		waitQueued(n - i)
	}
	submit(job(n, nil))
	waitQueued(n + 1)
	release()
	for i := 0; i < n+1; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("merged turn rejected a request: %v", err)
		}
	}
	if turns, merged := f.router.mergeTurns.Load(), f.router.merged.Load(); turns != 1 || merged != n+1 {
		t.Fatalf("the loop ran %d turns over %d requests, want one turn of %d", turns, merged, n+1)
	}
	got, err := f.Drain()
	if err != nil {
		t.Fatal(err)
	}

	ref, err := Open("ref", Config{Sched: Sched{Policy: "SB", Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	seq := []energysched.JobSpec{job(n, nil)}
	for i := 0; i < n; i++ {
		seq = append(seq, job(i, at(i)))
	}
	for i, spec := range seq {
		if _, err := ref.Submit(spec); err != nil {
			t.Fatalf("reference submit %d: %v", i, err)
		}
	}
	want, err := ref.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if got != want || got.JobsTotal != n+1 {
		t.Fatalf("merged turn diverged from sequential submit-order admission:\n got %+v\nwant %+v", got, want)
	}
}

// TestConcurrentSubmitDropsNothing: N goroutines hammering one
// fleet with nil-Submit jobs — every acknowledged admission must land
// (zero dropped accepted jobs).
func TestConcurrentSubmitDropsNothing(t *testing.T) {
	f, err := Open("cc", Config{Sched: Sched{Policy: "SB", Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	const workers, perWorker = 8, 25
	var wg sync.WaitGroup
	var accepted atomic.Int64
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// nil Submit = "virtual now": always admissible, so every
				// acknowledgment is an accepted job.
				_, err := f.Submit(energysched.JobSpec{
					CPU: 100 + float64((g+i)%3)*100, Mem: 5, Duration: 600,
				})
				if err != nil {
					t.Errorf("worker %d submit %d: %v", g, i, err)
					return
				}
				accepted.Add(1)
			}
		}(g)
	}
	wg.Wait()
	info, err := f.Info()
	if err != nil {
		t.Fatal(err)
	}
	if int64(info.Jobs) != accepted.Load() || accepted.Load() != workers*perWorker {
		t.Fatalf("fleet holds %d jobs, %d acknowledged, %d submitted — accepted jobs were dropped",
			info.Jobs, accepted.Load(), workers*perWorker)
	}
	if f.router.merged.Load() < workers*perWorker {
		t.Fatalf("the loop merged %d requests, want >= %d", f.router.merged.Load(), workers*perWorker)
	}
}

// TestFaultMidBatchStaysAtomicAndByteIdentical: a WAL disk-full
// fault lands on one request's batch while the requests around it
// succeed. The faulted batch must reject atomically (no partial
// admission), and a kill/reopen must recover byte-identical to an
// in-memory fleet fed only the surviving batches.
func TestFaultMidBatchStaysAtomicAndByteIdentical(t *testing.T) {
	dir := t.TempDir() + "/f"
	var syncs atomic.Int64
	const faultOn = 3 // fail the 3rd batch's WAL flush (one flush per request)
	cfg := testConfig(dir)
	cfg.WALFault = func(op string) error {
		if op == "sync" && syncs.Add(1) == faultOn {
			return errors.New("no space left on device")
		}
		return nil
	}
	f, err := Open("f", cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Five 3-job batches with increasing submit times; sequential, so
	// the flush order is deterministic and batch 3 — and only batch 3 —
	// hits the fault.
	batch := func(from int) []energysched.JobSpec {
		specs := make([]energysched.JobSpec, 3)
		for i := range specs {
			at := float64(from+i) * 30
			specs[i] = energysched.JobSpec{
				CPU: 100 + float64((from+i)%3)*100, Mem: 5, Duration: 600, Submit: &at,
			}
		}
		return specs
	}
	var survived [][]energysched.JobSpec
	for b := 0; b < 5; b++ {
		specs := batch(b * 3)
		_, err := f.SubmitBatch(specs)
		if b == faultOn-1 {
			var fe *Error
			if !errors.As(err, &fe) || fe.Status != http.StatusInternalServerError {
				t.Fatalf("faulted batch error = %v, want a 500", err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		survived = append(survived, specs)
	}
	// Atomicity: 4 surviving batches of 3 — none of the faulted batch's
	// jobs leaked in.
	info, err := f.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.Jobs != 12 {
		t.Fatalf("fleet holds %d jobs after the mid-batch fault, want 12", info.Jobs)
	}
	f.Close()

	// Kill/reopen recovery must be byte-identical to an in-memory fleet
	// fed only the surviving batches.
	f2, err := Open("f", testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	got, err := f2.Drain()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Open("ref", Config{Sched: Sched{Policy: "SB", Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	for _, specs := range survived {
		if _, err := ref.SubmitBatch(specs); err != nil {
			t.Fatal(err)
		}
	}
	want, err := ref.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("post-fault recovery diverged from the surviving batches:\n got %+v\nwant %+v", got, want)
	}
}
