package simkit

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestEngineRunsEventsInOrder(t *testing.T) {
	e := NewEngine()
	var got []float64
	for _, at := range []float64{5, 1, 3, 2, 4} {
		at := at
		e.Schedule(at, func() { got = append(got, at) })
	}
	e.RunAll()
	if !sort.Float64sAreSorted(got) {
		t.Fatalf("events fired out of order: %v", got)
	}
	if len(got) != 5 {
		t.Fatalf("fired %d events, want 5", len(got))
	}
	if e.Processed() != 5 {
		t.Fatalf("Processed() = %d, want 5", e.Processed())
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(7, func() { got = append(got, i) })
	}
	e.RunAll()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestEngineNowAdvances(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {
		if e.Now() != 10 {
			t.Errorf("Now() inside handler = %v, want 10", e.Now())
		}
		e.Schedule(e.Now()+5, func() {
			if e.Now() != 15 {
				t.Errorf("chained Now() = %v, want 15", e.Now())
			}
		})
	})
	end := e.RunAll()
	if end != 15 {
		t.Fatalf("RunAll returned %v, want 15", end)
	}
}

func TestEngineRunHorizon(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.Schedule(5, func() { fired++ })
	e.Schedule(10, func() { fired++ })
	e.Schedule(20, func() { fired++ })
	now := e.Run(10)
	if fired != 2 {
		t.Fatalf("fired %d events by t=10, want 2 (inclusive horizon)", fired)
	}
	if now != 10 {
		t.Fatalf("Run returned %v, want 10", now)
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", e.Pending())
	}
}

func TestEngineRunEmptyAdvancesToHorizon(t *testing.T) {
	e := NewEngine()
	if got := e.Run(42); got != 42 {
		t.Fatalf("Run(42) on empty queue = %v, want 42", got)
	}
}

func TestTimerCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	timer := e.Schedule(5, func() { fired = true })
	if !timer.Pending() {
		t.Fatal("timer should be pending before firing")
	}
	if !timer.Cancel() {
		t.Fatal("first Cancel should report true")
	}
	if timer.Cancel() {
		t.Fatal("second Cancel should report false")
	}
	e.RunAll()
	if fired {
		t.Fatal("cancelled timer fired")
	}
}

func TestTimerCancelAfterFire(t *testing.T) {
	e := NewEngine()
	timer := e.Schedule(1, func() {})
	e.RunAll()
	if timer.Pending() {
		t.Fatal("fired timer still pending")
	}
	if timer.Cancel() {
		t.Fatal("Cancel after fire should report false")
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.Schedule(5, func() {})
	})
	e.RunAll()
}

func TestScheduleNaNPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("scheduling at NaN did not panic")
		}
	}()
	e.Schedule(math.NaN(), func() {})
}

func TestStop(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.Schedule(1, func() { fired++; e.Stop() })
	e.Schedule(2, func() { fired++ })
	e.RunAll()
	if fired != 1 {
		t.Fatalf("fired %d after Stop, want 1", fired)
	}
	// Run can resume afterwards.
	e.RunAll()
	if fired != 2 {
		t.Fatalf("fired %d after resume, want 2", fired)
	}
}

// Property: for any batch of random schedule times, execution order is
// exactly the sorted order (stable for duplicates).
func TestEngineOrderingProperty(t *testing.T) {
	f := func(times []float64) bool {
		e := NewEngine()
		var want []float64
		var got []float64
		for _, raw := range times {
			at := math.Abs(raw)
			if math.IsNaN(at) || math.IsInf(at, 0) {
				continue
			}
			at = math.Mod(at, 1e6)
			want = append(want, at)
			tt := at
			e.Schedule(tt, func() { got = append(got, tt) })
		}
		e.RunAll()
		sort.Float64s(want)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStreamDeterminism(t *testing.T) {
	a := NewStream(42, "x")
	b := NewStream(42, "x")
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same (seed, name) produced different sequences")
		}
	}
	c := NewStream(42, "y")
	same := true
	a2 := NewStream(42, "x")
	for i := 0; i < 10; i++ {
		if a2.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Fatal("different names produced identical sequences")
	}
}

func TestStreamNormalPositive(t *testing.T) {
	s := NewStream(1, "np")
	for i := 0; i < 1000; i++ {
		if v := s.NormalPositive(40, 2.5); v <= 0 {
			t.Fatalf("NormalPositive returned %v", v)
		}
	}
	// Pathological parameters fall back to the mean.
	if v := s.NormalPositive(-5, 0.001); v != -5 {
		// All draws negative: the documented fallback is the mean.
		t.Fatalf("fallback = %v, want mean -5", v)
	}
}

func TestStreamUniformBounds(t *testing.T) {
	s := NewStream(3, "u")
	for i := 0; i < 1000; i++ {
		v := s.Uniform(1.2, 2.0)
		if v < 1.2 || v >= 2.0 {
			t.Fatalf("Uniform out of range: %v", v)
		}
	}
}

func TestStreamExpMean(t *testing.T) {
	s := NewStream(4, "e")
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += s.Exp(0.5) // mean 2
	}
	mean := sum / n
	if mean < 1.9 || mean > 2.1 {
		t.Fatalf("Exp(0.5) mean = %v, want ≈2", mean)
	}
}

func TestStreamLogNormalMedian(t *testing.T) {
	s := NewStream(5, "ln")
	var vals []float64
	for i := 0; i < 10001; i++ {
		vals = append(vals, s.LogNormal(7.6, 1.25))
	}
	sort.Float64s(vals)
	median := vals[len(vals)/2]
	want := math.Exp(7.6)
	if median < want*0.9 || median > want*1.1 {
		t.Fatalf("lognormal median = %v, want ≈%v", median, want)
	}
}

func TestStreamPerm(t *testing.T) {
	s := NewStream(6, "p")
	p := s.Perm(10)
	seen := make([]bool, 10)
	for _, v := range p {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("invalid permutation %v", p)
		}
		seen[v] = true
	}
}

func TestStreamIntnRange(t *testing.T) {
	s := NewStream(7, "i")
	r := rand.New(rand.NewSource(1)) // independent source for bound picks
	for i := 0; i < 100; i++ {
		n := 1 + r.Intn(50)
		if v := s.Intn(n); v < 0 || v >= n {
			t.Fatalf("Intn(%d) = %d out of range", n, v)
		}
	}
}

// --- fire-and-forget timers (At/After) and timer recycling ---

func TestAtAfterInterleaveWithSchedule(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(3, func() { got = append(got, 3) })
	e.Schedule(1, func() { got = append(got, 1) })
	e.After(2, func() { got = append(got, 2) })
	e.Schedule(3, func() { got = append(got, 4) }) // same time as At(3): FIFO by seq
	e.RunAll()
	want := []int{1, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

func TestAtPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {})
	e.Run(20)
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past did not panic")
		}
	}()
	e.At(5, func() {})
}

// TestAnonTimerRecycled pins the pooling contract: a fired
// fire-and-forget timer goes back to the free list and is handed out
// again, while Schedule timers (whose handle a caller may retain) are
// never recycled.
func TestAnonTimerRecycled(t *testing.T) {
	e := NewEngine()
	e.At(1, func() {})
	e.RunAll()
	if len(e.free) != 1 {
		t.Fatalf("free list = %d timers, want 1", len(e.free))
	}
	recycled := e.free[0]
	e.After(1, func() {})
	if len(e.free) != 0 {
		t.Fatalf("free list not drained on reuse")
	}
	if e.events[0] != recycled {
		t.Error("anonymous timer was not recycled")
	}
	held := e.Schedule(3, func() {})
	e.RunAll()
	if held.Pending() {
		t.Error("fired timer still pending")
	}
	for _, f := range e.free {
		if f == held {
			t.Error("cancellable timer was recycled while its handle is live")
		}
	}
}

// TestEngineSteadyStateAllocations verifies the slab + pool economics:
// a long self-rescheduling chain of fire-and-forget timers reuses one
// timer forever.
func TestEngineSteadyStateAllocations(t *testing.T) {
	e := NewEngine()
	n := 0
	var step func()
	step = func() {
		n++
		if n < 10000 {
			e.After(1, step)
		}
	}
	e.At(0, step)
	e.RunAll()
	if n != 10000 {
		t.Fatalf("chain ran %d steps, want 10000", n)
	}
	// One slab allocation covers the whole chain.
	if len(e.free) != 1 {
		t.Fatalf("free list = %d, want 1 (single recycled timer)", len(e.free))
	}
}

func TestAtFrontBeatsEqualTimeTimers(t *testing.T) {
	e := NewEngine()
	var got []string
	// Normal timers queued first, front timers queued last — the front
	// ones must still fire first at the shared instant, in FIFO order.
	e.Schedule(10, func() { got = append(got, "normal-a") })
	e.At(10, func() { got = append(got, "normal-b") })
	e.AtFront(10, func() { got = append(got, "front-1") })
	e.AtFront(10, func() { got = append(got, "front-2") })
	e.RunAll()
	want := []string{"front-1", "front-2", "normal-a", "normal-b"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestAtFrontDoesNotReorderAcrossTimes(t *testing.T) {
	e := NewEngine()
	var got []float64
	e.Schedule(5, func() { got = append(got, 5) })
	e.AtFront(7, func() { got = append(got, 7) })
	e.RunAll()
	if len(got) != 2 || got[0] != 5 || got[1] != 7 {
		t.Fatalf("order = %v, want [5 7]", got)
	}
}

func TestRunBeforeStopsShortOfBoundary(t *testing.T) {
	e := NewEngine()
	var fired []float64
	for _, at := range []float64{10, 20, 30} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	if now := e.RunBefore(20); now != 20 {
		t.Fatalf("RunBefore(20) = %v, want clock at 20", now)
	}
	if len(fired) != 1 || fired[0] != 10 {
		t.Fatalf("fired = %v, want only the t=10 event", fired)
	}
	// Scheduling at exactly the current clock is allowed; a front
	// timer queued now must still precede the already-queued t=20
	// event when the boundary is crossed later.
	e.AtFront(20, func() { fired = append(fired, -20) })
	e.RunBefore(25)
	if len(fired) != 3 || fired[1] != -20 || fired[2] != 20 {
		t.Fatalf("fired = %v, want [10 -20 20]", fired)
	}
	e.RunAll()
	if len(fired) != 4 || fired[3] != 30 {
		t.Fatalf("fired = %v, want trailing 30", fired)
	}
}

func TestRunBeforeEmptyAdvancesClock(t *testing.T) {
	e := NewEngine()
	if now := e.RunBefore(42); now != 42 {
		t.Fatalf("RunBefore on empty queue = %v, want 42", now)
	}
	// The clock never moves backwards.
	if now := e.RunBefore(41); now != 42 {
		t.Fatalf("RunBefore(41) after 42 = %v, want 42", now)
	}
}

func TestRunBeforeRespectsStop(t *testing.T) {
	e := NewEngine()
	var fired []float64
	e.At(10, func() { fired = append(fired, 10); e.Stop() })
	e.At(20, func() { fired = append(fired, 20) })
	if now := e.RunBefore(100); now != 10 {
		t.Fatalf("stopped RunBefore clock = %v, want 10", now)
	}
	if len(fired) != 1 {
		t.Fatalf("fired = %v, want only t=10", fired)
	}
}

// TestPayloadTimersDoNotAllocate pins the event path's economics: a
// handler bound once plus a pointer-shaped payload schedules and fires
// without a closure, a boxed payload or a method value. Fire-and-forget
// timers recycle one slot forever; cancellable ones are carved from a
// slab, one allocation per timerSlabSize events, which AllocsPerRun's
// whole-number average reads as zero — a closure per event reads as one.
func TestPayloadTimersDoNotAllocate(t *testing.T) {
	type payload struct{ fired int }
	e := NewEngine()
	bump := func(arg any) { arg.(*payload).fired++ }
	p := &payload{}
	var held *Timer
	runs := 0
	allocs := testing.AllocsPerRun(4*timerSlabSize, func() {
		runs++
		e.AtCall(e.Now()+1, bump, p)              // After-style
		e.AtFrontCall(e.Now()+1, bump, p)         // injection
		held = e.ScheduleCall(e.Now()+1, bump, p) // Schedule-style
		e.RunAll()
	})
	if allocs != 0 {
		t.Fatalf("payload timers: %v allocs per round of three events, want 0", allocs)
	}
	if p.fired != 3*runs || held.Pending() {
		t.Fatalf("fired %d payload events in %d rounds", p.fired, runs)
	}
}

// TestCallOrderingSharesTheSequence: payload timers draw from the same
// sequence counter and obey the same front rule as Handler timers, so
// porting a call site from one form to the other cannot reorder events.
func TestCallOrderingSharesTheSequence(t *testing.T) {
	e := NewEngine()
	var got []string
	note := func(arg any) { got = append(got, *arg.(*string)) }
	s := func(v string) *string { return &v }
	e.At(5, func() { got = append(got, "a") })
	e.AtCall(5, note, s("b"))
	e.Schedule(5, func() { got = append(got, "c") })
	e.ScheduleCall(5, note, s("d"))
	e.AtFront(5, func() { got = append(got, "front1") })
	e.AtFrontCall(5, note, s("front2"))
	e.ScheduleCall(5, note, s("cancelled")).Cancel()
	e.RunAll()
	want := []string{"front1", "front2", "a", "b", "c", "d"}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

// TestFiredAnonTimerDropsPayload: a recycled timer sits on the free
// list for as long as the engine lives, so it must not keep its last
// payload — a completed VM, or a closure and everything it captured —
// reachable.
func TestFiredAnonTimerDropsPayload(t *testing.T) {
	e := NewEngine()
	collected := make(chan struct{})
	// Scheduled from a frame of its own so no stack slot of this test
	// keeps the payload alive.
	func() {
		p := &struct{ buf [64]byte }{}
		runtime.SetFinalizer(p, func(any) { close(collected) })
		e.AtCall(1, func(any) {}, p)
	}()
	e.At(2, func() {})
	e.RunAll()
	if len(e.free) != 2 {
		t.Fatalf("free list = %d timers, want 2", len(e.free))
	}
	for _, f := range e.free {
		if f.call != nil || f.arg != nil {
			t.Fatalf("recycled timer still holds call=%v arg=%v", f.call != nil, f.arg)
		}
	}
	deadline := time.After(10 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			runtime.KeepAlive(e)
			return
		case <-deadline:
			t.Fatal("payload of a fired anonymous timer is still reachable from the engine")
		case <-time.After(10 * time.Millisecond):
		}
	}
}
