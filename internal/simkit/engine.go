// Package simkit provides a deterministic discrete-event simulation
// kernel: a virtual clock, an event queue ordered by (time, sequence),
// cancellable timers, and seeded random streams.
//
// It plays the role OMNeT++ plays in the paper: the scheduler and the
// datacenter model are written against this kernel and advance in
// virtual time, so a week of datacenter activity simulates in well
// under a second.
package simkit

import (
	"container/heap"
	"fmt"
	"math"
)

// Handler is a callback executed when an event fires. It runs at the
// event's virtual time; Engine.Now() inside the handler returns that
// time.
type Handler func()

// Timer is a scheduled event. It can be cancelled before it fires;
// cancellation is O(1) (lazy deletion from the heap).
type Timer struct {
	at  float64
	seq uint64
	// call(arg) is the event: a handler bound once by the model plus the
	// payload it acts on. A pointer-shaped payload (*vm.VM, *cluster.Node,
	// a func value) rides in the interface word itself, so scheduling an
	// event allocates nothing. A plain Handler is the payload of the
	// shared runHandler trampoline.
	call      func(any)
	arg       any
	cancelled bool
	fired     bool
	// anon marks a fire-and-forget timer (At, After, AtFront and their
	// Call forms): no handle was returned, so nobody can cancel it or
	// observe it after it fires, and the engine recycles it through the
	// free list.
	anon bool
	// front marks an injection-priority timer (scheduled via AtFront):
	// at equal virtual times it fires before every normal timer,
	// regardless of scheduling order. Front timers order among
	// themselves by sequence, so FIFO injection order is preserved.
	front bool
}

// Time returns the virtual time at which the timer is scheduled.
func (t *Timer) Time() float64 { return t.at }

// Cancel prevents the timer from firing. Cancelling an already-fired
// or already-cancelled timer is a no-op. It reports whether the call
// actually cancelled a pending timer.
func (t *Timer) Cancel() bool {
	if t == nil || t.fired || t.cancelled {
		return false
	}
	t.cancelled = true
	return true
}

// Pending reports whether the timer is still scheduled to fire.
func (t *Timer) Pending() bool { return t != nil && !t.fired && !t.cancelled }

type eventHeap []*Timer

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	if h[i].front != h[j].front {
		return h[i].front
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*Timer)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}

// Engine is a discrete-event simulation engine. The zero value is not
// usable; construct with NewEngine.
//
// Engines are not safe for concurrent use: the simulation model is
// single-threaded by design (event handlers run sequentially in
// deterministic order), which is what makes runs reproducible.
type Engine struct {
	now     float64
	seq     uint64
	events  eventHeap
	stopped bool
	// Processed counts events that have fired (for diagnostics).
	processed uint64
	// slab is the current block timers are carved from: one allocation
	// per timerSlabSize timers instead of one each.
	slab []Timer
	// free holds recycled fire-and-forget timers (see Timer.anon).
	free []*Timer
}

// timerSlabSize is how many timers one slab allocation covers.
const timerSlabSize = 256

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{events: make(eventHeap, 0, 256)}
}

// Now returns the current virtual time, in seconds.
func (e *Engine) Now() float64 { return e.now }

// Processed returns the number of events fired so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of events still queued (including
// cancelled ones not yet discarded).
func (e *Engine) Pending() int { return len(e.events) }

// runHandler is the trampoline every plain Handler is scheduled
// through: the func value itself is the payload.
func runHandler(arg any) { arg.(Handler)() }

// Schedule queues fn to run at absolute virtual time at. Scheduling in
// the past (at < Now) panics: it is always a model bug.
func (e *Engine) Schedule(at float64, fn Handler) *Timer {
	return e.newTimer(at, runHandler, fn, false, false)
}

// ScheduleCall queues call(arg) at absolute virtual time at and returns
// the cancellable handle: Schedule for a handler bound once and a
// payload per event, so the caller builds no closure. Sequence numbers
// come from the same counter as every other scheduling call.
func (e *Engine) ScheduleCall(at float64, call func(any), arg any) *Timer {
	return e.newTimer(at, call, arg, false, false)
}

// At queues fn at absolute virtual time at without returning a handle.
// Timers scheduled this way cannot be cancelled, which lets the engine
// recycle them after they fire: the allocation-free variant for the
// overwhelmingly common fire-and-forget case. Ordering relative to
// Schedule is unchanged (one shared sequence counter).
func (e *Engine) At(at float64, fn Handler) {
	e.newTimer(at, runHandler, fn, true, false)
}

// AtCall is At for a bound handler and a payload; see ScheduleCall.
func (e *Engine) AtCall(at float64, call func(any), arg any) {
	e.newTimer(at, call, arg, true, false)
}

// After queues fn delay seconds after Now without returning a handle;
// see At. Negative delays panic.
func (e *Engine) After(delay float64, fn Handler) {
	e.At(e.now+delay, fn)
}

// AtFront queues fn at absolute virtual time at with injection
// priority: at equal times it fires before every timer scheduled with
// Schedule/At, no matter when either was queued; multiple front timers
// preserve their scheduling (FIFO) order. The datacenter harness uses
// it for workload arrivals so that a job injected online at time t is
// processed exactly as if its arrival had been scheduled before the
// run started — the property that makes live submission byte-identical
// to offline trace replay. Like At, no handle is returned.
func (e *Engine) AtFront(at float64, fn Handler) {
	e.newTimer(at, runHandler, fn, true, true)
}

// AtFrontCall is AtFront for a bound handler and a payload; see
// ScheduleCall.
func (e *Engine) AtFrontCall(at float64, call func(any), arg any) {
	e.newTimer(at, call, arg, true, true)
}

func (e *Engine) newTimer(at float64, call func(any), arg any, anon, front bool) *Timer {
	if at < e.now {
		panic(fmt.Sprintf("simkit: scheduling event at %.6f before now %.6f", at, e.now))
	}
	if math.IsNaN(at) {
		panic("simkit: scheduling event at NaN time")
	}
	e.seq++
	var t *Timer
	if n := len(e.free); anon && n > 0 {
		t = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		if len(e.slab) == 0 {
			e.slab = make([]Timer, timerSlabSize)
		}
		t = &e.slab[0]
		e.slab = e.slab[1:]
	}
	*t = Timer{at: at, seq: e.seq, call: call, arg: arg, anon: anon, front: front}
	heap.Push(&e.events, t)
	return t
}

// Stop makes Run return after the currently executing handler (if any)
// completes. Pending events remain queued.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events in order until the queue empties, the clock
// passes until, or Stop is called. Events scheduled exactly at until
// are executed. It returns the final virtual time.
func (e *Engine) Run(until float64) float64 {
	e.stopped = false
	for len(e.events) > 0 && !e.stopped {
		t := e.events[0]
		if t.cancelled {
			heap.Pop(&e.events)
			continue
		}
		if t.at > until {
			// Do not fire; advance clock to the horizon. The clock
			// never moves backwards, even for a stale horizon.
			if until > e.now {
				e.now = until
			}
			return e.now
		}
		e.fireHead(t)
	}
	if e.now < until && len(e.events) == 0 && !math.IsInf(until, 1) {
		e.now = until
	}
	return e.now
}

// RunBefore executes events in order while they are scheduled strictly
// before t, then advances the clock to t (unless Stop was called, in
// which case the clock stays at the stop point). Events scheduled
// exactly at t remain queued and fire first on a later Run/RunBefore
// past t. This is the advancement primitive for online (live-injected)
// simulations: holding the clock strictly below the admission
// watermark guarantees that every arrival at time t is queued before
// any event at t executes, which keeps live submission byte-identical
// to offline replay.
func (e *Engine) RunBefore(t float64) float64 {
	if math.IsNaN(t) {
		panic("simkit: RunBefore at NaN time")
	}
	e.stopped = false
	for len(e.events) > 0 && !e.stopped {
		head := e.events[0]
		if head.cancelled {
			heap.Pop(&e.events)
			continue
		}
		if head.at >= t {
			break
		}
		e.fireHead(head)
	}
	if !e.stopped && e.now < t {
		e.now = t
	}
	return e.now
}

// fireHead pops and executes the head timer t (which the caller has
// already inspected and decided to fire).
func (e *Engine) fireHead(t *Timer) {
	heap.Pop(&e.events)
	e.now = t.at
	t.fired = true
	e.processed++
	// A fired timer drops its payload: neither the free list nor a
	// retained handle may pin a completed VM.
	call, arg := t.call, t.arg
	t.call, t.arg = nil, nil
	if t.anon {
		// No handle exists, so nothing can observe this timer
		// after it fires: recycle it.
		e.free = append(e.free, t)
	}
	call(arg)
}

// RunAll executes events until the queue drains or Stop is called.
func (e *Engine) RunAll() float64 {
	return e.Run(math.Inf(1))
}
