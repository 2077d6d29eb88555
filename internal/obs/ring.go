package obs

import "sync"

// RingEvent is one ring entry: the sequence number, the SSE event name
// it is served under, and a pre-marshaled JSON payload, ready for the
// API to serve without re-encoding.
type RingEvent struct {
	Seq  uint64
	Name string
	Data []byte
}

// ringSubBuffer is each tail subscriber's channel depth: how far a
// consumer may lag the writer before it is disconnected. 256 rides out
// a burst of one large admission batch's lifecycle events without
// cutting a consumer that is merely a scheduling quantum behind.
const ringSubBuffer = 256

// RingSub is one SSE tail consumer's view of a ring's stream. Ch is
// closed when the consumer falls too far behind or the ring closes.
type RingSub struct {
	Ch chan RingEvent
}

// Ring is a bounded ring of pre-marshaled events with SSE-style tail
// subscriptions: the one mechanism behind every stream the daemon
// serves — a fleet's simulation events, its decision log (TraceRing)
// and the job-journey firehose. Emit assigns monotone sequence
// numbers, stores the payload and fans out; a tail consumer that falls
// further behind than its buffer is cut loose rather than allowed to
// stall the writer — the standard slow-consumer contract of event
// streams. Safe for one writer (a fleet's event loop) and any number
// of concurrent readers.
type Ring struct {
	mu      sync.Mutex
	closed  bool
	nextSeq uint64
	ring    []RingEvent // circular; oldest entry at head once full
	head    int
	ringCap int
	subs    map[*RingSub]struct{}
}

// NewRing builds a ring holding the last depth events (default 256
// when depth <= 0).
func NewRing(depth int) *Ring {
	if depth <= 0 {
		depth = 256
	}
	return &Ring{ringCap: depth, subs: make(map[*RingSub]struct{})}
}

// Emit assigns the next sequence number, calls build with it to
// produce the payload (so the payload can embed its own seq), stores
// the event under the SSE event name and forwards it to every live
// subscriber. A nil payload aborts the emission and returns the
// sequence counter to its prior value. Returns the assigned sequence
// number, 0 when nothing was emitted. build is only called, never
// retained, so a closure passed here stays on the caller's stack.
func (r *Ring) Emit(name string, build func(seq uint64) []byte) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return 0
	}
	r.nextSeq++
	data := build(r.nextSeq)
	if data == nil {
		r.nextSeq--
		return 0
	}
	ev := RingEvent{Seq: r.nextSeq, Name: name, Data: data}
	if len(r.ring) < r.ringCap {
		r.ring = append(r.ring, ev)
	} else {
		r.ring[r.head] = ev
		r.head = (r.head + 1) % r.ringCap
	}
	for sub := range r.subs {
		select {
		case sub.Ch <- ev:
		default:
			// Slow tail consumer: cut it loose so a stream never
			// backpressures the writer.
			delete(r.subs, sub)
			close(sub.Ch)
		}
	}
	return ev.Seq
}

// Seq returns the sequence number of the most recent event.
func (r *Ring) Seq() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.nextSeq
}

// Snapshot returns the retained events with sequence number > since,
// oldest first.
func (r *Ring) Snapshot(since uint64) []RingEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.backlogLocked(since)
}

func (r *Ring) backlogLocked(since uint64) []RingEvent {
	var out []RingEvent
	for i := 0; i < len(r.ring); i++ {
		ev := r.ring[(r.head+i)%len(r.ring)] // oldest first
		if ev.Seq > since {
			out = append(out, ev)
		}
	}
	return out
}

// gapLocked reports whether a resume from since would skip evicted
// events: since names a past sequence number whose successor is no
// longer retained. A fresh tail (since 0) or a future/current since is
// never a gap.
func (r *Ring) gapLocked(since uint64) bool {
	if since == 0 || since >= r.nextSeq {
		return false
	}
	if len(r.ring) == 0 {
		return true
	}
	oldest := r.ring[0].Seq
	if len(r.ring) == r.ringCap {
		oldest = r.ring[r.head].Seq
	}
	return oldest > since+1
}

// Subscribe registers a tail consumer and returns it along with the
// backlog of retained events with sequence number > since, and whether
// resuming from since skips evicted events (gap) — callers surface
// that to the consumer instead of silently resuming at the tail.
// Registering and snapshotting under one lock makes the hand-off
// gapless. On a closed ring the subscriber's channel is already closed.
func (r *Ring) Subscribe(since uint64) (*RingSub, []RingEvent, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	backlog := r.backlogLocked(since)
	gap := r.gapLocked(since)
	sub := &RingSub{Ch: make(chan RingEvent, ringSubBuffer)}
	if r.closed {
		close(sub.Ch)
		return sub, backlog, gap
	}
	r.subs[sub] = struct{}{}
	return sub, backlog, gap
}

// Unsubscribe removes the subscriber; safe after a slow-consumer
// disconnect or ring close.
func (r *Ring) Unsubscribe(sub *RingSub) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.subs[sub]; ok {
		delete(r.subs, sub)
		close(sub.Ch)
	}
}

// Reset drops the retained backlog while keeping the sequence counter
// monotone and the subscribers attached, so every earlier resume point
// becomes a gap. A fleet restore calls it: the pre-restore timeline no
// longer describes the fleet's state, and a reconnecting consumer must
// not be served a splice of old and new history.
func (r *Ring) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ring = r.ring[:0]
	r.head = 0
}

// Close disconnects every subscriber and drops future emissions, so
// SSE handlers unblock instead of waiting on a dead stream.
func (r *Ring) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	r.closed = true
	for sub := range r.subs {
		delete(r.subs, sub)
		close(sub.Ch)
	}
}
