package obs

import (
	"sync"

	"energysched/internal/blocks"
)

// RingEvent is one delivered ring entry: the sequence number, the SSE
// event name it is served under, and its JSON payload, ready for the
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

// slot is one retained event: the typed value as emitted, and its JSON
// bytes once some reader has needed them.
type slot[T any] struct {
	seq  uint64
	name string
	val  T
	data []byte // nil until first delivery, then what every reader gets
}

// miss is a backlog entry whose bytes do not exist yet: its position
// in the backlog and the value to encode once the lock is released.
type miss[T any] struct {
	at  int
	val T
}

// Ring is a bounded ring of events with SSE-style tail subscriptions:
// the one mechanism behind every stream the daemon serves — a fleet's
// simulation events, its decision log (TraceRing) and the job-journey
// firehose. It is marshal-on-read: Emit assigns a monotone sequence
// number and stores the typed value, which costs the writer no
// allocation; the JSON bytes are produced on first delivery — at Emit
// when a subscriber is attached (encoded once, fanned out to all),
// otherwise by the first Snapshot or Subscribe backlog that touches
// the slot — and cached there, so every later reader gets the same
// bytes. A tail consumer that falls further behind than its buffer is
// cut loose rather than allowed to stall the writer — the standard
// slow-consumer contract of event streams. Safe for one writer (a
// fleet's event loop) and any number of concurrent readers; values
// must not be mutated after Emit.
type Ring[T any] struct {
	// encode renders a value under its ring-assigned sequence number.
	// It runs outside the lock, and must return the same bytes for the
	// same arguments; nil drops the event.
	encode func(seq uint64, v T) []byte

	mu      sync.Mutex
	closed  bool
	nextSeq uint64
	// slots is circular, ringCap long, grown a block at a time until the
	// ring is full: the n retained entries start at head, which stays 0
	// until then.
	slots   blocks.Store[slot[T]]
	head, n int
	ringCap int
	subs    map[*RingSub]struct{}
}

// NewRing builds a ring holding the last depth events (default 256
// when depth <= 0), rendered by encode when someone reads them.
func NewRing[T any](depth int, encode func(seq uint64, v T) []byte) *Ring[T] {
	if depth <= 0 {
		depth = 256
	}
	return &Ring[T]{encode: encode, slots: blocks.New[slot[T]](depth), ringCap: depth, subs: make(map[*RingSub]struct{})}
}

// Emit assigns the next sequence number, stores v under the SSE event
// name and, when anyone is tailing, encodes it once and forwards it to
// every live subscriber. Returns the assigned sequence number, 0 when
// nothing was emitted (closed ring, or the encoder dropped the event —
// the sequence number then goes to the next event).
func (r *Ring[T]) Emit(name string, v T) uint64 {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return 0
	}
	seq := r.nextSeq + 1
	if len(r.subs) == 0 {
		// Nobody is tailing: keep the value, encode nothing.
		r.storeLocked(slot[T]{seq: seq, name: name, val: v})
		r.mu.Unlock()
		return seq
	}
	// Encode outside the lock so readers never wait on a marshal.
	// There is one writer, so seq is still free when the lock is
	// retaken; whoever subscribed or left meanwhile changes only who
	// receives the bytes.
	r.mu.Unlock()
	data := r.encode(seq, v)
	if data == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return 0
	}
	r.storeLocked(slot[T]{seq: seq, name: name, val: v, data: data})
	ev := RingEvent{Seq: seq, Name: name, Data: data}
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
	return seq
}

func (r *Ring[T]) storeLocked(s slot[T]) {
	r.nextSeq = s.seq
	*r.slots.At((r.head + r.n) % r.ringCap) = s
	if r.n < r.ringCap {
		r.n++
	} else {
		r.head = (r.head + 1) % r.ringCap
	}
}

// Seq returns the sequence number of the most recent event.
func (r *Ring[T]) Seq() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.nextSeq
}

// Snapshot returns the retained events with sequence number > since,
// oldest first.
func (r *Ring[T]) Snapshot(since uint64) []RingEvent {
	r.mu.Lock()
	out, todo := r.backlogLocked(since)
	r.mu.Unlock()
	return r.fill(out, todo)
}

// backlogLocked copies out the retained events after since — exactly
// the copy an eager ring would make — plus the values of those no
// reader has asked for yet, for fill to encode once the lock is
// released.
func (r *Ring[T]) backlogLocked(since uint64) ([]RingEvent, []miss[T]) {
	var out []RingEvent
	var todo []miss[T]
	for i := 0; i < r.n; i++ {
		s := r.slots.At((r.head + i) % r.ringCap) // oldest first
		if s.seq <= since {
			continue
		}
		if s.data == nil {
			todo = append(todo, miss[T]{at: len(out), val: s.val})
		}
		out = append(out, RingEvent{Seq: s.seq, Name: s.name, Data: s.data})
	}
	return out, todo
}

// fill encodes the backlog entries that had no bytes yet, outside the
// lock, then caches them in their slots (unless evicted meanwhile, or
// a concurrent reader got there first — its bytes win, so all readers
// share one copy). Entries the encoder drops are removed.
func (r *Ring[T]) fill(out []RingEvent, todo []miss[T]) []RingEvent {
	if len(todo) == 0 {
		return out
	}
	dropped := false
	for _, m := range todo {
		ev := &out[m.at]
		ev.Data = r.encode(ev.Seq, m.val)
		dropped = dropped || ev.Data == nil
	}
	r.mu.Lock()
	for _, m := range todo {
		ev := &out[m.at]
		if s := r.slotLocked(ev.Seq); s != nil {
			if s.data == nil {
				s.data = ev.Data
			}
			ev.Data = s.data
		}
	}
	r.mu.Unlock()
	if !dropped {
		return out
	}
	kept := out[:0]
	for _, ev := range out {
		if ev.Data != nil {
			kept = append(kept, ev)
		}
	}
	return kept
}

// slotLocked finds the retained slot holding seq, nil once evicted.
// Retained sequence numbers are contiguous (Emit steps by one, Reset
// drops everything), so the slot's position follows from the oldest.
func (r *Ring[T]) slotLocked(seq uint64) *slot[T] {
	if r.n == 0 {
		return nil
	}
	oldest := r.oldestLocked()
	if seq < oldest || seq-oldest >= uint64(r.n) {
		return nil
	}
	return r.slots.At((r.head + int(seq-oldest)) % r.ringCap)
}

// oldestLocked is the oldest retained sequence number of a non-empty
// ring: head stays 0 until the ring is full.
func (r *Ring[T]) oldestLocked() uint64 { return r.slots.At(r.head).seq }

// gapLocked reports whether a resume from since would skip evicted
// events: since names a past sequence number whose successor is no
// longer retained. A fresh tail (since 0) or a future/current since is
// never a gap.
func (r *Ring[T]) gapLocked(since uint64) bool {
	if since == 0 || since >= r.nextSeq {
		return false
	}
	if r.n == 0 {
		return true
	}
	return r.oldestLocked() > since+1
}

// Subscribe registers a tail consumer and returns it along with the
// backlog of retained events with sequence number > since, and whether
// resuming from since skips evicted events (gap) — callers surface
// that to the consumer instead of silently resuming at the tail.
// Registering and snapshotting under one lock makes the hand-off
// gapless. On a closed ring the subscriber's channel is already closed.
func (r *Ring[T]) Subscribe(since uint64) (*RingSub, []RingEvent, bool) {
	sub := &RingSub{Ch: make(chan RingEvent, ringSubBuffer)}
	r.mu.Lock()
	backlog, todo := r.backlogLocked(since)
	gap := r.gapLocked(since)
	if r.closed {
		close(sub.Ch)
	} else {
		r.subs[sub] = struct{}{}
	}
	r.mu.Unlock()
	return sub, r.fill(backlog, todo), gap
}

// Unsubscribe removes the subscriber; safe after a slow-consumer
// disconnect or ring close.
func (r *Ring[T]) Unsubscribe(sub *RingSub) {
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
func (r *Ring[T]) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := 0; i < r.n; i++ {
		*r.slots.At(i) = slot[T]{} // release the dropped values and their bytes
	}
	r.head, r.n = 0, 0
}

// Close disconnects every subscriber and drops future emissions, so
// SSE handlers unblock instead of waiting on a dead stream.
func (r *Ring[T]) Close() {
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
