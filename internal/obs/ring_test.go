package obs

import (
	"strconv"
	"testing"
	"time"
)

func emitN(r *Ring, n int) {
	for i := 0; i < n; i++ {
		r.Emit("tick", func(seq uint64) []byte { return strconv.AppendUint(nil, seq, 10) })
	}
}

// A subscriber that never reads is cut loose after exactly
// ringSubBuffer+1 emissions — the first overflow — and the writer is
// never blocked by it.
func TestRingSlowConsumerCutAfterBufferPlusOne(t *testing.T) {
	r := NewRing(8)
	defer r.Close()
	sub, _, _ := r.Subscribe(0)

	done := make(chan struct{})
	go func() {
		defer close(done)
		emitN(r, ringSubBuffer)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Emit blocked on a subscriber that does not read")
	}
	r.mu.Lock()
	_, attached := r.subs[sub]
	r.mu.Unlock()
	if !attached {
		t.Fatalf("subscriber cut after %d emits, before its buffer overflowed", ringSubBuffer)
	}

	emitN(r, 1) // the overflow
	r.mu.Lock()
	_, attached = r.subs[sub]
	r.mu.Unlock()
	if attached {
		t.Fatalf("subscriber still attached after %d emits", ringSubBuffer+1)
	}
	// It keeps what was buffered, in order, then sees the close.
	var last uint64
	for ev := range sub.Ch {
		if ev.Seq != last+1 || ev.Name != "tick" {
			t.Fatalf("buffered event %+v after seq %d", ev, last)
		}
		last = ev.Seq
	}
	if last != ringSubBuffer {
		t.Fatalf("drained up to seq %d, want %d", last, ringSubBuffer)
	}
	r.Unsubscribe(sub) // after the cut: a no-op, not a double close
	if got := r.Seq(); got != ringSubBuffer+1 {
		t.Fatalf("Seq = %d, want %d", got, ringSubBuffer+1)
	}
}

// Reset drops the backlog but not the counter: sequence numbers stay
// monotone, every earlier resume point becomes a gap, and attached
// subscribers keep receiving.
func TestRingResetKeepsSeqMonotoneAndGapsOldResumePoints(t *testing.T) {
	r := NewRing(4)
	defer r.Close()
	emitN(r, 3)
	sub, _, _ := r.Subscribe(3)
	defer r.Unsubscribe(sub)

	r.Reset()
	if got := r.Seq(); got != 3 {
		t.Fatalf("Reset moved Seq to %d", got)
	}
	if evs := r.Snapshot(0); len(evs) != 0 {
		t.Fatalf("Reset retained %d events", len(evs))
	}
	for since := uint64(1); since < 3; since++ {
		s, backlog, gap := r.Subscribe(since)
		r.Unsubscribe(s)
		if !gap || len(backlog) != 0 {
			t.Errorf("since=%d after Reset: gap=%v backlog=%d, want a gap and nothing", since, gap, len(backlog))
		}
	}
	// The head (since == Seq) and a fresh tail are not gaps.
	for _, since := range []uint64{0, 3} {
		s, _, gap := r.Subscribe(since)
		r.Unsubscribe(s)
		if gap {
			t.Errorf("since=%d after Reset reported a gap", since)
		}
	}

	emitN(r, 6) // refill past the cap: the ring wraps cleanly after a reset
	if got := r.Seq(); got != 9 {
		t.Fatalf("Seq = %d after 6 more emits, want 9", got)
	}
	evs := r.Snapshot(0)
	if len(evs) != 4 || evs[0].Seq != 6 || evs[3].Seq != 9 {
		t.Fatalf("post-reset ring = %+v, want seqs 6..9", evs)
	}
	if ev := <-sub.Ch; ev.Seq != 4 {
		t.Fatalf("subscriber attached across Reset got seq %d first, want 4", ev.Seq)
	}
	// Seq 3 was emitted before the reset; resuming from it now skips
	// nothing that still exists only if 4 is retained — it is not.
	if _, _, gap := r.Subscribe(3); !gap {
		t.Error("since=3 with oldest=6 is not reported as a gap")
	}
}

func TestRingSubscribeOnClosedRing(t *testing.T) {
	r := NewRing(4)
	emitN(r, 2)
	r.Close()
	sub, backlog, gap := r.Subscribe(0)
	if _, ok := <-sub.Ch; ok {
		t.Fatal("closed ring handed out an open channel")
	}
	if len(backlog) != 2 || gap {
		t.Fatalf("closed ring backlog=%d gap=%v, want the retained 2 and no gap", len(backlog), gap)
	}
	r.Unsubscribe(sub)
	if seq := r.Emit("tick", func(uint64) []byte { return []byte("x") }); seq != 0 || r.Seq() != 2 {
		t.Fatalf("Emit on a closed ring returned %d, Seq %d", seq, r.Seq())
	}
}

// A nil payload aborts the emission: nothing is stored or fanned out
// and the sequence number is handed to the next event.
func TestRingNilPayloadRollsSeqBack(t *testing.T) {
	r := NewRing(4)
	defer r.Close()
	emitN(r, 1)
	sub, _, _ := r.Subscribe(1)
	defer r.Unsubscribe(sub)
	var offered uint64
	if seq := r.Emit("tick", func(seq uint64) []byte { offered = seq; return nil }); seq != 0 {
		t.Fatalf("aborted Emit returned %d", seq)
	}
	if offered != 2 || r.Seq() != 1 || len(r.Snapshot(0)) != 1 || len(sub.Ch) != 0 {
		t.Fatalf("aborted Emit left traces: offered %d, Seq %d, retained %d, fanned out %d",
			offered, r.Seq(), len(r.Snapshot(0)), len(sub.Ch))
	}
	emitN(r, 1)
	if ev := <-sub.Ch; ev.Seq != 2 {
		t.Fatalf("next event got seq %d, want the rolled-back 2", ev.Seq)
	}
}
