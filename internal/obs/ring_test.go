package obs

import (
	"encoding/json"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"
)

// encodeTick renders a tick as its own sequence number; a true
// payload makes the encoder drop the event.
func encodeTick(seq uint64, drop bool) []byte {
	if drop {
		return nil
	}
	return strconv.AppendUint(nil, seq, 10)
}

func newTickRing(depth int) *Ring[bool] { return NewRing(depth, encodeTick) }

func emitN(r *Ring[bool], n int) {
	for i := 0; i < n; i++ {
		r.Emit("tick", false)
	}
}

// A subscriber that never reads is cut loose after exactly
// ringSubBuffer+1 emissions — the first overflow — and the writer is
// never blocked by it.
func TestRingSlowConsumerCutAfterBufferPlusOne(t *testing.T) {
	r := newTickRing(8)
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
	r := newTickRing(4)
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
	r := newTickRing(4)
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
	if seq := r.Emit("tick", false); seq != 0 || r.Seq() != 2 {
		t.Fatalf("Emit on a closed ring returned %d, Seq %d", seq, r.Seq())
	}
}

// A nil payload from the encoder, with a subscriber attached so Emit
// encodes, aborts the emission: nothing is stored or fanned out and
// the sequence number is handed to the next event.
func TestRingNilPayloadRollsSeqBack(t *testing.T) {
	var offered uint64
	r := NewRing(4, func(seq uint64, drop bool) []byte {
		offered = seq
		return encodeTick(seq, drop)
	})
	defer r.Close()
	emitN(r, 1)
	sub, _, _ := r.Subscribe(1)
	defer r.Unsubscribe(sub)
	if seq := r.Emit("tick", true); seq != 0 {
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

// With nobody tailing, Emit on a full ring stores the typed value and
// allocates nothing — the largest payload the daemon emits, action
// records included. A TraceRing borrows a round's actions from the
// solver, so its Emit makes exactly one allocation, the ring's own copy
// of a non-empty action list, and none for a round without one.
func TestRingEmitWithoutSubscriberDoesNotAllocate(t *testing.T) {
	rt := RoundTrace{Round: 1, Solver: "incremental", Moves: 1,
		Actions: []ActionTrace{{Kind: "place", VM: 1, From: -1, To: 2, Terms: &ScoreTerms{Base: 1}}}}
	idle := rt
	idle.Moves, idle.Actions = 0, nil

	r := NewRing(8, encodeRound)
	defer r.Close()
	steady := func(emit func()) float64 {
		for i := 0; i < 8; i++ {
			emit()
		}
		return testing.AllocsPerRun(100, emit)
	}
	if n := steady(func() { r.Emit(EventRound, rt) }); n != 0 {
		t.Fatalf("Ring.Emit with no subscriber allocates %.0f objects per event, want 0", n)
	}

	tr := NewTraceRing(TraceScores, 8)
	defer tr.Close()
	if n := steady(func() { tr.Emit(rt) }); n != 1 {
		t.Fatalf("TraceRing.Emit of a round with actions allocates %.0f objects, want exactly its one copy", n)
	}
	if n := steady(func() { tr.Emit(idle) }); n != 0 {
		t.Fatalf("TraceRing.Emit of a round without actions allocates %.0f objects, want 0", n)
	}

	// The copy is the ring's: the solver reusing its buffer does not
	// reach a retained round.
	rt.Actions[0].VM = 99
	tr.Emit(rt)
	rt.Actions[0].VM = 1
	evs := tr.Snapshot(tr.Seq() - 1)
	var got RoundTrace
	if err := json.Unmarshal(evs[0].Data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Actions[0].VM != 99 {
		t.Fatalf("retained round's action VM = %d after the caller reused its slice, want 99", got.Actions[0].VM)
	}
}

// One emitter against readers that snapshot, resume from where they
// left off, unsubscribe and reset, all at once. Every delivered event
// must carry the bytes of its own sequence number (a cached encoding
// landing in the wrong slot would not), and every hand-off — backlog
// after a resume point, stream after a backlog — is gapless unless
// Subscribe announced a gap. Run under -race.
func TestRingConcurrentResumeIsGaplessOrAnnounced(t *testing.T) {
	r := newTickRing(16)
	intact := func(ev RingEvent) bool { return string(ev.Data) == strconv.FormatUint(ev.Seq, 10) }

	stop := make(chan struct{})
	emitter := make(chan struct{})
	go func() {
		defer close(emitter)
		for {
			select {
			case <-stop:
				return
			default:
				r.Emit("tick", false)
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() { // resumers
			defer wg.Done()
			var last uint64
			for i := 0; i < 300; i++ {
				sub, backlog, gap := r.Subscribe(last)
				if len(backlog) > 0 && last > 0 {
					if first := backlog[0].Seq; (first != last+1) != gap {
						t.Errorf("resume from %d: backlog starts at %d with gap=%v", last, first, gap)
					}
				}
				expect := uint64(0) // unknown: a fresh tail, or an announced gap with nothing retained
				if last > 0 && !gap {
					expect = last + 1
				}
				for _, ev := range backlog {
					if !intact(ev) || (expect != 0 && ev.Seq != expect) {
						t.Errorf("backlog after %d: got seq %d data %q, want seq %d", last, ev.Seq, ev.Data, expect)
					}
					expect = ev.Seq + 1
					last = ev.Seq
				}
				for n := 0; n < 5; n++ {
					ev, ok := <-sub.Ch
					if !ok {
						break // cut loose as a slow consumer: resume from last
					}
					if !intact(ev) || (expect != 0 && ev.Seq != expect) {
						t.Errorf("stream after %d: got seq %d data %q, want seq %d", last, ev.Seq, ev.Data, expect)
					}
					expect = ev.Seq + 1
					last = ev.Seq
				}
				r.Unsubscribe(sub)
			}
		}()
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() { // snapshot readers
			defer wg.Done()
			for i := 0; i < 300; i++ {
				var prev uint64
				for _, ev := range r.Snapshot(0) {
					if !intact(ev) || (prev != 0 && ev.Seq != prev+1) {
						t.Errorf("snapshot: seq %d data %q after seq %d", ev.Seq, ev.Data, prev)
					}
					prev = ev.Seq
				}
			}
		}()
	}
	wg.Add(1)
	go func() { // a restore now and then
		defer wg.Done()
		for i := 0; i < 50; i++ {
			r.Reset()
			runtime.Gosched()
		}
	}()
	wg.Wait()
	close(stop)
	<-emitter
	r.Close()
}
