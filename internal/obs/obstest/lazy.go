// Package obstest holds the marshal-on-read oracle shared by the tests
// of every package that builds an obs.Ring: the ring's payload types
// live in different packages, the contract they must meet is one.
package obstest

import (
	"bytes"
	"testing"

	"energysched/internal/obs"
)

// LazyEqualsEager checks that a ring around encode serves, on every
// path a reader can take, exactly the bytes eager marshalling would
// have stored — want(seq, v), the caller's independent rendering of v
// under its ring-assigned sequence number — and that each event is
// encoded at most once however many readers ask:
//
//   - live fan-out to an attached subscriber: encoded at Emit, and a
//     later Snapshot returns the very same bytes without re-encoding;
//   - with nobody attached Emit encodes nothing; a resume from the
//     middle (?since= / Last-Event-ID) encodes only what it delivers,
//     a Snapshot of everything only the rest, and a Subscribe backlog
//     after that nothing at all.
func LazyEqualsEager[T any](t *testing.T, encode func(seq uint64, v T) []byte, name func(v T) string, want func(seq uint64, v T) []byte, vals []T) {
	t.Helper()
	calls := 0
	counted := func(seq uint64, v T) []byte {
		calls++
		return encode(seq, v)
	}
	check := func(path string, got []obs.RingEvent, first int) {
		t.Helper()
		if len(got) != len(vals)-first {
			t.Fatalf("%s: %d events, want %d", path, len(got), len(vals)-first)
		}
		for i, ev := range got {
			v, seq := vals[first+i], uint64(first+i+1)
			if ev.Seq != seq || ev.Name != name(v) {
				t.Errorf("%s: event %d is (seq %d, %q), want (seq %d, %q)", path, i, ev.Seq, ev.Name, seq, name(v))
			}
			if w := want(seq, v); !bytes.Equal(ev.Data, w) {
				t.Errorf("%s: seq %d bytes differ from eager marshalling:\n got  %s\n want %s", path, seq, ev.Data, w)
			}
		}
	}
	shared := func(path string, a, b []obs.RingEvent) {
		t.Helper()
		for i := range a {
			if &a[i].Data[0] != &b[i].Data[0] {
				t.Errorf("%s: seq %d was handed out as two different byte slices", path, a[i].Seq)
			}
		}
	}

	live := obs.NewRing(len(vals), counted)
	defer live.Close()
	sub, _, _ := live.Subscribe(0)
	var fanned []obs.RingEvent
	for _, v := range vals {
		if live.Emit(name(v), v) == 0 {
			t.Fatalf("live: Emit(%q) dropped the event", name(v))
		}
		fanned = append(fanned, <-sub.Ch)
	}
	check("live fan-out", fanned, 0)
	if calls != len(vals) {
		t.Errorf("live fan-out: %d encodes for %d events", calls, len(vals))
	}
	snap := live.Snapshot(0)
	check("snapshot after fan-out", snap, 0)
	shared("snapshot after fan-out", snap, fanned)
	if calls != len(vals) {
		t.Errorf("snapshot after fan-out re-encoded: %d encodes for %d events", calls, len(vals))
	}

	calls = 0
	lazy := obs.NewRing(len(vals), counted)
	defer lazy.Close()
	for _, v := range vals {
		lazy.Emit(name(v), v)
	}
	if calls != 0 {
		t.Errorf("Emit with no subscriber encoded %d events", calls)
	}
	mid := len(vals) / 2
	resume, tail, gap := lazy.Subscribe(uint64(mid))
	lazy.Unsubscribe(resume)
	check("resume from the middle", tail, mid)
	if gap || calls != len(vals)-mid {
		t.Errorf("resume from the middle: gap=%v, %d encodes for %d delivered events", gap, calls, len(vals)-mid)
	}
	snap = lazy.Snapshot(0)
	check("snapshot", snap, 0)
	shared("snapshot after resume", snap[mid:], tail)
	if calls != len(vals) {
		t.Errorf("snapshot: %d encodes in total for %d events", calls, len(vals))
	}
	fresh, backlog, _ := lazy.Subscribe(0)
	lazy.Unsubscribe(fresh)
	check("subscribe backlog", backlog, 0)
	shared("subscribe backlog", backlog, snap)
	if calls != len(vals) {
		t.Errorf("subscribe backlog re-encoded: %d encodes for %d events", calls, len(vals))
	}
}
