package fleet

import (
	"net/http"
	"sync"
	"time"

	"energysched/internal/workload"
)

// Warm-standby replication, fleet side. The admission log IS the
// fleet's state (snapshots are event-sourced), so replicating a fleet
// means shipping its WAL records, in order, to a follower that applies
// them through the same deterministic engine. The leader exposes, per
// fleet:
//
//   - a logical record offset: how many log records (admissions + the
//     seal) exist since the fleet's timeline began. Unlike the WAL
//     file's byte offset it never rewinds on compaction, so a follower
//     resumes by record offset across leader compactions and restarts;
//   - a timeline generation, bumped whenever the log stops describing
//     the fleet (an API restore replaces the timeline). A follower
//     whose generation disagrees re-bootstraps from the log's header
//     instead of splicing two histories;
//   - a subscription feed (ReplSubscribe): the bootstrap header or
//     record backlog the caller is missing, then live records as the
//     event loop commits them.
//
// Every record carries the leader's virtual clock at admission time
// (Now). A follower may only advance its own clock to times carried
// by frames: the leader validated every admission against its clock,
// so no future record can have a submit time below a Now the follower
// has already seen — which is exactly the invariant that makes
// incremental apply land on the same timeline as the leader's own
// crash recovery.

// ReplRecord is one replicated log record: the record offset after
// applying it (1-based), the leader's virtual clock at admission, and
// the marshaled walRecord payload — the same bytes the leader wrote to
// its own WAL, so follower WALs are byte-identical.
type ReplRecord struct {
	Offset int64
	Now    float64
	Data   []byte
}

// ReplSession is one follower's view of a fleet's log, returned by
// ReplSubscribe. Exactly one of Header / Backlog covers the gap
// between the caller's offset and Head; Ch then streams live records.
// Ch is closed when the subscriber falls too far behind or the fleet
// shuts down — the caller reconnects and resumes at its applied
// offset.
type ReplSession struct {
	// Gen is the fleet's timeline generation.
	Gen int64
	// Head is the fleet's current log offset.
	Head int64
	// Now is the fleet's virtual clock at subscription.
	Now float64
	// Header, when non-nil, is the state through Head as a log's
	// header frame, framing included: the bytes wal.replace writes for
	// it. Sent when the caller's generation disagrees or its offset
	// cannot be served from the log.
	Header []byte
	// Backlog holds the records after the caller's offset through Head,
	// re-marshaled from the admission log, when it resumes by offset.
	Backlog []ReplRecord
	// Ch streams records committed after Head.
	Ch chan ReplRecord
}

// HeaderLen is the length of Header's payload, 0 without one: what the
// stream's hello announces, so the follower bounds the header by it.
func (s *ReplSession) HeaderLen() int64 {
	if s.Header == nil {
		return 0
	}
	return int64(len(s.Header) - walHeaderSize)
}

// replSubBuffer is each replication subscriber's channel depth: how
// far it may lag the event loop before being cut loose to reconnect.
const replSubBuffer = 1024

// replFeed fans committed log records out to replication sessions.
// publish is only called from the fleet's event loop; the mutex
// guards the subscriber set against concurrent Unsubscribe.
type replFeed struct {
	mu     sync.Mutex
	closed bool
	subs   map[*ReplSession]struct{}
}

func newReplFeed() *replFeed {
	return &replFeed{subs: make(map[*ReplSession]struct{})}
}

func (rf *replFeed) publish(rec ReplRecord) {
	rf.mu.Lock()
	defer rf.mu.Unlock()
	if rf.closed {
		return
	}
	for sess := range rf.subs {
		select {
		case sess.Ch <- rec:
		default:
			// Slow follower: cut it loose so replication never
			// backpressures admissions; it reconnects at its offset.
			delete(rf.subs, sess)
			close(sess.Ch)
		}
	}
}

// live reports whether any session is attached. Sessions only attach
// on the fleet's event loop (ReplSubscribe), so a false read there
// holds until the loop's next turn.
func (rf *replFeed) live() bool {
	rf.mu.Lock()
	defer rf.mu.Unlock()
	return len(rf.subs) > 0
}

func (rf *replFeed) add(sess *ReplSession) {
	rf.mu.Lock()
	defer rf.mu.Unlock()
	if rf.closed {
		close(sess.Ch)
		return
	}
	rf.subs[sess] = struct{}{}
}

func (rf *replFeed) remove(sess *ReplSession) {
	rf.mu.Lock()
	defer rf.mu.Unlock()
	if _, ok := rf.subs[sess]; ok {
		delete(rf.subs, sess)
		close(sess.Ch)
	}
}

// dropAll disconnects every subscriber. With shut false the feed stays
// usable: called when a snapshot replaces the fleet's timeline (API
// restore), so attached followers reconnect, observe the generation
// bump, and re-bootstrap instead of idling on a dead timeline. With
// shut true (fleet close) later subscribers are turned away too.
func (rf *replFeed) dropAll(shut bool) {
	rf.mu.Lock()
	defer rf.mu.Unlock()
	rf.closed = rf.closed || shut
	for sess := range rf.subs {
		delete(rf.subs, sess)
		close(sess.Ch)
	}
}

// logOffset returns the fleet's logical record offset: admissions plus
// the seal. Call only from the event loop.
func (f *Fleet) logOffset() int64 {
	n := int64(f.jobs.Len())
	if f.sim.Sealed() {
		n++
	}
	return n
}

// ReplState reports the fleet's timeline generation, log offset and
// virtual clock.
func (f *Fleet) ReplState() (gen, offset int64, now float64, err error) {
	err = f.do(func() { gen, offset, now = f.gen, f.logOffset(), f.sim.Now() })
	return gen, offset, now, err
}

// ReplSubscribe opens a replication session resuming from the caller's
// (generation, offset). A disagreeing generation, a negative offset or
// an offset past the head cannot be served from the log and bootstraps
// the caller with the log's header instead. Release the session with
// ReplUnsubscribe.
func (f *Fleet) ReplSubscribe(gen, from int64) (*ReplSession, error) {
	sess := &ReplSession{Ch: make(chan ReplRecord, replSubBuffer)}
	err := f.call(func() error {
		sess.Gen = f.gen
		sess.Head = f.logOffset()
		sess.Now = f.sim.Now()
		if gen != f.gen || from < 0 || from > sess.Head {
			header, err := headerFrame(f.snapshotState())
			if err != nil {
				return errf(http.StatusInternalServerError, "encoding replication header: %v", err)
			}
			sess.Header = header
		} else {
			for i := from; i < int64(f.jobs.Len()); i++ {
				payload, err := f.admitRecord(f.jobs.At(int(i)))
				if err != nil {
					return errf(http.StatusInternalServerError, "encoding replication backlog: %v", err)
				}
				// Backlog records carry Now 0: the follower injects them
				// without advancing its clock, then catches up from the
				// ping that follows the backlog on the stream.
				sess.Backlog = append(sess.Backlog, ReplRecord{Offset: i + 1, Data: payload})
			}
			if f.sim.Sealed() && from <= int64(f.jobs.Len()) {
				sess.Backlog = append(sess.Backlog, ReplRecord{Offset: int64(f.jobs.Len()) + 1, Data: sealPayload})
			}
		}
		// Registering inside the event loop makes the header/backlog
		// and the live feed gapless: no record can be committed between
		// the capture and the registration.
		f.repl.add(sess)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return sess, nil
}

// ReplUnsubscribe releases a replication session.
func (f *Fleet) ReplUnsubscribe(sess *ReplSession) {
	f.repl.remove(sess)
}

// ApplyReplHeader replaces the fleet's state with the one a leader's
// log header describes (follower bootstrap). payload is a snapshot
// frame's, decoded as recovery decodes a header. The header's
// generation is adopted verbatim: the follower mirrors the leader's
// timeline, it does not start one. It returns that generation and the
// log offset the header covers.
func (f *Fleet) ApplyReplHeader(payload []byte) (gen, offset int64, err error) {
	snap, err := decodeHeader(payload)
	if err != nil {
		return 0, 0, errf(http.StatusUnprocessableEntity, "decoding replication header: %v", err)
	}
	err = f.call(func() error {
		if err := f.applySnapshot(snap, snap.Gen, "replication bootstrap"); err != nil {
			return err
		}
		gen, offset = f.gen, f.logOffset()
		return nil
	})
	return gen, offset, err
}

// ApplyReplRecord applies one replicated record at the given offset
// and leader clock. The record must be the immediate successor of the
// fleet's log head; a gap or a replay is refused with 409 so the
// follower re-syncs instead of corrupting its timeline. From there the
// record takes the leader's own path — commit, with the leader's
// payload bytes and clock — so durability, apply order and the
// follower's WAL mirror the leader's exactly.
func (f *Fleet) ApplyReplRecord(rec ReplRecord) error {
	return f.call(func() error { return f.applyRecord(rec) })
}

// applyRecord is the follower's half of an admission: the sequence
// checks the leader's validation stands in for, then commit. Call only
// from the event loop.
func (f *Fleet) applyRecord(rec ReplRecord) error {
	defer f.hists.replApply.ObserveSince(time.Now())
	wrec, err := decodeWALRecord(rec.Data)
	if err != nil {
		return errf(http.StatusBadRequest, "decoding replicated record: %v", err)
	}
	cur := f.logOffset()
	if rec.Offset != cur+1 {
		return errf(http.StatusConflict,
			"replication gap: record %d does not follow local offset %d", rec.Offset, cur)
	}
	if f.walBroken {
		return errf(http.StatusInternalServerError, "admission log is broken; fleet is read-only")
	}
	if f.sim.Sealed() {
		return errf(http.StatusConflict, "workload is sealed; no records can follow the seal")
	}
	run := logRun{payloads: [][]byte{rec.Data}, now: rec.Now, stepTo: rec.Now}
	switch wrec.Kind {
	case walKindAdmit:
		if wrec.Job == nil || int64(wrec.Job.ID) != cur {
			return errf(http.StatusUnprocessableEntity, "replicated admit record out of sequence")
		}
		run.jobs = []workload.Job{*wrec.Job}
	case walKindSeal:
		run.seal = true
	default:
		return errf(http.StatusUnprocessableEntity, "unknown replicated record kind %q", wrec.Kind)
	}
	_, err = f.commit(run)
	return err
}

// AdvanceTo moves the fleet's virtual clock to a leader-carried time
// (ping frames). Safe by the replication clock invariant: the leader
// never admits below a clock value it has already published.
func (f *Fleet) AdvanceTo(now float64) error {
	return f.do(func() {
		if now > f.watermark {
			f.watermark = now
			if !f.sim.Done() {
				f.sim.StepBefore(f.watermark)
			}
		}
	})
}

// SealCatchUp finalizes a promotion: the fleet fast-forwards its clock
// to its admission watermark — exactly what crash recovery does — so
// the promoted state is the one the replicated log describes. Returns
// the fleet's log offset.
func (f *Fleet) SealCatchUp() (offset int64, err error) {
	err = f.do(func() {
		f.watermark = maxWatermark(f.watermark, &f.jobs)
		if !f.sim.Done() {
			f.sim.StepBefore(f.watermark)
		}
		offset = f.logOffset()
	})
	return offset, err
}
