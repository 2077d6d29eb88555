package replication

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"energysched/internal/fleet"
)

// The follower's apply loop against a stub leader: an HTTP server whose
// one canned handler writes a replication stream and ends it, so every
// stream the follower opens is one dial.

// stubLeader serves GET /v1/fleets/m/replicate with stream. It returns
// the stub's URL and its count of dials.
func stubLeader(t *testing.T, stream func(w http.ResponseWriter, gen, offset int64)) (string, *atomic.Int64) {
	t.Helper()
	dials := new(atomic.Int64)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/fleets/m/replicate", func(w http.ResponseWriter, r *http.Request) {
		dials.Add(1)
		gen, _ := strconv.ParseInt(r.URL.Query().Get("gen"), 10, 64)
		offset, _ := strconv.ParseInt(r.URL.Query().Get("offset"), 10, 64)
		stream(w, gen, offset)
	})
	hs := httptest.NewServer(mux)
	t.Cleanup(hs.Close)
	return hs.URL, dials
}

// mirrorLoop runs the follower's apply loop for fleet "m", an in-memory
// mirror, against the stub leader, and returns the follower, the mirror
// and the follower's log lines.
func mirrorLoop(t *testing.T, leaderURL string, retryMin, retryMax time.Duration) (*Follower, *fleet.Fleet, func() []string) {
	t.Helper()
	mgr, err := fleet.NewManager(fleet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)
	var mu sync.Mutex
	var logs []string
	fw := NewFollower(Config{
		Leader:       leaderURL,
		Manager:      mgr,
		MirrorConfig: func(string) fleet.Config { return fleet.Config{Sched: fleet.Sched{Policy: "SB", Seed: 1}} },
		retryMin:     retryMin,
		retryMax:     retryMax,
		Logf: func(format string, args ...interface{}) {
			mu.Lock()
			defer mu.Unlock()
			logs = append(logs, fmt.Sprintf(format, args...))
		},
	})
	t.Cleanup(fw.Close)
	fw.ensureLoop("m")
	f, err := mgr.Get("m")
	if err != nil {
		t.Fatal(err)
	}
	return fw, f, func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), logs...)
	}
}

// TestCaughtUpSealedMirrorReconnectsQuietly: a drained leader's stream
// ends (a leader restart does that), and a mirror that holds the seal
// reconnects at its head. The leader has nothing to send it: every
// reconnect is a hello and a ping, and none logs an error.
func TestCaughtUpSealedMirrorReconnectsQuietly(t *testing.T) {
	l := leader(t, 3, "")
	if _, err := l.Drain(); err != nil {
		t.Fatal(err)
	}
	url, dials := stubLeader(t, func(w http.ResponseWriter, gen, offset int64) {
		sess, err := l.ReplSubscribe(gen, offset)
		if err != nil {
			t.Error(err)
			return
		}
		defer l.ReplUnsubscribe(sess)
		if err := WriteHello(w, sess); err != nil {
			return
		}
		for _, rec := range sess.Backlog {
			if err := WriteFrame(w, Frame{Kind: KindRecord, Offset: rec.Offset, Now: rec.Now, Record: rec.Data}); err != nil {
				return
			}
		}
		WriteFrame(w, Frame{Kind: KindPing, Head: sess.Head, Now: sess.Now})
	})
	fw, f, logs := mirrorLoop(t, url, time.Millisecond, 10*time.Millisecond)
	deadline := time.Now().Add(10 * time.Second)
	for dials.Load() < 5 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	fw.Close()
	if n := dials.Load(); n < 5 {
		t.Fatalf("the mirror dialed %d times in 10 s, want 5 reconnects", n)
	}
	if _, off, _, err := f.ReplState(); err != nil || off != 4 {
		t.Fatalf("the mirror is at offset %d (%v), want 4: three jobs and the seal", off, err)
	}
	if got := logs(); len(got) != 1 {
		t.Fatalf("reconnecting at the sealed head logged %q, want only the mirroring line", got)
	}
}

// TestRefusedStreamBacksOff: a leader whose every stream opens with a
// hello and then a record the mirror refuses (a gap) makes no progress,
// so the follower's reconnects back off towards retryMax instead of
// retrying every retryMin: in one second at retryMin 20 ms (some 50
// dials without backoff) it dials a handful of times.
func TestRefusedStreamBacksOff(t *testing.T) {
	url, dials := stubLeader(t, func(w http.ResponseWriter, _, _ int64) {
		WriteFrame(w, Frame{Kind: KindHello, Gen: 1, Head: 5})
		WriteFrame(w, Frame{Kind: KindRecord, Offset: 5,
			Record: []byte(`{"kind":"admit","job":{"id":4,"submit_s":0,"duration_s":600,"cpu_pct":100,"mem_units":5,"deadline_factor":1.5}}`)})
	})
	fw, _, _ := mirrorLoop(t, url, 20*time.Millisecond, 400*time.Millisecond)
	time.Sleep(time.Second)
	fw.Close()
	if n := dials.Load(); n < 2 || n >= 20 {
		t.Fatalf("the follower dialed a refusing leader %d times in a second, want 2 to 19", n)
	}
}
