package fleet

import (
	"cmp"
	"math"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"energysched"
	"energysched/internal/metrics"
)

// The admission queue and ingest backpressure.
//
// A fleet's event loop serializes everything, which is what makes the
// simulation deterministic. The admission router in this file is the
// one way a job reaches it online: a submitter passes the token bucket,
// takes a slot in one bounded queue and waits; the event loop itself
// receives from that queue (Fleet.loop), gathers everything else
// already waiting (up to maxMergeTurn) and admits it all in one turn,
// in a deterministic order (earliest submit time first, ingest sequence
// as the tie break). Sequential submitters see exactly their own order
// — one request per turn — while N concurrent submitters share a turn.
//
// The same entry point is where ingest hygiene lives: an optional
// token-bucket rate limit (Config.RateLimit/RateBurst) and the bounded
// queue (Config.AdmitQueue) both shed with 429 + Retry-After through
// fleet.Error instead of queueing without bound. A shed request was
// never admitted, never logged, and never acknowledged — zero accepted
// jobs are dropped under overload.

// tokenBucket is a wall-clock token bucket: take withdraws tokens for
// a batch, refilling at rate tokens/second up to burst.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
}

// newTokenBucket returns nil when rate <= 0 (unlimited). A burst <= 0
// defaults to one second's worth of tokens (at least 1), so a full
// bucket always admits at least one job.
func newTokenBucket(rate float64, burst int) *tokenBucket {
	if rate <= 0 {
		return nil
	}
	b := float64(burst)
	if burst <= 0 {
		b = math.Ceil(rate)
	}
	if b < 1 {
		b = 1
	}
	return &tokenBucket{rate: rate, burst: b, tokens: b, last: time.Now()}
}

// take withdraws n tokens. A batch larger than the burst is admitted
// whenever the bucket is full — the bucket goes into debt and later
// requests wait it out — so a single oversized batch cannot be
// rejected forever. On refusal it returns the Retry-After hint in
// whole seconds (>= 1).
func (tb *tokenBucket) take(n int) (retryAfter int, ok bool) {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	now := time.Now()
	tb.tokens = math.Min(tb.burst, tb.tokens+now.Sub(tb.last).Seconds()*tb.rate)
	tb.last = now
	need := float64(n)
	if need > tb.burst {
		need = tb.burst
	}
	if tb.tokens >= need {
		tb.tokens -= float64(n)
		return 0, true
	}
	ra := int(math.Ceil((need - tb.tokens) / tb.rate))
	if ra < 1 {
		ra = 1
	}
	return ra, false
}

// admitRequest is one Submit/SubmitBatch in flight through the router.
// Requests are pooled (admitRequests): a submitter takes one, the event
// loop writes its answer into it, and the submitter puts it back once
// it has read the answer.
type admitRequest struct {
	specs []energysched.JobSpec
	// seq is the monotone ingest sequence, the turn's tie break.
	seq uint64
	// submit is the turn's primary sort key: the batch's first submit
	// time, -Inf for a nil-Submit ("now") request.
	submit float64
	// out receives the admitted jobs' statuses, one per spec; err is the
	// turn's verdict. The event loop writes both before it signals reply.
	out []energysched.JobStatus
	err error
	// reply is buffered (capacity 1) so the event loop never blocks on
	// a submitter that already gave up.
	reply chan struct{}
	// one and oneOut are a single Submit's spec and status, so that
	// specs and out need no storage of their own.
	one    [1]energysched.JobSpec
	oneOut [1]energysched.JobStatus
}

var admitRequests = sync.Pool{New: func() any { return &admitRequest{reply: make(chan struct{}, 1)} }}

// release returns an answered request to the pool. Its submitter must
// have taken the reply: the event loop is done with it then.
func (req *admitRequest) release() {
	reply := req.reply
	*req = admitRequest{reply: reply}
	admitRequests.Put(req)
}

// arbiterKey derives a request's merge-order sort key. Batch submit
// times are validated non-decreasing, so the first spec carries the
// batch's earliest time; a nil Submit means "the current virtual now",
// which must order before any explicit future submit or applying the
// future batch first would advance the clock past it (max pacing) and
// manufacture a spurious 409.
func arbiterKey(specs []energysched.JobSpec) float64 {
	if len(specs) == 0 || specs[0].Submit == nil {
		return math.Inf(-1)
	}
	return *specs[0].Submit
}

// maxMergeTurn bounds how many requests one admission turn applies, so
// a firehose of concurrent submitters cannot starve the event loop's
// other callers (reads, pacing ticks) indefinitely.
const maxMergeTurn = 64

// admitRouter is the admission front end of one fleet: the token bucket
// and the one bounded queue between submit and the event loop.
type admitRouter struct {
	f      *Fleet
	queue  chan *admitRequest
	bucket *tokenBucket // nil = unlimited
	seq    atomic.Uint64

	shedRate   atomic.Uint64 // requests rejected by the token bucket
	shedQueue  atomic.Uint64 // requests rejected by the full queue
	mergeTurns atomic.Uint64 // admission turns the event loop executed
	merged     atomic.Uint64 // requests applied across those turns
}

func newAdmitRouter(f *Fleet) *admitRouter {
	return &admitRouter{
		f: f,
		// AdmitQueue is the backpressure bound: a submitter that finds
		// this many requests already waiting is shed with a 429.
		queue:  make(chan *admitRequest, f.cfg.AdmitQueue),
		bucket: newTokenBucket(f.cfg.RateLimit, f.cfg.RateBurst),
	}
}

// submit runs req through rate limiting and the bounded queue and
// waits for the event loop's answer. On success the caller reads
// req.out and then releases req. On error submit has let go of req
// itself: a shed or refused request goes back to the pool, and one the
// fleet closed under is left to the collector, because the event loop
// may still be writing its answer.
func (r *admitRouter) submit(req *admitRequest) error {
	if err := r.enqueue(req); err != nil {
		req.release()
		return err
	}
	if !r.wait(req) {
		return ErrClosed
	}
	if err := req.err; err != nil {
		req.release()
		return err
	}
	return nil
}

// enqueue passes one request through rate limiting into the bounded
// queue, or sheds it.
func (r *admitRouter) enqueue(req *admitRequest) error {
	if r.bucket != nil && len(req.specs) > 0 {
		if ra, ok := r.bucket.take(len(req.specs)); !ok {
			r.shedRate.Add(1)
			return &Error{Status: http.StatusTooManyRequests,
				Msg: "admission rate limit exceeded", RetryAfter: ra}
		}
	}
	req.seq = r.seq.Add(1)
	req.submit = arbiterKey(req.specs)
	select {
	case r.queue <- req:
		return nil
	default:
		r.shedQueue.Add(1)
		return &Error{Status: http.StatusTooManyRequests,
			Msg: "admission queue full", RetryAfter: 1}
	}
}

// wait reports whether the event loop answered a queued request
// before the fleet closed. A request still queued when the fleet
// closes is never answered: its submitter leaves through stopc.
func (r *admitRouter) wait(req *admitRequest) bool {
	select {
	case <-req.reply:
		return true
	case <-r.f.stopc:
		return false
	}
}

// turn is one admission turn of the event loop, entered with the
// request the loop just received: gather everything else already
// waiting, admit it all in deterministic order, answer each submitter.
// Call only from the event loop.
func (r *admitRouter) turn(first *admitRequest) {
	batch := []*admitRequest{first}
gather:
	for len(batch) < maxMergeTurn {
		select {
		case req := <-r.queue:
			batch = append(batch, req)
		default:
			break gather
		}
	}
	// Deterministic arbitration: earliest submit time first, ingest
	// sequence as the tie break. Under max pacing, applying a
	// later-submit request first would advance virtual time past an
	// earlier-submit one and reject it with a 409 that sequential
	// submission in submit order would never produce.
	slices.SortFunc(batch, func(a, b *admitRequest) int {
		return cmp.Or(cmp.Compare(a.submit, b.submit), cmp.Compare(a.seq, b.seq))
	})
	r.mergeTurns.Add(1)
	r.merged.Add(uint64(len(batch)))
	for _, req := range batch {
		req.err = r.f.admit(req.specs, req.out)
		req.reply <- struct{}{} // capacity 1, one sender: never blocks
	}
}

// metricsSamples appends the router's Prometheus samples: queue depth
// and capacity, shed counters by reason, and merge-turn amortization.
func (r *admitRouter) metricsSamples(in []metrics.PromSample) []metrics.PromSample {
	return append(in,
		metrics.PromSample{Name: "energysched_admit_queue_depth", Help: "Requests waiting in the bounded admission queue.",
			Kind: metrics.PromGauge, Value: float64(len(r.queue))},
		metrics.PromSample{Name: "energysched_admit_queue_capacity", Help: "Bounded depth of the admission queue.",
			Kind: metrics.PromGauge, Value: float64(r.f.cfg.AdmitQueue)},
		metrics.PromSample{Name: "energysched_admit_shed_total", Help: "Admission requests shed with 429 by reason.",
			Kind: metrics.PromCounter, Labels: map[string]string{"reason": "rate"}, Value: float64(r.shedRate.Load())},
		metrics.PromSample{Name: "energysched_admit_shed_total", Help: "Admission requests shed with 429 by reason.",
			Kind: metrics.PromCounter, Labels: map[string]string{"reason": "queue"}, Value: float64(r.shedQueue.Load())},
		metrics.PromSample{Name: "energysched_admit_merge_turns_total", Help: "Event-loop turns executed by the admission merge arbiter.",
			Kind: metrics.PromCounter, Value: float64(r.mergeTurns.Load())},
		metrics.PromSample{Name: "energysched_admit_merged_requests_total", Help: "Admission requests applied across arbiter merge turns.",
			Kind: metrics.PromCounter, Value: float64(r.merged.Load())},
	)
}
