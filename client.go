package energysched

// This file is the public surface of the energyschedd service: the
// wire types of its HTTP/JSON API and a small client for them. The
// server side lives in internal/server and marshals exactly these
// structs — where a payload is produced deeper in the daemon (decision
// traces, accounting samples, journeys, alerts) the public name is an
// alias of the struct that layer marshals — so client and daemon cannot
// drift apart.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"energysched/internal/bodybuf"
	"energysched/internal/obs"
)

// JobSpec is the body of POST /v1/jobs: one HPC job to admit into the
// live scheduler.
type JobSpec struct {
	// Name is an optional label.
	Name string `json:"name,omitempty"`
	// CPU requirement in percent (100 = one core). Required.
	CPU float64 `json:"cpu_pct"`
	// Mem requirement in abstract units (a node offers 100).
	Mem float64 `json:"mem_units"`
	// Duration is the execution time on a dedicated machine, seconds.
	// Required.
	Duration float64 `json:"duration_s"`
	// Submit is the virtual arrival time in seconds. Omitted (nil), it
	// defaults to the daemon's current virtual time. It must not be in
	// the daemon's virtual past.
	Submit *float64 `json:"submit_s,omitempty"`
	// DeadlineFactor multiplies Duration to produce the SLA deadline
	// (0 = default 1.5, the middle of the paper's 1.2–2.0 band).
	DeadlineFactor float64 `json:"deadline_factor,omitempty"`
	// FaultTolerance is the job's Ftol in [0, 1].
	FaultTolerance float64 `json:"fault_tolerance,omitempty"`
	// Arch pins the job to an architecture ("" = any).
	Arch string `json:"arch,omitempty"`
	// Hypervisor pins the job to a hypervisor ("" = any).
	Hypervisor string `json:"hypervisor,omitempty"`
}

// JobStatus describes one admitted job (GET /v1/jobs/{id}, and the
// response of POST /v1/jobs).
type JobStatus struct {
	ID             int     `json:"id"`
	Name           string  `json:"name,omitempty"`
	State          string  `json:"state"`
	Host           int     `json:"host"`       // hosting node, -1 = none
	Submit         float64 `json:"submit_s"`   // virtual arrival time
	Duration       float64 `json:"duration_s"` // dedicated-machine runtime
	Deadline       float64 `json:"deadline_s"` // absolute SLA deadline
	ProgressPct    float64 `json:"progress_pct"`
	Start          float64 `json:"start_s"`  // first running, -1 = never
	Finish         float64 `json:"finish_s"` // completion, -1 = not yet
	Migrations     int     `json:"migrations"`
	Restarts       int     `json:"restarts"`
	CPU            float64 `json:"cpu_pct"`
	Mem            float64 `json:"mem_units"`
	FaultTolerance float64 `json:"fault_tolerance,omitempty"`
}

// NodeStatus describes one physical node (part of GET /v1/cluster).
type NodeStatus struct {
	ID          int     `json:"id"`
	Class       string  `json:"class"`
	State       string  `json:"state"` // off | booting | on | down
	VMs         []int   `json:"vms,omitempty"`
	CPUReserved float64 `json:"cpu_reserved_pct"`
	MemReserved float64 `json:"mem_reserved_units"`
	Occupation  float64 `json:"occupation"`
	Watts       float64 `json:"watts"`
}

// ClusterStatus is the response of GET /v1/cluster: the fleet's power
// states, per-node VM placement and reservation sums.
type ClusterStatus struct {
	Now          float64      `json:"now_s"` // virtual time
	Sealed       bool         `json:"sealed"`
	Done         bool         `json:"done"`
	Queue        []int        `json:"queue,omitempty"` // queued VM IDs, FIFO
	NodesOn      int          `json:"nodes_on"`
	NodesWorking int          `json:"nodes_working"`
	TotalWatts   float64      `json:"total_watts"`
	Nodes        []NodeStatus `json:"nodes"`
}

// ServiceReport is the response of GET /v1/report and POST /v1/drain:
// the paper metrics accumulated so far (or finally, after a drain).
type ServiceReport struct {
	Policy        string  `json:"policy"`
	LambdaMin     float64 `json:"lambda_min_pct"`
	LambdaMax     float64 `json:"lambda_max_pct"`
	AvgWorking    float64 `json:"avg_working_nodes"`
	AvgOnline     float64 `json:"avg_online_nodes"`
	CPUHours      float64 `json:"cpu_hours"`
	EnergyKWh     float64 `json:"energy_kwh"`
	Satisfaction  float64 `json:"satisfaction_pct"`
	Delay         float64 `json:"delay_pct"`
	Migrations    int     `json:"migrations"`
	JobsCompleted int     `json:"jobs_completed"`
	JobsTotal     int     `json:"jobs_total"`
	Failures      int     `json:"failures"`
	SimEnd        float64 `json:"sim_end_s"`
	// Final is true once the workload has been drained: every admitted
	// job completed and the report will not change again.
	Final bool `json:"final"`
	// Table is the report rendered like a row of the paper's tables.
	Table string `json:"table"`
}

// SnapshotInfo is the response of POST /v1/snapshot and /v1/restore.
type SnapshotInfo struct {
	Path   string  `json:"path"`
	Jobs   int     `json:"jobs"`
	Now    float64 `json:"now_s"`
	Sealed bool    `json:"sealed"`
}

// FleetSpec is the body of POST /v1/fleets: a named fleet
// configuration. Unset fields inherit the daemon's base
// configuration (its flags).
type FleetSpec struct {
	// ID names the fleet; it appears in URLs and in the durable
	// layout (1-64 chars of [a-zA-Z0-9._-], starting alphanumeric).
	ID string `json:"id"`
	// Policy selects the scheduler ("" = daemon default).
	Policy string `json:"policy,omitempty"`
	// Seed drives the fleet's stochastic components (0 = default).
	Seed int64 `json:"seed,omitempty"`
	// LambdaMin, LambdaMax override the power-manager thresholds when
	// either is non-zero.
	LambdaMin float64 `json:"lambda_min,omitempty"`
	LambdaMax float64 `json:"lambda_max,omitempty"`
	// Pace overrides the clock pace: nil inherits, <= 0 is max pacing,
	// > 0 is virtual seconds per wall second (at most 1e6).
	Pace *float64 `json:"pace,omitempty"`
	// Failures enables reliability-driven node crashes.
	Failures bool `json:"failures,omitempty"`
	// CheckpointSeconds > 0 checkpoints running VMs periodically, at
	// most once per virtual second.
	CheckpointSeconds float64 `json:"checkpoint_s,omitempty"`
	// AdaptiveTarget > 0 enables dynamic λmin adjustment.
	AdaptiveTarget float64 `json:"adaptive_target,omitempty"`
	// SnapshotInterval > 0 overrides the fewest WAL records that
	// accumulate before the fleet compacts them into a snapshot (a log
	// whose snapshot holds more jobs waits for as many records).
	SnapshotInterval int `json:"snapshot_interval,omitempty"`
	// TraceVerbosity overrides the fleet's decision-trace recording
	// level ("" inherits the daemon's -trace flag): "off", "rounds",
	// "actions" or "scores". Pure observability — any level leaves
	// scheduling byte-identical.
	TraceVerbosity string `json:"trace_verbosity,omitempty"`
	// TraceDepth > 0 overrides how many round traces the fleet retains
	// for GET /trace (default 256).
	TraceDepth int `json:"trace_depth,omitempty"`
	// SeriesDepth > 0 overrides how many accounting samples the fleet
	// retains for GET /series (default 4096).
	SeriesDepth int `json:"series_depth,omitempty"`
	// JourneyDepth > 0 overrides how many job lifecycle journeys the
	// fleet retains for GET /jobs/{id}/journey (default 2048).
	JourneyDepth int `json:"journey_depth,omitempty"`
	// AdmitQueue > 0 bounds the fleet's admission queue (default 256);
	// a full queue sheds submits with 429 + Retry-After.
	AdmitQueue int `json:"admit_queue,omitempty"`
	// RateLimit > 0 throttles the fleet's admissions to this many jobs
	// per second; over-limit submits get 429 + Retry-After.
	RateLimit float64 `json:"rate_limit,omitempty"`
	// RateBurst > 0 sets the admission token bucket's capacity in jobs
	// (default one second's worth of RateLimit).
	RateBurst int `json:"rate_burst,omitempty"`
}

// WALStats describes a fleet's durable admission log (part of
// FleetInfo; only present when the daemon runs with -wal-dir).
type WALStats struct {
	// Records currently in the WAL — what a crash right now would
	// replay on restart.
	Records int `json:"records"`
	// Appended counts records written since the daemon opened the
	// fleet.
	Appended int `json:"appended"`
	// Replayed counts the WAL-tail records applied during crash
	// recovery when the daemon opened the fleet: the admissions after
	// the last compaction snapshot.
	Replayed int `json:"replayed"`
	// Snapshots counts compaction snapshots written since open.
	Snapshots int `json:"snapshots"`
	// TornTail reports that recovery dropped a torn/corrupt final
	// record (the expected artifact of a crash mid-append).
	TornTail bool `json:"torn_tail,omitempty"`
	// TruncatedBytes is how many torn/corrupt tail bytes recovery had
	// to discard (0 for a clean log).
	TruncatedBytes int64 `json:"truncated_bytes,omitempty"`
	// LastSnapshotUnix is the wall-clock time (Unix seconds) of the
	// fleet's newest compaction snapshot, 0 if none exists yet.
	LastSnapshotUnix int64 `json:"last_snapshot_unix,omitempty"`
}

// FleetInfo summarizes one hosted fleet (GET /v1/fleets and
// GET /v1/fleets/{id}).
type FleetInfo struct {
	ID     string  `json:"id"`
	Policy string  `json:"policy"`
	Seed   int64   `json:"seed"`
	Pace   float64 `json:"pace"` // <= 0 = max pacing
	Now    float64 `json:"now_s"`
	Sealed bool    `json:"sealed"`
	Done   bool    `json:"done"`
	Jobs   int     `json:"jobs"`
	// WAL is the durability layer's state; nil when the daemon runs
	// without -wal-dir.
	WAL *WALStats `json:"wal,omitempty"`
}

// ReplicationStatus describes one fleet's replication position (part
// of FleetStatus and HealthStatus).
type ReplicationStatus struct {
	// Gen is the fleet's timeline generation (bumped by API restores;
	// followers re-bootstrap on a generation change).
	Gen int64 `json:"gen"`
	// Offset is the fleet's logical log offset: admissions applied
	// plus the seal. Unlike a WAL byte offset it never rewinds on
	// compaction.
	Offset int64 `json:"offset"`
	// LeaderOffset is the leader's last-known offset for this fleet
	// (follower role only).
	LeaderOffset int64 `json:"leader_offset,omitempty"`
	// Lag is LeaderOffset - Offset (follower role only).
	Lag int64 `json:"lag,omitempty"`
	// LastContactUnix is when the follower last heard from the leader
	// for this fleet, Unix seconds (follower role only).
	LastContactUnix int64 `json:"last_contact_unix,omitempty"`
}

// FleetStatus is the response of GET /v1/fleets/{id}/status: the
// fleet's role and replication position.
type FleetStatus struct {
	ID string `json:"id"`
	// Role is "leader" or "follower".
	Role   string  `json:"role"`
	Now    float64 `json:"now_s"`
	Sealed bool    `json:"sealed"`
	Done   bool    `json:"done"`
	Jobs   int     `json:"jobs"`
	// Replication is the fleet's log position.
	Replication ReplicationStatus `json:"replication"`
	// WAL mirrors FleetInfo.WAL; nil without -wal-dir.
	WAL *WALStats `json:"wal,omitempty"`
	// LastSnapshotAgeSeconds is the age of the newest compaction
	// snapshot, -1 if none exists.
	LastSnapshotAgeSeconds float64 `json:"last_snapshot_age_s"`
}

// HealthStatus is the response of GET /v1/health: the daemon's role
// and, for a follower, its readiness to be promoted.
type HealthStatus struct {
	// Role is "leader" or "follower".
	Role string `json:"role"`
	// Ready means the daemon can serve its role: a leader is always
	// ready; a follower is ready once every known fleet is synced
	// (lag 0) and the leader has been heard from recently.
	Ready bool `json:"ready"`
	// Fleets counts hosted (or mirrored) fleets.
	Fleets int `json:"fleets"`
	// Leader is the leader URL a follower replicates from.
	Leader string `json:"leader,omitempty"`
	// MaxLag is the worst per-fleet replication lag (follower only).
	MaxLag int64 `json:"max_lag,omitempty"`
	// Replication lists per-fleet positions (follower only).
	Replication map[string]ReplicationStatus `json:"replication,omitempty"`
	// Version is the daemon's module version from its embedded build
	// info ("(devel)" for plain builds).
	Version string `json:"version,omitempty"`
	// Revision is the VCS revision the daemon was built from (12 hex
	// digits, "+dirty" when the checkout had local modifications);
	// empty when the build embedded no VCS info.
	Revision string `json:"revision,omitempty"`
	// AlertsFiring counts SLO burn-rate alerts currently firing across
	// every hosted fleet (see GET /v1/alerts).
	AlertsFiring int `json:"alerts_firing"`
}

// PromoteInfo is the response of POST /v1/promote: the follower has
// sealed catch-up and now serves as leader.
type PromoteInfo struct {
	Role string `json:"role"` // always "leader" on success
	// Fleets maps fleet ID to its log offset at promotion.
	Fleets map[string]int64 `json:"fleets"`
}

// TraceRound is one solver round's structured decision trace;
// TraceAction is one applied action and why it won (present at
// "actions" verbosity and up); TraceScoreTerms is the action's score
// decomposition (present at "scores" verbosity).
type (
	TraceRound      = obs.RoundTrace
	TraceAction     = obs.ActionTrace
	TraceScoreTerms = obs.ScoreTerms
)

// TraceSnapshot is the response of GET /v1/fleets/{id}/trace: the
// ring's head sequence, the recording level, and the retained round
// traces oldest first.
type TraceSnapshot struct {
	Seq       uint64       `json:"seq"`
	Verbosity string       `json:"verbosity"`
	Traces    []TraceRound `json:"traces"`
}

// APIError is the error body every endpoint returns on failure.
type APIError struct {
	Status  int    `json:"status"`
	Message string `json:"error"`
}

// Error implements the error interface.
func (e *APIError) Error() string {
	return fmt.Sprintf("energyschedd: %s (http %d)", e.Message, e.Status)
}

// EventGap describes an SSE resume gap: the daemon evicted the events
// between the requested resume point and the oldest it still retains.
type EventGap struct {
	// Requested is the sequence number the consumer resumed from
	// (Last-Event-ID / ?since).
	Requested uint64 `json:"requested"`
	// Oldest is the oldest retained sequence number the stream
	// continues with (0 when nothing is retained).
	Oldest uint64 `json:"oldest"`
}

// GapError is returned by Events, TraceTail and JourneyTail when the
// daemon signals that the requested resume point was evicted from its
// ring: the stream is NOT contiguous with what the consumer saw
// before. Re-sync from a snapshot (Report, TraceSnapshot, Journeys)
// or restart the tail with since=0 instead of trusting the resumed
// stream.
type GapError struct {
	Gap EventGap
}

// Error implements the error interface.
func (e *GapError) Error() string {
	return fmt.Sprintf("energyschedd: stream gap: events (%d, %d) evicted; re-sync from a snapshot",
		e.Gap.Requested, e.Gap.Oldest)
}

// Client talks to an energyschedd daemon. The zero prefix addresses
// the PR 3 alias routes — i.e. the daemon's "default" fleet; Fleet
// rebinds the same methods to a named fleet.
type Client struct {
	// BaseURL is the daemon's root, e.g. "http://localhost:7781".
	BaseURL string
	// HTTPClient overrides http.DefaultClient when non-nil.
	HTTPClient *http.Client
	// Timeout bounds each individual request attempt (not the whole
	// retried call). Zero means no per-request deadline beyond the
	// caller's context.
	Timeout time.Duration
	// Retry enables transparent retries of failed requests. Nil (the
	// default) means no retries: every attempt's outcome is returned
	// to the caller as-is.
	Retry *RetryPolicy

	// prefix is the API mount point: "" means "/v1" (the default
	// fleet), Fleet sets "/v1/fleets/{id}".
	prefix string
	// urls are the URLs of the routes called once per job or per read,
	// built by NewClient and Fleet for the BaseURL they saw.
	urls routeURLs
}

// routeURLs are a client's per-job route URLs and the BaseURL they
// were built for.
type routeURLs struct {
	base, jobs, cluster, report string
}

// RetryPolicy configures the client's opt-in retry behavior: full-
// jitter exponential backoff, honoring 429 Retry-After from the
// daemon's fleet cap. Only transport errors and transient statuses
// (429, 502, 503, 504) are retried — 503 deliberately so: a follower
// rejects writes with 503, and retrying rides out a promotion. Every
// other API error surfaces immediately.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts (first try
	// included). Values < 2 disable retries.
	MaxAttempts int
	// BaseDelay is the first backoff step (default 100ms).
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth (default 5s).
	MaxDelay time.Duration
}

// retryDelay returns the sleep before attempt (1-based, i.e. after
// the attempt-th try failed), applying full jitter; retryAfter, when
// positive, overrides the computed backoff (the server knows best).
func (p *RetryPolicy) retryDelay(attempt int, retryAfter time.Duration) time.Duration {
	if retryAfter > 0 {
		return retryAfter
	}
	base := p.BaseDelay
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	max := p.MaxDelay
	if max <= 0 {
		max = 5 * time.Second
	}
	d := base << uint(attempt-1)
	if d > max || d <= 0 {
		d = max
	}
	// Full jitter: uniform in (0, d]. Decorrelates a thundering herd
	// of clients retrying against a freshly promoted leader.
	return time.Duration(rand.Int63n(int64(d))) + 1
}

// retryableStatus reports whether an HTTP status is worth retrying:
// the PR 5 fleet-cap 429 and the transient 5xx family a follower or
// proxy emits mid-failover.
func retryableStatus(status int) bool {
	switch status {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// parseRetryAfter decodes a Retry-After header. RFC 9110 §10.2.3
// allows both forms: delta-seconds and an HTTP-date. Negative deltas
// and past dates clamp to 0 (retry immediately) rather than being
// ignored or going negative.
func parseRetryAfter(h string) time.Duration {
	h = strings.TrimSpace(h)
	if h == "" {
		return 0
	}
	if secs, err := strconv.Atoi(h); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(h); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}

// NewClient returns a client for the daemon at baseURL.
func NewClient(baseURL string) *Client {
	return (&Client{BaseURL: strings.TrimRight(baseURL, "/")}).bind()
}

// Fleet returns a client whose job/cluster/report/drain/snapshot/
// restore/events calls address the named fleet
// (/v1/fleets/{id}/...). The registry calls (CreateFleet, Fleets,
// GetFleet, DeleteFleet) are fleet-independent and work on any
// client.
func (c *Client) Fleet(id string) *Client {
	return (&Client{
		BaseURL:    c.BaseURL,
		HTTPClient: c.HTTPClient,
		Timeout:    c.Timeout,
		Retry:      c.Retry,
		prefix:     "/v1/fleets/" + url.PathEscape(id),
	}).bind()
}

// bind builds c's route URLs.
func (c *Client) bind() *Client {
	c.urls = routeURLs{base: c.BaseURL, jobs: c.route("/jobs"), cluster: c.route("/cluster"), report: c.route("/report")}
	return c
}

// url is the URL of a daemon-wide path.
func (c *Client) url(path string) string { return c.BaseURL + path }

// route is the URL of a per-fleet route, mounted at the client's
// prefix.
func (c *Client) route(p string) string {
	prefix := c.prefix
	if prefix == "" {
		prefix = "/v1"
	}
	return c.BaseURL + prefix + p
}

// bound returns the route URL u that bind built for p, or builds it
// when BaseURL has changed since (or bind never ran).
func (c *Client) bound(u, p string) string {
	if u == "" || c.urls.base != c.BaseURL {
		return c.route(p)
	}
	return u
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// call performs one API call to u, with retries under the client's
// RetryPolicy: encode appends the request body (nil for none) and
// decode reads a 2xx reply (nil to ignore it).
func (c *Client) call(ctx context.Context, method, u string, encode func([]byte) ([]byte, error), decode func([]byte) error) error {
	var body []byte
	if encode != nil {
		// The transport may still read the body after a response, so the
		// request gets its own copy rather than the pooled buffer.
		err := bodybuf.Encode(encode, func(b []byte) error { body = bytes.Clone(b); return nil })
		if err != nil {
			return fmt.Errorf("energysched: encoding %s %s: %w", method, u, err)
		}
	}
	attempts := 1
	if c.Retry != nil && c.Retry.MaxAttempts > 1 {
		attempts = c.Retry.MaxAttempts
	}
	var lastErr error
	for attempt := 1; ; attempt++ {
		err, retryAfter, retryable := c.attempt(ctx, method, u, body, decode)
		if err == nil {
			return nil
		}
		lastErr = err
		if !retryable || attempt >= attempts {
			return lastErr
		}
		select {
		case <-time.After(c.Retry.retryDelay(attempt, retryAfter)):
		case <-ctx.Done():
			return lastErr
		}
	}
}

// attempt performs one HTTP round trip; a nil body sends none.
// retryable marks transport errors and retryable statuses; retryAfter
// carries a server-provided backoff hint.
func (c *Client) attempt(ctx context.Context, method, u string, body []byte, decode func([]byte) error) (err error, retryAfter time.Duration, retryable bool) {
	actx := ctx
	if c.Timeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, c.Timeout)
		defer cancel()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, u, rd)
	if err != nil {
		return err, 0, false
	}
	if body != nil {
		req.Header["Content-Type"] = jsonContentType
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		// A transport failure (refused, reset, attempt timeout) is
		// retryable unless the caller's own context is done.
		return err, 0, ctx.Err() == nil
	}
	// Drain before closing: a body closed with unread bytes (a reply
	// nobody decodes, the tail of an oversized error payload) forces
	// the transport to tear down the connection instead of returning it
	// to the keep-alive pool — so a retry loop would open a fresh
	// connection per attempt, exactly under the overload that triggers
	// retries. The drain is capped; an implausibly large remainder is
	// cheaper to abandon than to read. A reply decoded without error was
	// read to EOF and has nothing left to drain.
	read := false
	defer func() {
		if !read {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		}
		resp.Body.Close()
	}()
	if resp.StatusCode >= 400 {
		return readAPIError(resp), parseRetryAfter(resp.Header.Get("Retry-After")), retryableStatus(resp.StatusCode)
	}
	if decode == nil {
		return nil, 0, false // deferred drain consumes the body
	}
	// The whole body is the reply: anything but whitespace after the
	// value is an error, not ignored.
	err = bodybuf.Read(resp.Body, resp.ContentLength, 0, decode)
	read = err == nil
	return err, 0, false
}

// readAPIError decodes a failed reply's body, read up to 64 KiB, as
// the APIError every endpoint sends. A body that is not one becomes the
// message as it is; a read error leaves whatever arrived.
func readAPIError(resp *http.Response) *APIError {
	apiErr := &APIError{Status: resp.StatusCode}
	_ = bodybuf.Read(io.LimitReader(resp.Body, 1<<16), resp.ContentLength, 0, func(data []byte) error {
		if apiErr.UnmarshalJSON(data) != nil || apiErr.Message == "" {
			apiErr.Message = strings.TrimSpace(string(data))
		}
		return nil
	})
	return apiErr
}

// jsonContentType is a request body's Content-Type value, shared:
// net/http only reads it.
var jsonContentType = []string{"application/json"}

// jsonBody and jsonReply carry the bodies of the calls whose records
// have no wire codec through encoding/json.
func jsonBody(v any) func([]byte) ([]byte, error) {
	return func(b []byte) ([]byte, error) {
		data, err := json.Marshal(v)
		return append(b, data...), err
	}
}

func jsonReply(v any) func([]byte) error {
	return func(data []byte) error { return json.Unmarshal(data, v) }
}

// SubmitJob admits a job (POST /v1/jobs) and returns its status,
// including the assigned ID.
func (c *Client) SubmitJob(ctx context.Context, spec JobSpec) (JobStatus, error) {
	var st JobStatus
	err := c.call(ctx, http.MethodPost, c.bound(c.urls.jobs, "/jobs"), spec.AppendJSON, st.UnmarshalJSON)
	return st, err
}

// SubmitJobs admits a batch atomically, in order, in a single
// event-loop turn of the fleet (POST /v1/jobs with a JSON array):
// either every job in the batch is admitted or none is. Submit times
// within a batch must be non-decreasing. At max pacing, a batch is
// byte-identical to submitting the same jobs sequentially.
func (c *Client) SubmitJobs(ctx context.Context, specs []JobSpec) ([]JobStatus, error) {
	var st []JobStatus
	err := c.call(ctx, http.MethodPost, c.bound(c.urls.jobs, "/jobs"), JobSpecList(specs).AppendJSON, (*JobStatusList)(&st).UnmarshalJSON)
	return st, err
}

// CreateFleet registers and starts a new fleet (POST /v1/fleets).
func (c *Client) CreateFleet(ctx context.Context, spec FleetSpec) (FleetInfo, error) {
	var info FleetInfo
	err := c.call(ctx, http.MethodPost, c.url("/v1/fleets"), jsonBody(spec), jsonReply(&info))
	return info, err
}

// Fleets lists every hosted fleet (GET /v1/fleets).
func (c *Client) Fleets(ctx context.Context) ([]FleetInfo, error) {
	var out []FleetInfo
	err := c.call(ctx, http.MethodGet, c.url("/v1/fleets"), nil, jsonReply(&out))
	return out, err
}

// GetFleet fetches one fleet's summary, including its WAL stats
// (GET /v1/fleets/{id}).
func (c *Client) GetFleet(ctx context.Context, id string) (FleetInfo, error) {
	var info FleetInfo
	err := c.call(ctx, http.MethodGet, c.url("/v1/fleets/"+url.PathEscape(id)), nil, jsonReply(&info))
	return info, err
}

// DeleteFleet stops a fleet and removes it — including its durable
// state (DELETE /v1/fleets/{id}).
func (c *Client) DeleteFleet(ctx context.Context, id string) error {
	return c.call(ctx, http.MethodDelete, c.url("/v1/fleets/"+url.PathEscape(id)), nil, nil)
}

// Job fetches one job's status (GET /v1/jobs/{id}).
func (c *Client) Job(ctx context.Context, id int) (JobStatus, error) {
	var st JobStatus
	err := c.call(ctx, http.MethodGet, c.bound(c.urls.jobs, "/jobs")+"/"+strconv.Itoa(id), nil, st.UnmarshalJSON)
	return st, err
}

// Jobs lists every admitted job (GET /v1/jobs).
func (c *Client) Jobs(ctx context.Context) ([]JobStatus, error) {
	var st []JobStatus
	err := c.call(ctx, http.MethodGet, c.bound(c.urls.jobs, "/jobs"), nil, (*JobStatusList)(&st).UnmarshalJSON)
	return st, err
}

// Cluster fetches the fleet status (GET /v1/cluster).
func (c *Client) Cluster(ctx context.Context) (ClusterStatus, error) {
	var st ClusterStatus
	err := c.call(ctx, http.MethodGet, c.bound(c.urls.cluster, "/cluster"), nil, st.UnmarshalJSON)
	return st, err
}

// Report fetches the paper metrics accumulated so far (GET /v1/report).
func (c *Client) Report(ctx context.Context) (ServiceReport, error) {
	var rep ServiceReport
	err := c.call(ctx, http.MethodGet, c.bound(c.urls.report, "/report"), nil, rep.UnmarshalJSON)
	return rep, err
}

// Drain seals the workload, runs the simulation until every admitted
// job completes, and returns the final report (POST /v1/drain).
func (c *Client) Drain(ctx context.Context) (ServiceReport, error) {
	var rep ServiceReport
	err := c.call(ctx, http.MethodPost, c.route("/drain"), nil, rep.UnmarshalJSON)
	return rep, err
}

// Snapshot checkpoints the daemon's state to disk (POST /v1/snapshot).
// An empty path lets the daemon pick one under its snapshot directory.
func (c *Client) Snapshot(ctx context.Context, path string) (SnapshotInfo, error) {
	var info SnapshotInfo
	err := c.call(ctx, http.MethodPost, c.route("/snapshot"), jsonBody(map[string]string{"path": path}), jsonReply(&info))
	return info, err
}

// Restore replaces the daemon's state with a snapshot's (POST
// /v1/restore): the admitted-job log is replayed deterministically up
// to the snapshot's virtual time.
func (c *Client) Restore(ctx context.Context, path string) (SnapshotInfo, error) {
	var info SnapshotInfo
	err := c.call(ctx, http.MethodPost, c.route("/restore"), jsonBody(map[string]string{"path": path}), jsonReply(&info))
	return info, err
}

// Health fetches the daemon's role and readiness (GET /v1/health).
func (c *Client) Health(ctx context.Context) (HealthStatus, error) {
	var h HealthStatus
	err := c.call(ctx, http.MethodGet, c.url("/v1/health"), nil, jsonReply(&h))
	return h, err
}

// FleetStatus fetches one fleet's role and replication position
// (GET /v1/fleets/{id}/status).
func (c *Client) FleetStatus(ctx context.Context, id string) (FleetStatus, error) {
	var st FleetStatus
	err := c.call(ctx, http.MethodGet, c.url("/v1/fleets/"+url.PathEscape(id)+"/status"), nil, jsonReply(&st))
	return st, err
}

// Promote flips a follower to serving leader (POST /v1/promote): it
// stops replicating, seals catch-up on every mirrored fleet, and
// starts accepting writes. A daemon that is already the leader
// responds 409.
func (c *Client) Promote(ctx context.Context) (PromoteInfo, error) {
	var info PromoteInfo
	err := c.call(ctx, http.MethodPost, c.url("/v1/promote"), nil, jsonReply(&info))
	return info, err
}

// Trace fetches the fleet's retained solver round traces with
// sequence number > since (GET /v1/trace?since=N). The daemon keeps a
// bounded ring (256 rounds by default), so a poller passing the last
// Seq it saw reads each round exactly once.
func (c *Client) Trace(ctx context.Context, since uint64) (TraceSnapshot, error) {
	path := c.route("/trace")
	if since > 0 {
		path += "?since=" + strconv.FormatUint(since, 10)
	}
	var snap TraceSnapshot
	err := c.call(ctx, http.MethodGet, path, nil, jsonReply(&snap))
	return snap, err
}

// SetTraceVerbosity retunes the fleet's decision-trace recording
// level at runtime (POST /v1/trace/verbosity): "off", "rounds",
// "actions" or "scores". Pure observability — scheduling stays
// byte-identical at any level.
func (c *Client) SetTraceVerbosity(ctx context.Context, level string) error {
	return c.call(ctx, http.MethodPost, c.route("/trace/verbosity"),
		jsonBody(map[string]string{"verbosity": level}), nil)
}

// TraceTail subscribes to the fleet's decision-trace stream
// (GET /v1/trace?follow=1, server-sent events) and calls fn for every
// solver round until ctx is cancelled, the stream ends, or fn returns
// a non-nil error (which is returned). since > 0 replays the retained
// backlog from that sequence number first.
func (c *Client) TraceTail(ctx context.Context, since uint64, fn func(rt TraceRound) error) error {
	return tail(ctx, c, "/trace?follow=1&since=", since, "trace",
		func(_ uint64, rt TraceRound) error { return fn(rt) })
}

// Events subscribes to the daemon's event stream (GET /v1/events,
// server-sent events) and calls fn for every event until ctx is
// cancelled, the stream ends, or fn returns a non-nil error (which is
// returned). since > 0 requests replay from that sequence number (the
// daemon keeps a bounded ring of recent events).
func (c *Client) Events(ctx context.Context, since uint64, fn func(seq uint64, e Event) error) error {
	return tail(ctx, c, "/events?since=", since, "event", fn)
}

// tail is the one SSE consumer behind Events, TraceTail and
// JourneyTail: it opens the per-fleet stream at route+since (route ends
// in "since="; 0 is a fresh tail), decodes every data: payload into a T
// and hands it to fn with the id: sequence number that preceded it. A gap event —
// the resume point was evicted, so continuing would silently skip
// events — ends the tail with a *GapError for the caller to re-sync
// from. what names the stream in errors.
func tail[T any](ctx context.Context, c *Client, route string, since uint64, what string, fn func(seq uint64, v T) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.route(route)+strconv.FormatUint(since, 10), nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		return readAPIError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	// One data: line carries a whole payload; a round trace at "scores"
	// verbosity is the largest, so lines may grow to 1 MiB.
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var seq uint64
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id:"):
			seq, _ = strconv.ParseUint(strings.TrimSpace(line[3:]), 10, 64)
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimSpace(line[6:])
		case strings.HasPrefix(line, "data:"):
			data := []byte(strings.TrimSpace(line[5:]))
			if event == "gap" {
				var g EventGap
				if err := json.Unmarshal(data, &g); err != nil {
					return fmt.Errorf("energysched: decoding gap event: %w", err)
				}
				return &GapError{Gap: g}
			}
			var v T
			if err := json.Unmarshal(data, &v); err != nil {
				return fmt.Errorf("energysched: decoding %s: %w", what, err)
			}
			if err := fn(seq, v); err != nil {
				return err
			}
		}
	}
	if err := sc.Err(); err != nil && ctx.Err() == nil {
		return err
	}
	return nil
}
